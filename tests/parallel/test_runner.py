"""Tests for the process-pool experiment runner.

The determinism contract: ``jobs=N`` must produce results byte-identical
to ``jobs=1`` for every deterministic field (``canonical_json`` strips the
wall-clock ``runtime_seconds`` measurements, which differ run to run even
at a fixed job count).
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.engine import Engine, EngineStats
from repro.experiments import ExperimentScale, run_all, run_basic_experiments
from repro.experiments.results import (
    CircuitBasicResult,
    HeuristicOutcome,
    Table6Row,
)
from repro.parallel import (
    CircuitJob,
    CircuitJobResult,
    JobFailure,
    ParallelRunError,
    ParallelRunner,
    RunCheckpoint,
    resolve_jobs,
)
from repro.parallel import runner as runner_module
from repro.parallel.runner import _pool_entry

TINY = ExperimentScale(
    name="tiny", max_faults=120, p0_min_faults=30, max_secondary_attempts=4, seed=1
)
CIRCUITS = ("s27", "b03_proxy")


class TestResolveJobs:
    def test_none_means_all_cpus(self):
        assert resolve_jobs(None) >= 1

    def test_explicit_value_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)


@pytest.fixture(scope="module")
def serial_results():
    return run_all(TINY, circuits=CIRCUITS, table6_circuits=CIRCUITS, jobs=1)


@pytest.fixture(scope="module")
def parallel_results():
    return run_all(TINY, circuits=CIRCUITS, table6_circuits=CIRCUITS, jobs=4)


class TestDeterminism:
    def test_jobs4_matches_jobs1_byte_identical(
        self, serial_results, parallel_results
    ):
        assert (
            parallel_results.canonical_json() == serial_results.canonical_json()
        )

    def test_circuit_order_preserved(self, parallel_results):
        assert tuple(parallel_results.basic) == CIRCUITS
        assert tuple(r.circuit for r in parallel_results.table6) == CIRCUITS

    def test_run_basic_experiments_parallel_identity(self):
        serial = run_basic_experiments(TINY, CIRCUITS, jobs=1)
        parallel = run_basic_experiments(TINY, CIRCUITS, jobs=2)
        assert list(serial) == list(parallel)
        for name in serial:
            a, b = serial[name], parallel[name]
            assert a.i0 == b.i0
            assert a.p0_total == b.p0_total
            assert a.p01_total == b.p01_total
            for heuristic, outcome in a.outcomes.items():
                other = b.outcomes[heuristic]
                assert outcome.detected_p0 == other.detected_p0
                assert outcome.tests == other.tests
                assert outcome.detected_p01 == other.detected_p01


class TestRunner:
    def test_in_process_path_uses_caller_engine(self):
        engine = Engine()
        runner = ParallelRunner(jobs=1, engine=engine)
        results = runner.run(
            [CircuitJob("s27", TINY, ("values",), run_basic=True)]
        )
        assert len(results) == 1
        assert results[0].stats is None  # recorded directly on `engine`
        assert engine.stats.misses("enumerate") >= 1

    def test_pool_path_merges_worker_stats(self):
        engine = Engine()
        runner = ParallelRunner(jobs=2, engine=engine)
        jobs = [
            CircuitJob(name, TINY, ("values",), run_basic=True)
            for name in CIRCUITS
        ]
        results = runner.run(jobs)
        assert [r.circuit for r in results] == list(CIRCUITS)
        assert all(r.stats is not None for r in results)
        # Both workers' events landed on the parent engine.
        assert engine.stats.misses("enumerate") >= len(CIRCUITS)
        assert engine.stats.counter("simulator.build") >= len(CIRCUITS)

    def test_single_job_never_spawns_pool(self):
        engine = Engine()
        runner = ParallelRunner(jobs=8, engine=engine)
        results = runner.run(
            [CircuitJob("s27", TINY, ("values",), run_basic=True)]
        )
        assert results[0].stats is None  # in-process short-circuit

    def test_combined_job_runs_both_sweeps(self):
        result = _pool_entry(
            CircuitJob("s27", TINY, ("values",), run_basic=True, run_table6=True)
        )
        assert isinstance(result, CircuitJobResult)
        assert result.basic is not None
        assert result.table6 is not None
        assert result.basic.circuit == "s27"
        assert result.table6.circuit == "s27"
        # One worker session: the enrichment run reused the basic sweep's
        # target sets instead of rebuilding them.
        assert result.stats.hits("target_sets") >= 1

    def test_worker_result_matches_in_process(self):
        job = CircuitJob("s27", TINY, ("values",), run_basic=True)
        [in_process] = ParallelRunner(jobs=1, engine=Engine()).run([job])
        shipped = _pool_entry(job)
        assert in_process.basic.p0_total == shipped.basic.p0_total
        outcome_a = in_process.basic.outcomes["values"]
        outcome_b = shipped.basic.outcomes["values"]
        assert outcome_a.detected_p0 == outcome_b.detected_p0
        assert outcome_a.tests == outcome_b.tests


def _values_jobs(circuits=CIRCUITS):
    return [
        CircuitJob(name, TINY, ("values",), run_basic=True) for name in circuits
    ]


def _count_chaos_calls(monkeypatch):
    """Record every job this process starts (forked pool workers append
    to their own copy of the list, so only in-process runs show up)."""
    calls = []
    original = runner_module._inject_chaos

    def counting(job, in_worker):
        calls.append(job.key)
        original(job, in_worker)

    monkeypatch.setattr(runner_module, "_inject_chaos", counting)
    return calls


def _new_children(before):
    """Pool workers started since ``before``, once they stop (5 s grace)."""
    leftover = [
        p for p in multiprocessing.active_children() if p.pid not in before
    ]
    deadline = time.monotonic() + 5.0
    while leftover and time.monotonic() < deadline:
        time.sleep(0.1)
        leftover = [p for p in leftover if p.is_alive()]
    return leftover


class TestFailurePaths:
    """Injected worker failures (via the REPRO_INJECT_* chaos hooks, which
    cross process boundaries where monkeypatching cannot).  The runner
    runs each job once: every failure ends in one ParallelRunError that
    carries the salvaged results."""

    def test_injected_failure_aggregates_and_salvages(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_INJECT_FAIL", "s27")
        engine = Engine()
        checkpoint = RunCheckpoint(tmp_path)
        runner = ParallelRunner(jobs=2, engine=engine)
        with pytest.raises(ParallelRunError) as excinfo:
            runner.run(_values_jobs(), checkpoint=checkpoint)
        error = excinfo.value
        assert "s27" in str(error)
        [failure] = error.failures
        assert isinstance(failure, JobFailure)
        assert failure.circuit == "s27"
        assert failure.phase == "inject"
        assert failure.error == "RuntimeError"
        assert "injected failure" in failure.message
        assert "RuntimeError" in failure.traceback
        # the healthy circuit's finished result is salvaged and
        # checkpointed, not discarded
        assert [r.circuit for r in error.results] == ["b03_proxy"]
        assert error.results[0].basic is not None
        assert checkpoint.completed() == {"b03_proxy"}
        assert engine.stats.counter("parallel.failures") == 1
        assert "s27" in error.details()

    def test_in_process_failure_runs_once(self, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_FAIL", "s27")
        calls = _count_chaos_calls(monkeypatch)
        runner = ParallelRunner(jobs=1, engine=Engine())
        with pytest.raises(ParallelRunError) as excinfo:
            runner.run(_values_jobs())
        assert [f.circuit for f in excinfo.value.failures] == ["s27"]
        assert [r.circuit for r in excinfo.value.results] == ["b03_proxy"]
        assert calls == list(CIRCUITS)  # no second attempt at s27

    def test_broken_pool_fails_unfinished_jobs_as_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_EXIT", "s27")  # worker dies mid-job
        engine = Engine()
        runner = ParallelRunner(jobs=2, engine=engine)
        with pytest.raises(ParallelRunError) as excinfo:
            runner.run(_values_jobs())
        failures = {f.circuit: f for f in excinfo.value.failures}
        assert failures["s27"].phase == "pool"
        assert failures["s27"].error == "BrokenProcessPool"
        assert all(f.phase == "pool" for f in failures.values())
        # Every circuit either finished in a worker or failed; none was
        # rerun in-process on the caller's engine.
        done = [r.circuit for r in excinfo.value.results]
        assert sorted(done + list(failures)) == sorted(CIRCUITS)
        assert all(r.stats is not None for r in excinfo.value.results)

    def test_timeout_marks_outstanding_jobs_failed(self, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_SLEEP", "c17:30")
        engine = Engine()
        runner = ParallelRunner(jobs=2, engine=engine, timeout=2.0)
        # no run flags: the healthy job only builds a session, so the only
        # slow job is the injected sleeper
        jobs = [CircuitJob("s27", TINY), CircuitJob("c17", TINY)]
        with pytest.raises(ParallelRunError) as excinfo:
            runner.run(jobs)
        assert [f.circuit for f in excinfo.value.failures] == ["c17"]
        assert excinfo.value.failures[0].phase == "timeout"
        assert [r.circuit for r in excinfo.value.results] == ["s27"]
        assert engine.stats.counter("parallel.timeouts") == 1

    def test_timeout_kills_stuck_workers(self, monkeypatch):
        """Declaring a worker stuck must also terminate it: an abandoned
        pool is still joined at interpreter exit, so a 600s sleeper left
        alive would keep the parent process hanging long after the run
        reported its timeout failure."""
        monkeypatch.setenv("REPRO_INJECT_SLEEP", "c17:600")
        runner = ParallelRunner(jobs=2, timeout=2.0)
        jobs = [CircuitJob("s27", TINY), CircuitJob("c17", TINY)]
        before = {p.pid for p in multiprocessing.active_children()}
        with pytest.raises(ParallelRunError):
            runner.run(jobs)
        assert _new_children(before) == []  # the sleeper was killed

    def test_exception_in_wait_loop_kills_workers_promptly(self, monkeypatch):
        """An exception unwinding through the wait loop -- the daemon's
        ``ServiceShutdown`` on SIGTERM -- is a teardown: the run re-raises
        at once instead of waiting for the in-flight sleeper, and no
        worker outlives it."""
        from repro.service import ServiceShutdown

        monkeypatch.setenv("REPRO_INJECT_SLEEP", "c17:30")
        real_wait = runner_module.wait
        completions = []

        def wait_then_shut_down(*args, **kwargs):
            if completions:
                raise ServiceShutdown(signal.SIGTERM)
            done, pending = real_wait(*args, **kwargs)
            completions.extend(done)
            return done, pending

        monkeypatch.setattr(runner_module, "wait", wait_then_shut_down)
        runner = ParallelRunner(jobs=2)
        jobs = [CircuitJob("s27", TINY), CircuitJob("c17", TINY)]
        before = {p.pid for p in multiprocessing.active_children()}
        started = time.monotonic()
        with pytest.raises(ServiceShutdown):
            runner.run(jobs)
        assert time.monotonic() - started < 3.0
        assert len(completions) == 1  # s27 finished, the sleeper did not
        alive = [
            p for p in multiprocessing.active_children()
            if p.pid not in before and p.is_alive()
        ]
        assert alive == []

    def test_constructor_rejects_bad_policy(self):
        with pytest.raises(ValueError):
            ParallelRunner(jobs=1, timeout=0.0)
        with pytest.raises(ValueError):
            ParallelRunner(jobs=1, heartbeat_interval=0.0)
        with pytest.raises(ValueError):
            ParallelRunner(jobs=1, stale_after=0.0)

    def test_neighbours_of_a_stuck_job_fail_as_pool(self):
        runner = ParallelRunner(jobs=2)
        stuck = runner._teardown_failure(CircuitJob("c17", TINY), "stuck", {"c17"})
        neighbour = runner._teardown_failure(
            CircuitJob("s27", TINY), "stuck", {"c17"}
        )
        assert (stuck.phase, neighbour.phase) == ("stuck", "pool")
        assert "c17" in neighbour.message
        assert runner.engine.stats.counter("parallel.stuck") == 1


class TestHardCrashRecovery:
    """SIGKILL a pool worker mid-job: the hardest crash.  The pass fails
    with phase ``pool`` and nothing is rerun; resuming from the pass's
    checkpoints gives canonical output identical to a serial run."""

    def test_sigkill_fails_job_with_phase_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_INJECT_EXIT_SIGKILL", "s27")
        calls = _count_chaos_calls(monkeypatch)
        runner = ParallelRunner(jobs=2, engine=Engine())
        with pytest.raises(ParallelRunError) as excinfo:
            runner.run(_values_jobs())
        failures = {f.circuit: f.phase for f in excinfo.value.failures}
        assert failures["s27"] == "pool"
        assert set(failures.values()) == {"pool"}
        assert calls == []  # no in-process rerun

    def test_sigkill_then_resume_output_identical(
        self, monkeypatch, tmp_path, serial_results
    ):
        ckpt = str(tmp_path / "ckpt")
        kwargs = dict(
            circuits=CIRCUITS,
            table6_circuits=CIRCUITS,
            jobs=2,
            checkpoint_dir=ckpt,
            heartbeat_dir=str(tmp_path / "hb"),
        )
        monkeypatch.setenv("REPRO_INJECT_EXIT_SIGKILL", "s27")
        with pytest.raises(ParallelRunError) as excinfo:
            run_all(TINY, **kwargs)
        assert "s27" in {f.circuit for f in excinfo.value.failures}
        assert not (tmp_path / "ckpt" / "s27.json").exists()
        monkeypatch.delenv("REPRO_INJECT_EXIT_SIGKILL")
        resumed = run_all(TINY, resume=True, **kwargs)
        assert resumed.canonical_json() == serial_results.canonical_json()


class TestWatchdogPath:
    """A worker that starts beating and then goes silent is *stuck*:
    its workers are killed and it fails with phase="stuck",
    distinguishable from the completion-free hard timeout.

    The sleeper chaos job beats synchronously once on entry; with a
    60s beat interval the beat then goes silent, which is exactly the
    stuck signature (a frozen process stops beating too)."""

    def test_stuck_worker_flagged_and_neighbour_salvaged(
        self, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_INJECT_SLEEP", "c17:600")
        engine = Engine()
        runner = ParallelRunner(
            jobs=2,
            engine=engine,
            heartbeat_dir=tmp_path,
            heartbeat_interval=60.0,
            stale_after=1.0,
        )
        jobs = [CircuitJob("s27", TINY), CircuitJob("c17", TINY)]
        before = {p.pid for p in multiprocessing.active_children()}
        with pytest.raises(ParallelRunError) as excinfo:
            runner.run(jobs)
        [failure] = excinfo.value.failures
        assert failure.circuit == "c17"
        assert failure.phase == "stuck"
        assert "no heartbeat" in failure.message
        assert engine.stats.counter("parallel.stuck") == 1
        assert engine.stats.counter("parallel.timeouts") == 0
        assert [r.circuit for r in excinfo.value.results] == ["s27"]
        assert _new_children(before) == []  # the silent worker was killed


def _process_alive(pid):
    """True while ``pid`` runs; an exited, unreaped zombie counts as gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


ORPHAN_SCRIPT = """
import json, os, signal, time
from concurrent.futures import ProcessPoolExecutor
from repro.parallel.runner import _init_pool_worker

pool = ProcessPoolExecutor(max_workers=2, initializer=_init_pool_worker)
for future in [pool.submit(time.sleep, 0.2) for _ in range(4)]:
    future.result()
print(json.dumps(sorted(pool._processes)), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
class TestOrphanedWorkers:
    def test_workers_exit_when_parent_is_sigkilled(self, tmp_path):
        # A SIGKILLed parent cannot shut its pool down; the workers must
        # notice the re-parenting and exit on their own.
        out = tmp_path / "pids.json"
        env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
        with out.open("w") as handle:
            # stdout is a file, not a pipe: orphans holding a pipe's
            # write end would keep the call from returning.
            proc = subprocess.run(
                [sys.executable, "-c", ORPHAN_SCRIPT],
                stdout=handle,
                env=env,
                timeout=60,
            )
        assert proc.returncode == -signal.SIGKILL
        pids = json.loads(out.read_text())
        assert len(pids) == 2
        try:
            deadline = time.monotonic() + 5.0
            alive = pids
            while alive and time.monotonic() < deadline:
                time.sleep(0.1)
                alive = [pid for pid in alive if _process_alive(pid)]
            assert alive == []
        finally:
            for pid in pids:
                if _process_alive(pid):
                    os.kill(pid, signal.SIGKILL)


def _fake_result(circuit="s27"):
    stats = EngineStats()
    stats.count("batch.runs", 2)
    stats.add_time("generate", 1.5)
    return CircuitJobResult(
        circuit=circuit,
        basic=CircuitBasicResult(
            circuit=circuit,
            i0=1,
            p0_total=2,
            p01_total=3,
            outcomes={"values": HeuristicOutcome(1, 2, 3, 0.5)},
        ),
        table6=Table6Row(
            circuit=circuit,
            i0=1,
            p0_total=2,
            p0_detected=1,
            p01_total=3,
            p01_detected=2,
            tests=4,
            runtime_seconds=0.25,
        ),
        stats=stats,
    )


class TestRunCheckpoint:
    JOB = CircuitJob("s27", TINY, ("values",), run_basic=True, run_table6=True)

    def test_roundtrip(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path / "ckpt")
        result = _fake_result()
        path = checkpoint.save(result, self.JOB)
        assert path.name == "s27.json"
        assert checkpoint.completed() == {"s27"}
        loaded = checkpoint.load(self.JOB)
        assert loaded is not None
        assert loaded.to_payload() == result.to_payload()
        assert loaded.basic.outcomes["values"].tests == 2
        assert loaded.stats.counter("batch.runs") == 2
        assert loaded.stats.timers["generate"] == pytest.approx(1.5)

    def test_missing_file_is_none(self, tmp_path):
        assert RunCheckpoint(tmp_path).load(self.JOB) is None

    def test_corrupt_file_is_none(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.path_for("s27").write_text('{"version": 1, "circ')  # truncated
        assert checkpoint.load(self.JOB) is None

    def test_scale_mismatch_is_none(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.save(_fake_result(), self.JOB)
        other_scale = ExperimentScale(
            name="tiny",  # same name, different working point
            max_faults=99,
            p0_min_faults=30,
            max_secondary_attempts=4,
            seed=1,
        )
        other = CircuitJob("s27", other_scale, ("values",), run_basic=True)
        assert checkpoint.load(other) is None

    def test_missing_sweep_is_none(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        basic_only = CircuitJob("s27", TINY, ("values",), run_basic=True)
        result = _fake_result()
        result.table6 = None
        checkpoint.save(result, basic_only)
        assert checkpoint.load(basic_only) is not None
        assert checkpoint.load(self.JOB) is None  # also wants table6

    def test_heuristics_mismatch_is_none(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.save(_fake_result(), self.JOB)
        wider = CircuitJob(
            "s27", TINY, ("values", "arbit"), run_basic=True, run_table6=True
        )
        assert checkpoint.load(wider) is None

    def test_clear_drops_everything(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        checkpoint.save(_fake_result(), self.JOB)
        checkpoint.clear()
        assert checkpoint.completed() == set()


class TestCheckpointResume:
    def test_runner_skips_checkpointed_jobs(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        jobs = _values_jobs(("s27",))
        engine = Engine()
        first = ParallelRunner(jobs=1, engine=engine).run(
            jobs, checkpoint=checkpoint
        )
        assert engine.stats.counter("parallel.checkpointed") == 1
        resumed_engine = Engine()
        second = ParallelRunner(jobs=1, engine=resumed_engine).run(
            jobs, checkpoint=checkpoint
        )
        assert resumed_engine.stats.counter("parallel.resumed") == 1
        assert resumed_engine.stats.counter("parallel.jobs") == 0
        # no generation work happened on the resumed engine
        assert resumed_engine.stats.counter("justify.calls") == 0
        assert (
            second[0].basic.outcomes["values"].tests
            == first[0].basic.outcomes["values"].tests
        )

    def test_killed_run_resumes_identically(
        self, tmp_path, monkeypatch, serial_results
    ):
        """The acceptance scenario: a --jobs 4 run dies after the first
        circuit completes; rerunning with resume=True yields canonical
        output byte-identical to an uninterrupted run."""
        ckpt = tmp_path / "ckpt"
        monkeypatch.setenv("REPRO_INJECT_FAIL", "b03_proxy")
        with pytest.raises(ParallelRunError) as excinfo:
            run_all(
                TINY,
                circuits=CIRCUITS,
                table6_circuits=CIRCUITS,
                jobs=4,
                checkpoint_dir=str(ckpt),
            )
        assert "b03_proxy" in str(excinfo.value)
        assert (ckpt / "s27.json").exists()
        assert not (ckpt / "b03_proxy.json").exists()
        monkeypatch.delenv("REPRO_INJECT_FAIL")
        engine = Engine()
        resumed = run_all(
            TINY,
            circuits=CIRCUITS,
            table6_circuits=CIRCUITS,
            jobs=4,
            checkpoint_dir=str(ckpt),
            resume=True,
            engine=engine,
        )
        assert engine.stats.counter("parallel.resumed") == 1
        assert resumed.canonical_json() == serial_results.canonical_json()

    def test_fresh_run_clears_stale_checkpoints(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        (ckpt / "bogus.json").write_text("{}")
        run_all(
            TINY,
            circuits=("s27",),
            table6_circuits=("s27",),
            jobs=1,
            checkpoint_dir=str(ckpt),
        )
        assert not (ckpt / "bogus.json").exists()
        assert (ckpt / "s27.json").exists()

    def test_resume_without_dir_rejected(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            run_all(TINY, circuits=("s27",), table6_circuits=(), resume=True)


class TestJobRecords:
    """The journal seam: every completed job leaves a record on the
    engine with its identity and wall clock."""

    def test_records_key_kind_and_wall_seconds(self):
        engine = Engine()
        ParallelRunner(jobs=1, engine=engine).run(_values_jobs())
        assert [r["key"] for r in engine.job_records] == list(CIRCUITS)
        assert all(r["kind"] == "circuit" for r in engine.job_records)
        assert all(r["wall_seconds"] > 0 for r in engine.job_records)

    def test_pool_path_also_records(self):
        engine = Engine()
        ParallelRunner(jobs=2, engine=engine).run(_values_jobs())
        assert sorted(r["key"] for r in engine.job_records) == sorted(CIRCUITS)

    def test_resumed_jobs_flagged(self, tmp_path):
        checkpoint = RunCheckpoint(tmp_path)
        jobs = _values_jobs(("s27",))
        ParallelRunner(jobs=1, engine=Engine()).run(jobs, checkpoint=checkpoint)
        engine = Engine()
        ParallelRunner(jobs=1, engine=engine).run(jobs, checkpoint=checkpoint)
        [record] = engine.job_records
        assert record["resumed"] is True
        assert "wall_seconds" not in record

    def test_engines_without_the_attribute_tolerated(self):
        class BareEngine(Engine):
            def __init__(self):
                super().__init__()
                del self.job_records

        engine = BareEngine()
        results = ParallelRunner(jobs=1, engine=engine).run(_values_jobs(("s27",)))
        assert results[0].basic is not None


class TestStatsMerge:
    def test_merge_sums_counters_and_timers(self):
        parent, worker1, worker2 = EngineStats(), EngineStats(), EngineStats()
        parent.count("enumerate.miss")
        parent.add_time("generate", 1.0)
        worker1.count("enumerate.miss", 2)
        worker1.add_time("generate", 0.5)
        worker1.add_time("enumerate", 0.25)
        worker2.count("batch.runs", 7)
        worker2.add_time("generate", 0.25)
        parent.merge(worker1)
        parent.merge(worker2)
        assert parent.counter("enumerate.miss") == 3
        assert parent.counter("batch.runs") == 7
        assert parent.timers["generate"] == pytest.approx(1.75)
        assert parent.timers["enumerate"] == pytest.approx(0.25)

    def test_merge_empty_is_noop(self):
        parent = EngineStats()
        parent.count("x")
        snapshot = parent.snapshot()
        parent.merge(EngineStats())
        assert parent.snapshot() == snapshot
