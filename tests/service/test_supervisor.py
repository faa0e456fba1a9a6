"""Supervisor state machine: lease -> run -> {done, degraded, failed},
plus singleton enforcement, crash re-adoption and shutdown release.

The heavy "done" path runs one real (tiny) tables job end to end; the
failure paths use the chaos hooks and a bogus job kind so they stay
cheap.
"""

import json
import os
import signal

import pytest

import repro.experiments
from repro.experiments import ExperimentResults, ExperimentScale, get_scale, run_all
from repro.journal import read_journal
from repro.parallel import JobFailure, ParallelRunError
from repro.service import (
    JobQueue,
    QueueBusyError,
    ServiceShutdown,
    ServiceWAL,
    Supervisor,
)

#: Small enough for seconds-scale runs, still a real sweep.
TINY_PARAMS = {
    "scale": "smoke",
    "quick": True,
    "max_faults": 60,
    "p0_min_faults": 15,
    "jobs": 1,
}

#: Whole-job retry policy without a noticeable backoff wait.
FAST_RETRY = {"max_retries": 1, "base_delay": 0.01, "jitter": 0.0}


def make_supervisor(tmp_path, **kwargs):
    queue = JobQueue(tmp_path / "queue")
    queue.ensure_layout()
    kwargs.setdefault("drain", True)
    supervisor = Supervisor(queue, **kwargs)
    return queue, supervisor


def journal_events(queue):
    read = read_journal(queue.journal_path)
    assert read.problems == []
    return [(e["event"], e["job"]) for e in read.entries]


class TestValidation:
    def test_rejects_bad_poll_interval(self, tmp_path):
        with pytest.raises(ValueError):
            Supervisor(tmp_path / "q", poll_interval=0)

    def test_rejects_negative_job_retries(self, tmp_path):
        with pytest.raises(ValueError):
            Supervisor(tmp_path / "q", job_retries=-1)

    def test_accepts_queue_path_or_instance(self, tmp_path):
        queue = JobQueue(tmp_path / "q")
        assert Supervisor(queue).queue is queue
        assert Supervisor(tmp_path / "q").queue.root == queue.root


class TestSingleton:
    def test_live_foreign_owner_refuses_to_start(self, tmp_path):
        queue, supervisor = make_supervisor(tmp_path)
        # pid 1 exists on every Linux box and is never this process.
        ServiceWAL(queue.wal_path).write("running", pid=1)
        with pytest.raises(QueueBusyError):
            supervisor.serve()

    def test_own_pid_is_not_a_conflict(self, tmp_path):
        queue, supervisor = make_supervisor(tmp_path)
        ServiceWAL(queue.wal_path).write("running", pid=os.getpid())
        assert supervisor.serve() == 0

    def test_stopped_wal_is_not_a_conflict(self, tmp_path):
        queue, supervisor = make_supervisor(tmp_path)
        ServiceWAL(queue.wal_path).write("stopped", pid=1)
        assert supervisor.serve() == 0


class TestServeLoop:
    def test_drain_on_empty_queue_exits_cleanly(self, tmp_path):
        queue, supervisor = make_supervisor(tmp_path)
        assert supervisor.serve() == 0
        assert ServiceWAL(queue.wal_path).load()["phase"] == "stopped"

    def test_unknown_job_kind_fails_terminally(self, tmp_path):
        queue, supervisor = make_supervisor(tmp_path)
        job = queue.submit(kind="bogus")
        assert supervisor.serve() == 0
        stored = queue.find(job.id)
        assert stored.status == "failed"
        assert stored.result["error"] == "ValueError"
        events = journal_events(queue)
        assert ("leased", job.id) in events
        assert ("failed", job.id) in events

    @pytest.mark.parametrize(
        "param,value",
        [("shards", 2), ("shard_min_faults", 4), ("service_retries", 1)],
    )
    def test_retired_param_fails_terminally_and_is_named(
        self, tmp_path, param, value
    ):
        # A spec queued by an older `submit` may carry a run option that
        # no longer exists.  Running it under the remaining options would
        # silently compute something other than what was asked for.
        queue, supervisor = make_supervisor(tmp_path)
        job = queue.submit(dict(TINY_PARAMS, **{param: value}))
        spec = json.loads((queue.root / "pending" / f"{job.id}.json").read_text())
        assert spec["params"][param] == value
        assert supervisor.serve() == 0
        stored = queue.find(job.id)
        assert stored.status == "failed"
        assert stored.result["error"] == "ValueError"
        assert param in stored.result["message"]
        assert not (queue.out_dir(job.id) / "results.json").exists()
        assert ("done", job.id) not in journal_events(queue)

    def test_signal_handler_raises_shutdown(self, tmp_path):
        _, supervisor = make_supervisor(tmp_path)
        previous = supervisor._install_signals()
        try:
            handler = signal.getsignal(signal.SIGTERM)
            with pytest.raises(ServiceShutdown) as excinfo:
                handler(signal.SIGTERM, None)
            assert excinfo.value.signum == signal.SIGTERM
        finally:
            supervisor._restore_signals(previous)


class TestDonePath:
    def test_tiny_job_runs_to_done_with_outputs(self, tmp_path):
        queue, supervisor = make_supervisor(tmp_path)
        job = queue.submit(dict(TINY_PARAMS))
        assert supervisor.serve() == 0
        stored = queue.find(job.id)
        assert stored.status == "done"
        out = queue.out_dir(job.id)
        results = json.loads((out / "results.json").read_text())
        assert results["scale"]
        assert (out / "tables.txt").read_text().strip()
        # Checkpoints were written under the job's work dir.
        assert list((queue.work_dir(job.id) / "checkpoints").glob("*.json"))
        events = journal_events(queue)
        assert events.count(("done", job.id)) == 1
        done = [
            e
            for e in read_journal(queue.journal_path).entries
            if e["event"] == "done"
        ]
        assert done[0]["metrics"]["service.wall_seconds"] > 0
        # Per-job log exists and mentions completion.
        assert "done" in queue.log_path(job.id).read_text()


class TestDegradedPath:
    def test_retry_exhaustion_degrades_with_failure_record(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_INJECT_FAIL", "s641_proxy")
        queue, supervisor = make_supervisor(tmp_path)
        job = queue.submit(dict(TINY_PARAMS, retry=FAST_RETRY))
        assert supervisor.serve() == 0  # failures are data, not crashes
        stored = queue.find(job.id)
        assert stored.status == "degraded"
        assert stored.attempts == 2  # first pass + one supervised retry
        record = json.loads(
            (queue.out_dir(job.id) / "failure.json").read_text()
        )
        assert record["status"] == "degraded"
        assert record["job"] == job.id
        assert record["attempts"] == 2
        assert record["failures"][0]["circuit"] == "s641_proxy"
        assert record["failures"][0]["phase"] == "inject"
        assert "checkpoints" in record
        events = journal_events(queue)
        assert ("retried", job.id) in events
        assert ("degraded", job.id) in events
        assert ("done", job.id) not in events

    def test_transient_failure_recovered_by_supervised_retry(
        self, tmp_path, monkeypatch
    ):
        # The *supervisor's* whole-job retry must recover a transient
        # fault: the first pass dies with a ParallelRunError, the second
        # pass runs the real job (resuming from any checkpoints).
        queue, supervisor = make_supervisor(tmp_path)
        real_run = supervisor._run_once
        passes = []

        def flaky(job):
            passes.append(job.id)
            if len(passes) == 1:
                raise ParallelRunError(
                    [
                        JobFailure(
                            circuit="s641_proxy",
                            phase="pool",
                            error="BrokenProcessPool",
                            message="worker died",
                        )
                    ],
                    [],
                )
            return real_run(job)

        monkeypatch.setattr(supervisor, "_run_once", flaky)
        job = queue.submit(dict(TINY_PARAMS, retry=FAST_RETRY))
        assert supervisor.serve() == 0
        assert len(passes) == 2
        assert queue.find(job.id).status == "done"
        events = journal_events(queue)
        assert ("retried", job.id) in events
        assert ("done", job.id) in events


    @pytest.mark.parametrize(
        "job_retries,retry,attempts",
        [
            (0, None, 1),  # the daemon default
            (2, {"base_delay": 0.0}, 3),  # a spec without a budget inherits it
            (2, {"max_retries": 0}, 1),  # the job's own budget wins
        ],
    )
    def test_retry_budget_comes_from_the_retry_policy(
        self, tmp_path, monkeypatch, job_retries, retry, attempts
    ):
        monkeypatch.setenv("REPRO_INJECT_FAIL", "s641_proxy")
        queue, supervisor = make_supervisor(tmp_path, job_retries=job_retries)
        params = dict(TINY_PARAMS, retry=retry) if retry else dict(TINY_PARAMS)
        job = queue.submit(params)
        assert supervisor.serve() == 0
        stored = queue.find(job.id)
        assert stored.status == "degraded"
        assert stored.attempts == attempts

    def test_sigkilled_worker_recovered_by_supervised_retry(
        self, tmp_path, monkeypatch
    ):
        # A real --jobs 2 pass loses a pool worker to SIGKILL.  The runner
        # does not retry; the supervisor's second pass resumes from the
        # first pass's checkpoints and the job ends done, with output
        # canonically equal to a serial run.
        circuits = ("s27", "c17")
        monkeypatch.setattr(repro.experiments, "TABLE3_CIRCUITS", circuits)
        monkeypatch.setattr(repro.experiments, "TABLE6_CIRCUITS", circuits)
        monkeypatch.setenv("REPRO_INJECT_EXIT_SIGKILL", "s27")
        queue, supervisor = make_supervisor(tmp_path)
        real_run = supervisor._run_once
        passes = []

        def first_pass_killed(job):
            passes.append(job.id)
            try:
                return real_run(job)
            finally:
                monkeypatch.delenv("REPRO_INJECT_EXIT_SIGKILL", raising=False)

        monkeypatch.setattr(supervisor, "_run_once", first_pass_killed)
        params = dict(TINY_PARAMS, quick=False, jobs=2, retry=FAST_RETRY)
        job = queue.submit(params)
        assert supervisor.serve() == 0
        assert len(passes) == 2
        assert queue.find(job.id).status == "done"
        assert ("retried", job.id) in journal_events(queue)
        smoke = get_scale("smoke")
        scale = ExperimentScale(
            name=smoke.name,
            max_faults=60,
            p0_min_faults=15,
            max_secondary_attempts=smoke.max_secondary_attempts,
            seed=smoke.seed,
        )
        serial = run_all(scale, circuits=circuits, table6_circuits=circuits, jobs=1)
        served = ExperimentResults.from_json(
            (queue.out_dir(job.id) / "results.json").read_text()
        )
        assert served.canonical_json() == serial.canonical_json()


class TestShutdownPath:
    def test_shutdown_mid_job_releases_lease(self, tmp_path, monkeypatch):
        queue, supervisor = make_supervisor(tmp_path)
        job = queue.submit(dict(TINY_PARAMS))
        leased = queue.lease()
        monkeypatch.setattr(
            supervisor,
            "_run_once",
            lambda _job: (_ for _ in ()).throw(ServiceShutdown(signal.SIGTERM)),
        )
        with pytest.raises(ServiceShutdown):
            supervisor.run_job(leased)
        # The job went back to pending with its attempt count intact.
        assert queue.job_path("pending", job.id).exists()
        assert not queue.job_path("leased", job.id).exists()
        events = journal_events(queue)
        assert ("released", job.id) in events


class TestCrashRecovery:
    def test_dead_daemons_lease_is_readopted(self, tmp_path):
        queue, supervisor = make_supervisor(tmp_path)
        job = queue.submit(kind="bogus")  # cheap terminal path after adopt
        queue.lease()
        # Simulate the previous daemon dying mid-lease: WAL records a
        # pid that is provably dead.
        pid = os.fork()
        if pid == 0:
            os._exit(0)
        os.waitpid(pid, 0)
        ServiceWAL(queue.wal_path).write("running", job=job.id, pid=pid)
        assert supervisor.serve() == 0
        events = journal_events(queue)
        assert ("readopted", job.id) in events
        # The re-adopted job was then driven to a terminal state.
        assert queue.find(job.id).status == "failed"

    def test_adopt_preserves_attempt_counts(self, tmp_path):
        queue, supervisor = make_supervisor(tmp_path)
        queue.submit(kind="bogus")
        leased = queue.lease()
        leased.attempts = 1
        queue._write_job(leased, "leased")
        [adopted] = supervisor.adopt()
        assert adopted.attempts == 1
