"""Process-pool fan-out of per-circuit experiment work.

The table experiments are embarrassingly parallel across circuits: every
circuit's pipeline (enumeration, target sets, generation runs, fault
simulation) is independent and deterministic given ``(circuit, scale,
seed)``.  :class:`ParallelRunner` exploits that:

* one :class:`CircuitJob` describes all the work for one circuit
  (which heuristic runs, whether to run enrichment);
* one pool worker owns one :class:`~repro.engine.CircuitSession`, so a
  circuit appearing in both the basic and the enrichment sweeps still
  compiles its artifacts exactly once;
* timeouts, chaos injection and checkpoints all operate at circuit
  granularity, addressed by the job's ``key`` (its circuit);
* results come back as the plain dataclasses of
  :mod:`repro.experiments.results` and are merged **in submission order**,
  so ``--jobs N`` output is identical to the serial path for every
  deterministic field (wall-clock ``runtime_seconds`` fields necessarily
  differ run to run; see ``ExperimentResults.canonical_json``);
* each worker's :class:`~repro.engine.EngineStats` is returned and folded
  into the parent engine's stats via :meth:`EngineStats.merge`.

``jobs=1`` (or a single job) never touches a pool: work runs in-process
on the caller's engine, preserving the pre-parallel code path exactly.

Fault tolerance
---------------

A multi-circuit sweep costs tens of CPU-minutes; one crashed worker must
not discard every finished circuit.  Workers therefore never propagate
exceptions: job bodies run guarded and ship back a structured
:class:`JobFailure` (circuit, phase, traceback).  The runner runs every
pending job **exactly once** and does not retry: each circuit's result
is a deterministic function of ``(circuit, scale, seed)``, so rerunning
a failed circuit from the run's checkpoints (``tables --resume``, or the
``repro serve`` supervisor's whole-job retry) gives the same output a
retry inside the pool would.  Failed jobs are reported together, after
every other job has finished, as one :class:`ParallelRunError` carrying
all salvaged results.

The pool is torn down -- its workers terminated, every unfinished job
turned into a :class:`JobFailure` -- on three events, each named by the
failure's ``phase``:

* ``timeout`` -- no job completed for ``timeout * 1.25 + 1`` seconds
  (the hard backstop behind the cooperative per-job deadline); every
  outstanding job is charged;
* ``stuck`` -- with ``heartbeat_dir`` set, a worker's per-job heartbeat
  (:class:`~repro.parallel.heartbeat.HeartbeatWriter`) started and then
  went silent past ``stale_after`` (read by the
  :class:`~repro.parallel.heartbeat.Watchdog`); only that job is charged;
* ``pool`` -- the pool machinery broke (``BrokenProcessPool``: a worker
  was OOM-killed or SIGKILLed mid-job), and every job a teardown
  cancelled without having caused it.

The parent engine counts them as ``parallel.timeouts``,
``parallel.stuck`` and ``parallel.failures``.

Passing a :class:`~repro.parallel.checkpoint.RunCheckpoint` to
:meth:`ParallelRunner.run` additionally persists every finished result
as it completes (``<dir>/<circuit>.json``), and skips jobs whose
matching checkpoint already exists -- the resume path behind
``repro-pdf tables --checkpoint-dir D --resume``.
"""

from __future__ import annotations

import os
import signal
import threading
import time
import traceback as _tb
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from ..artifacts import ArtifactStore
from ..engine import Engine
from ..engine.stats import EngineStats
from ..robustness import Budget
from .heartbeat import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_STALE_AFTER,
    HeartbeatWriter,
    Watchdog,
    heartbeat_path,
)

if TYPE_CHECKING:  # experiments imports parallel; keep the reverse type-only
    from ..experiments.results import CircuitBasicResult, Table6Row
    from ..experiments.scale import ExperimentScale
    from .checkpoint import RunCheckpoint

__all__ = [
    "CircuitJob",
    "CircuitJobResult",
    "JobFailure",
    "ParallelRunError",
    "ParallelRunner",
    "resolve_jobs",
]


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None`` means all CPUs, min 1."""
    if jobs is None:
        return max(1, os.cpu_count() or 1)
    jobs = int(jobs)
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass(frozen=True)
class CircuitJob:
    """All experiment work assigned to one circuit (one pool task).

    ``heuristics`` is the basic-generation sweep; an empty tuple means the
    driver default (:data:`repro.experiments.workloads.HEURISTICS`).
    """

    circuit: str
    scale: "ExperimentScale"
    heuristics: tuple[str, ...] = ()
    run_basic: bool = False
    run_table6: bool = False

    @property
    def key(self) -> str:
        """Runner/checkpoint identity (circuit jobs are keyed by circuit)."""
        return self.circuit


def effective_heuristics(job: CircuitJob) -> tuple[str, ...]:
    """The heuristic list a job will actually run (resolving the default)."""
    if job.heuristics:
        return tuple(job.heuristics)
    from ..experiments.workloads import HEURISTICS

    return tuple(HEURISTICS)


@dataclass
class CircuitJobResult:
    """One circuit's outcome, shipped back from a worker.

    ``stats`` is the worker engine's instrumentation, ``None`` when the
    job ran in-process (its events already landed on the caller's engine).
    ``wall_seconds`` is the job body's wall clock on whichever side ran
    it (journal bookkeeping; not part of the checkpoint payload).
    """

    circuit: str
    basic: "CircuitBasicResult | None" = None
    table6: "Table6Row | None" = None
    stats: EngineStats | None = None
    wall_seconds: float = 0.0

    @property
    def key(self) -> str:
        return self.circuit

    def to_payload(self) -> dict:
        """JSON-ready dict (see :meth:`from_payload`; used by checkpoints)."""
        from dataclasses import asdict

        return {
            "circuit": self.circuit,
            "basic": asdict(self.basic) if self.basic is not None else None,
            "table6": asdict(self.table6) if self.table6 is not None else None,
            "stats": self.stats.snapshot() if self.stats is not None else None,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CircuitJobResult":
        from ..experiments.results import CircuitBasicResult, Table6Row

        basic = payload.get("basic")
        table6 = payload.get("table6")
        stats = payload.get("stats")
        return cls(
            circuit=payload["circuit"],
            basic=CircuitBasicResult.from_dict(basic) if basic else None,
            table6=Table6Row.from_dict(table6) if table6 else None,
            stats=EngineStats.from_snapshot(stats) if stats else None,
        )


@dataclass
class JobFailure:
    """Structured report of one failed job.

    Built inside the worker (or the in-process runner) instead of letting
    the exception propagate, so one bad circuit cannot abort the sweep
    and the parent still learns *where* it died: ``phase`` is the
    pipeline stage (``inject``/``session``/``basic``/``table6``) or the
    runner-level cause (``timeout``/``stuck``/``pool``).
    """

    circuit: str
    phase: str
    error: str
    message: str
    traceback: str = ""

    @classmethod
    def from_exception(
        cls, circuit: str, phase: str, exc: BaseException
    ) -> "JobFailure":
        return cls(
            circuit=circuit,
            phase=phase,
            error=type(exc).__name__,
            message=str(exc),
            traceback="".join(_tb.format_exception(exc)),
        )

    def describe(self) -> str:
        return f"{self.circuit} [{self.phase}]: {self.error}: {self.message}"


class ParallelRunError(RuntimeError):
    """One or more circuit jobs failed.

    Raised only after the whole sweep has been driven to completion:
    ``results`` holds every circuit that *did* finish (in submission
    order), ``failures`` one :class:`JobFailure` per lost circuit, so a
    checkpointed run can be resumed instead of redone.
    """

    def __init__(
        self,
        failures: Sequence[JobFailure],
        results: Sequence[CircuitJobResult],
    ) -> None:
        self.failures = list(failures)
        self.results = list(results)
        names = ", ".join(sorted({f.circuit for f in self.failures}))
        super().__init__(
            f"{len(self.failures)} circuit job(s) failed: "
            f"{names} ({len(self.results)} completed result(s) salvaged)"
        )

    def details(self) -> str:
        """Full per-failure report including worker tracebacks."""
        parts = [str(self)]
        for failure in self.failures:
            parts.append(failure.describe())
            if failure.traceback:
                parts.append(failure.traceback.rstrip())
        return "\n".join(parts)


def _inject_chaos(job: CircuitJob, in_worker: bool) -> None:
    """Test-only fault injection, keyed off environment variables.

    Environment variables cross process boundaries under every pool start
    method, unlike monkeypatching, so the failure-path tests use these:

    * ``REPRO_INJECT_FAIL=<name>`` -- raise ``RuntimeError`` in that job;
    * ``REPRO_INJECT_SLEEP=<name>:<seconds>`` -- stall the job (drives
      the timeout path);
    * ``REPRO_INJECT_EXIT=<name>`` -- kill the worker process outright
      (pool workers only; simulates an OOM kill -> ``BrokenProcessPool``);
    * ``REPRO_INJECT_EXIT_SIGKILL=<name>`` -- SIGKILL the worker process
      (pool workers only).  Unlike ``os._exit``, SIGKILL gives the process
      zero chance to flush or clean up -- the hardest crash the service
      supervisor must recover from.

    ``<name>`` is the job's circuit.
    """
    spec = os.environ.get("REPRO_INJECT_SLEEP")
    if spec:
        name, _, seconds = spec.partition(":")
        if name == job.circuit:
            time.sleep(float(seconds or 60.0))
    spec = os.environ.get("REPRO_INJECT_EXIT")
    if spec and in_worker and spec == job.circuit:
        os._exit(13)
    if in_worker and os.environ.get("REPRO_INJECT_EXIT_SIGKILL") == job.circuit:
        os.kill(os.getpid(), signal.SIGKILL)
    if os.environ.get("REPRO_INJECT_FAIL") == job.circuit:
        raise RuntimeError(f"injected failure ({job.key})")


def _run_job_guarded(
    job: CircuitJob, engine: Engine, in_worker: bool
) -> CircuitJobResult | JobFailure:
    """Run a job, converting any exception into a :class:`JobFailure`."""
    from ..experiments.tables import run_basic_circuit, run_table6_circuit

    phase = "inject"
    started = time.perf_counter()
    try:
        _inject_chaos(job, in_worker)
        result = CircuitJobResult(circuit=job.circuit)
        phase = "session"
        session = engine.session(job.circuit)
        if job.run_basic:
            phase = "basic"
            result.basic = run_basic_circuit(
                session, job.scale, job.heuristics or None
            )
        if job.run_table6:
            phase = "table6"
            result.table6 = run_table6_circuit(session, job.scale)
        result.wall_seconds = time.perf_counter() - started
    except Exception as exc:
        return JobFailure.from_exception(job.key, phase, exc)
    return result


def _effective_budget(
    budget: Budget | None, timeout: float | None
) -> Budget | None:
    """The budget one job runs under: the run budget (its
    *remaining* allowance) tightened to the per-job ``timeout``.

    ``None`` when neither is set -- the job runs unbudgeted, exactly
    as before budgets existed.  The returned budget is fresh and
    unstarted; the executing side calls ``start()`` so the deadline
    anchors on its own clock (monotonic clocks are not portable across
    processes).
    """
    if budget is not None and budget.is_null:
        budget = None
    if budget is None and timeout is None:
        return None
    base = Budget() if budget is None else budget.forked()
    return base.limited(timeout)


def _pool_entry(
    job: CircuitJob,
    budget: Budget | None = None,
    timeout: float | None = None,
    artifact_cache: str | None = None,
    heartbeat_dir: str | None = None,
    heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
) -> CircuitJobResult | JobFailure:
    """Guarded pool-worker entry point: never raises, ships stats back.

    A budget (run budget and/or per-job ``timeout``) is applied
    *cooperatively*: the worker's engine carries it into every session,
    so deadline expiry degrades the job into a partial result that is
    still shipped back and checkpointed -- unlike the parent's hard pool
    timeout, which discards the job.  While a budget is active, SIGTERM
    cancels it instead of killing the worker, so an orderly shutdown
    (e.g. a cluster preemption that signals before SIGKILL) also
    salvages the partial result.

    ``artifact_cache`` is the parent engine's persistent artifact store
    directory, forwarded in the job payload so every worker opens the
    *same* store, covering ``--artifact-cache`` runs as well as the
    environment.  ``None`` still honours ``REPRO_ARTIFACT_CACHE`` via the
    fresh engine.

    With ``heartbeat_dir`` set, a :class:`HeartbeatWriter` thread proves
    this worker's liveness under the job's key for the whole job body,
    so the parent's watchdog can tell a stuck worker from a slow one.
    """
    engine = Engine(
        artifacts=ArtifactStore(artifact_cache) if artifact_cache else None
    )
    effective = _effective_budget(budget, timeout)
    previous_handler = None
    if effective is not None:
        effective.start()
        engine.budget = effective
        try:
            previous_handler = signal.signal(
                signal.SIGTERM, lambda _sig, _frame: effective.cancel()
            )
        except (ValueError, OSError):  # non-main thread / unsupported platform
            previous_handler = None
    heartbeat = (
        HeartbeatWriter(heartbeat_path(heartbeat_dir, job.key), heartbeat_interval)
        if heartbeat_dir
        else nullcontext()
    )
    try:
        with heartbeat:
            outcome = _run_job_guarded(job, engine, in_worker=True)
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
    if not isinstance(outcome, JobFailure):
        outcome.stats = engine.stats
    return outcome


#: How often a pool worker checks that the process that started it is
#: still alive (seconds).
ORPHAN_POLL_SECONDS = 1.0


def _exit_when_orphaned(parent: int) -> None:
    while os.getppid() == parent:
        time.sleep(ORPHAN_POLL_SECONDS)
    os._exit(1)


def _init_pool_worker() -> None:
    # Workers must not read or grow the module-level one-shot simulator
    # cache (fork inherits the parent's populated cache).
    from ..sim.faultsim import mark_pool_worker

    mark_pool_worker()
    # A SIGKILLed parent cannot tear its pool down, and its workers would
    # wait on their call queue forever: exit once re-parented.
    threading.Thread(
        target=_exit_when_orphaned,
        args=(os.getppid(),),
        name="orphan-watch",
        daemon=True,
    ).start()


class ParallelRunner:
    """Fans :class:`CircuitJob` lists out over a process pool, running
    each pending job exactly once (see the module docstring).

    Parameters
    ----------
    jobs:
        Worker count; ``None`` means ``os.cpu_count()``.  ``1`` runs
        everything in-process on ``engine``.
    engine:
        The parent engine.  In-process jobs run directly on it; pool
        workers build their own and their stats are merged back into it.
    heartbeat_dir:
        Directory where pool workers write per-job heartbeat files.
        Enables the watchdog: a job that started beating and then went
        silent for ``stale_after`` seconds is declared *stuck* and the
        pool is torn down.  ``None`` (default) disables heartbeats.
    heartbeat_interval / stale_after:
        Beat period and silence threshold in seconds (defaults
        :data:`~repro.parallel.heartbeat.DEFAULT_HEARTBEAT_INTERVAL` /
        :data:`~repro.parallel.heartbeat.DEFAULT_STALE_AFTER`).
    timeout:
        Optional per-job wall-clock budget in seconds.  Enforced
        *cooperatively* first: each job runs under a
        :class:`~repro.robustness.Budget` whose deadline is ``timeout``,
        so an overrunning circuit degrades into a partial result
        (aborted faults reported) that is still returned and
        checkpointed -- on the pool path *and* in-process.  The pool
        additionally keeps a hard backstop: when no job completes for
        ``timeout * 1.25 + 1`` seconds (grace for jobs that salvage
        close to the deadline), every outstanding job fails with phase
        ``timeout`` and its result is discarded.  The backstop catches
        non-cooperative stalls (a worker stuck in a syscall or a C
        kernel) that the cooperative deadline cannot interrupt.
    budget:
        Optional run-wide :class:`~repro.robustness.Budget`.  Every job
        receives its *remaining* allowance (combined with ``timeout``
        via ``Budget.limited``), so node/attempt caps apply inside
        workers and a run deadline bounds the whole sweep.
    """

    def __init__(
        self,
        jobs: int | None = None,
        engine: Engine | None = None,
        timeout: float | None = None,
        budget: Budget | None = None,
        heartbeat_dir: "str | Path | None" = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        stale_after: float | None = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.engine = engine if engine is not None else Engine()
        self.heartbeat_dir = str(heartbeat_dir) if heartbeat_dir else None
        if heartbeat_interval <= 0:
            raise ValueError(
                f"heartbeat_interval must be > 0, got {heartbeat_interval}"
            )
        self.heartbeat_interval = float(heartbeat_interval)
        if stale_after is not None and stale_after <= 0:
            raise ValueError(f"stale_after must be > 0, got {stale_after}")
        self.stale_after = (
            float(stale_after) if stale_after is not None else DEFAULT_STALE_AFTER
        )
        if timeout is not None and timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.timeout = timeout
        if budget is None:
            budget = self.engine.budget
        self.budget = budget if budget is None or not budget.is_null else None
        # Pool workers receive the parent store's directory in the job
        # payload (env inheritance alone would miss --artifact-cache).
        self.artifact_cache = (
            str(self.engine.artifacts.directory)
            if self.engine.artifacts is not None
            else None
        )

    def run(
        self,
        jobs: Iterable[CircuitJob],
        checkpoint: "RunCheckpoint | None" = None,
    ) -> list[CircuitJobResult]:
        """Execute every job once; results in submission (key) order.

        With ``checkpoint``, finished results are persisted as they
        complete and jobs whose matching checkpoint already exists are
        skipped (their stored result is returned in place; its stats are
        *not* re-merged -- that work happened in a previous run).  When
        any job failed, raises :class:`ParallelRunError` -- carrying all
        completed results -- after every other job has finished.
        """
        job_list: Sequence[CircuitJob] = list(jobs)
        results: dict[str, CircuitJobResult] = {}
        failures: list[JobFailure] = []
        pending: list[CircuitJob] = []
        if self.budget is not None:
            self.budget.start()
        if checkpoint is not None and checkpoint.stats is None:
            checkpoint.stats = self.engine.stats
        for job in job_list:
            cached = checkpoint.load(job) if checkpoint is not None else None
            if cached is not None:
                results[job.key] = cached
                self.engine.stats.count("parallel.resumed")
                self._journal_record(job, resumed=True)
            else:
                pending.append(job)
        if pending:
            self.engine.stats.count("parallel.jobs", len(pending))
            if self.jobs == 1 or len(pending) < 2:
                for job in pending:
                    outcome = self._run_in_process(job)
                    self._record(job, outcome, results, failures, checkpoint)
            else:
                self._run_pool(pending, results, failures, checkpoint)
        ordered = [results[job.key] for job in job_list if job.key in results]
        if failures:
            self.engine.stats.count("parallel.failures", len(failures))
            raise ParallelRunError(failures, ordered)
        return ordered

    # -- shared bookkeeping --------------------------------------------

    def _journal_record(self, job: CircuitJob, **extra) -> None:
        """Append a per-job completion record to the engine (when it keeps
        one; see ``Engine.job_records``) for run-journal bookkeeping."""
        records = getattr(self.engine, "job_records", None)
        if records is not None:
            records.append({"key": job.key, "kind": "circuit", **extra})

    def _record(
        self,
        job: CircuitJob,
        outcome: CircuitJobResult | JobFailure,
        results: dict[str, CircuitJobResult],
        failures: list[JobFailure],
        checkpoint: "RunCheckpoint | None",
    ) -> None:
        if isinstance(outcome, JobFailure):
            failures.append(outcome)
            return
        if outcome.stats is not None:
            self.engine.stats.merge(outcome.stats)
        results[outcome.key] = outcome
        self._journal_record(job, wall_seconds=round(outcome.wall_seconds, 6))
        if checkpoint is not None:
            checkpoint.save(outcome, job)
            self.engine.stats.count("parallel.checkpointed")

    def _run_in_process(self, job: CircuitJob) -> CircuitJobResult | JobFailure:
        """One guarded run on the caller's engine.

        The per-job cooperative budget applies here too (installed on
        the engine for the duration of the job), so ``--timeout`` and
        run budgets work at ``--jobs 1`` -- degradation instead of the
        pool path's preemption.
        """
        effective = _effective_budget(self.budget, self.timeout)
        if effective is None:
            return _run_job_guarded(job, self.engine, in_worker=False)
        previous = self.engine.budget
        self.engine.budget = effective.start()
        try:
            return _run_job_guarded(job, self.engine, in_worker=False)
        finally:
            self.engine.budget = previous

    # -- pool path -----------------------------------------------------

    @staticmethod
    def _terminate_workers(pool: ProcessPoolExecutor) -> None:
        """Kill the workers of a pool that is being torn down.

        Abandoning the pool (``shutdown(wait=False)``) is not enough: the
        interpreter's exit handler still joins the pool machinery, so a
        worker stalled in a syscall would keep the *parent* alive long
        after the run reported its failure.  SIGTERM first -- a worker
        that can still cooperate cancels its budget and dies cleanly --
        then SIGKILL for anything that cannot be reasoned with.
        """
        processes = list((getattr(pool, "_processes", None) or {}).values())
        for process in processes:
            process.terminate()
        grace = time.monotonic() + 2.0
        for process in processes:
            process.join(max(0.0, grace - time.monotonic()))
        for process in processes:
            if process.is_alive():
                process.kill()

    def _teardown_failure(
        self, job: CircuitJob, cause: str, stuck: set[str]
    ) -> JobFailure:
        """The failure of a job left unfinished by a pool teardown."""
        if cause == "timeout":
            self.engine.stats.count("parallel.timeouts")
            return JobFailure(
                job.key, "timeout", "TimeoutError", f"no completion within {self.timeout}s"
            )
        if job.key in stuck:
            self.engine.stats.count("parallel.stuck")
            return JobFailure(
                job.key, "stuck", "TimeoutError", f"no heartbeat within {self.stale_after}s"
            )
        if cause == "pool":
            return JobFailure(
                job.key, "pool", "BrokenProcessPool", "a pool worker died mid-run"
            )
        return JobFailure(
            job.key, "pool", "CancelledError",
            f"cancelled by the teardown for stuck {', '.join(sorted(stuck))}",
        )

    def _run_pool(
        self,
        jobs: Sequence[CircuitJob],
        results: dict[str, CircuitJobResult],
        failures: list[JobFailure],
        checkpoint: "RunCheckpoint | None",
    ) -> None:
        """One pool pass over ``jobs``.

        Completed results are recorded (and checkpointed) as they
        arrive, in completion order.  A teardown (hard backstop, stuck
        worker, broken pool) terminates the workers and fails every
        unfinished job, with the cause as its phase.
        """
        # The hard wait backstop leaves the cooperative deadline headroom
        # to salvage a partial result: a worker that trips its budget at
        # ~timeout still needs to finish the in-flight seam and ship the
        # result back before the parent gives up on it.
        wait_timeout = (
            self.timeout * 1.25 + 1.0 if self.timeout is not None else None
        )
        watchdog = (
            Watchdog(Path(self.heartbeat_dir), self.stale_after)
            if self.heartbeat_dir
            else None
        )
        # With a watchdog, wake often enough to read heartbeats between
        # completions; the hard backstop then accumulates across slices
        # via `last_progress` instead of spanning one long wait().
        if watchdog is None:
            slice_timeout = wait_timeout
        else:
            slice_timeout = max(self.stale_after / 2.0, 0.05)
            if wait_timeout is not None:
                slice_timeout = min(slice_timeout, wait_timeout)
            # A resumed or supervisor-retried run over the same directory
            # left stale heartbeat files; the watchdog would read their
            # old mtimes and declare a job stuck while it still waits in
            # the pool backlog.
            for job in jobs:
                try:
                    heartbeat_path(self.heartbeat_dir, job.key).unlink(
                        missing_ok=True
                    )
                except OSError:
                    pass
        pool = ProcessPoolExecutor(
            max_workers=min(self.jobs, len(jobs)), initializer=_init_pool_worker
        )
        cause: str | None = None
        stuck: set[str] = set()
        clean = False
        try:
            future_map = {
                pool.submit(
                    _pool_entry,
                    job,
                    self.budget.forked() if self.budget is not None else None,
                    self.timeout,
                    self.artifact_cache,
                    self.heartbeat_dir,
                    self.heartbeat_interval,
                ): job
                for job in jobs
            }
            remaining = set(future_map)
            last_progress = time.monotonic()
            while remaining and cause is None:
                done, _ = wait(
                    remaining, timeout=slice_timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    # Nothing finished this slice: tear down when the
                    # completion-free window exhausted the hard backstop,
                    # or when a started job's heartbeat went silent.
                    if wait_timeout is not None and (
                        time.monotonic() - last_progress >= wait_timeout - 0.05
                    ):
                        cause = "timeout"
                    elif watchdog is not None:
                        _, silent = watchdog.classify(
                            [future_map[f].key for f in remaining], time.time()
                        )
                        if silent:
                            cause, stuck = "stuck", set(silent)
                    continue
                last_progress = time.monotonic()
                for future in done:
                    job = future_map[future]
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        cause = "pool"
                        continue
                    except Exception as exc:  # e.g. unpicklable result
                        outcome = JobFailure.from_exception(job.key, "pool", exc)
                    remaining.discard(future)
                    self._record(job, outcome, results, failures, checkpoint)
            clean = cause is None
        finally:
            # A teardown cause, or an exception leaving the loop (the
            # daemon's ServiceShutdown on SIGTERM), kills the workers:
            # waiting would block on a stuck or dead worker, or on
            # in-flight circuits nobody will collect.
            if not clean:
                self._terminate_workers(pool)
            pool.shutdown(wait=clean, cancel_futures=True)
        for future, job in future_map.items():
            if future in remaining:
                failures.append(self._teardown_failure(job, cause, stuck))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ParallelRunner(jobs={self.jobs}, timeout={self.timeout})"
