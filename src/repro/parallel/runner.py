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
* retries, timeouts, chaos injection and checkpoints all operate at
  circuit granularity, addressed by the job's ``key`` (its circuit);
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
:class:`JobFailure` (circuit, phase, traceback).  The runner applies a
:class:`~repro.robustness.RetryPolicy` (``max_retries`` extra attempts
per job with exponential backoff, jitter and a delay cap -- immediate
hot-loop resubmission is gone; waits are recorded under the
``parallel.retry_wait_seconds`` timer), treats a completion-free window
longer than ``timeout`` seconds as a timeout of every outstanding job,
and falls back to in-process execution when the pool machinery itself
breaks (``BrokenProcessPool`` -- e.g. a worker OOM-killed or SIGKILLed
mid-job).  Only after every retry is exhausted does it raise a single
aggregated :class:`ParallelRunError` carrying all salvaged results.
Retries, timeouts, fallbacks and failures are recorded on the parent
engine's stats under ``parallel.*`` counters.

With ``heartbeat_dir`` set, every pool worker additionally proves
liveness through a per-job heartbeat file
(:class:`~repro.parallel.heartbeat.HeartbeatWriter`), and a
:class:`~repro.parallel.heartbeat.Watchdog` distinguishes *stuck*
workers (started beating, then silent past ``stale_after``) from merely
slow ones: stuck jobs are killed and retried (``phase="stuck"``,
``parallel.stuck`` counter) while healthy in-flight neighbours are
re-queued without consuming an attempt.  Crashed workers keep their own
signature (``BrokenProcessPool``), so the supervision layer above can
tell the three failure modes apart.

Passing a :class:`~repro.parallel.checkpoint.RunCheckpoint` to
:meth:`ParallelRunner.run` additionally persists every finished result
as it completes (``<dir>/<circuit>.json``), and skips jobs whose
matching checkpoint already exists -- the resume path behind
``repro-pdf tables --checkpoint-dir D --resume``.
"""

from __future__ import annotations

import os
import signal
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
from ..robustness import Budget, RetryPolicy
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
    "run_circuit_job",
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
    """Structured report of one failed job attempt.

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
    attempt: int = 0

    @classmethod
    def from_exception(
        cls, circuit: str, phase: str, exc: BaseException, attempt: int = 0
    ) -> "JobFailure":
        return cls(
            circuit=circuit,
            phase=phase,
            error=type(exc).__name__,
            message=str(exc),
            traceback="".join(_tb.format_exception(exc)),
            attempt=attempt,
        )

    def describe(self) -> str:
        return (
            f"{self.circuit} [{self.phase}, attempt {self.attempt}]: "
            f"{self.error}: {self.message}"
        )


class ParallelRunError(RuntimeError):
    """One or more circuit jobs failed after exhausting their retries.

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
            f"{len(self.failures)} circuit job(s) failed after retries: "
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


def run_circuit_job(job: CircuitJob, engine: Engine) -> CircuitJobResult:
    """Run one circuit's work on ``engine`` (in-process path)."""
    from ..experiments.tables import run_basic_circuit, run_table6_circuit

    started = time.perf_counter()
    session = engine.session(job.circuit)
    basic = None
    if job.run_basic:
        basic = run_basic_circuit(session, job.scale, job.heuristics or None)
    table6 = None
    if job.run_table6:
        table6 = run_table6_circuit(session, job.scale)
    return CircuitJobResult(
        circuit=job.circuit,
        basic=basic,
        table6=table6,
        wall_seconds=time.perf_counter() - started,
    )


def _inject_chaos(job: CircuitJob, attempt: int, in_worker: bool) -> None:
    """Test-only fault injection, keyed off environment variables.

    Environment variables cross process boundaries under every pool start
    method, unlike monkeypatching, so the failure-path tests use these:

    * ``REPRO_INJECT_FAIL=<name>[:<n>]`` -- raise ``RuntimeError`` for
      the first ``n`` attempts of that job (default: every attempt);
    * ``REPRO_INJECT_SLEEP=<name>:<seconds>`` -- stall the job (drives
      the timeout path);
    * ``REPRO_INJECT_EXIT=<name>`` -- kill the worker process outright
      (pool workers only; simulates an OOM kill -> ``BrokenProcessPool``);
    * ``REPRO_INJECT_EXIT_SIGKILL=<name>[:<n>]`` -- SIGKILL the worker
      process for the first ``n`` attempts (default: every attempt; pool
      workers only).  Unlike ``os._exit``, SIGKILL gives the process
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
    spec = os.environ.get("REPRO_INJECT_EXIT_SIGKILL")
    if spec and in_worker:
        name, _, count = spec.partition(":")
        if name == job.circuit and attempt < (int(count) if count else 1 << 30):
            os.kill(os.getpid(), signal.SIGKILL)
    spec = os.environ.get("REPRO_INJECT_FAIL")
    if spec:
        name, _, count = spec.partition(":")
        if name == job.circuit and attempt < (int(count) if count else 1 << 30):
            raise RuntimeError(
                f"injected failure ({job.key}, attempt {attempt})"
            )


def _run_job_guarded(
    job: CircuitJob, engine: Engine, attempt: int, in_worker: bool
) -> CircuitJobResult | JobFailure:
    """Run a job, converting any exception into a :class:`JobFailure`."""
    from ..experiments.tables import run_basic_circuit, run_table6_circuit

    phase = "inject"
    started = time.perf_counter()
    try:
        _inject_chaos(job, attempt, in_worker)
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
        return JobFailure.from_exception(job.key, phase, exc, attempt)
    return result


def _effective_budget(
    budget: Budget | None, timeout: float | None
) -> Budget | None:
    """The budget one job attempt runs under: the run budget (its
    *remaining* allowance) tightened to the per-job ``timeout``.

    ``None`` when neither is set -- the attempt runs unbudgeted, exactly
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
    attempt: int,
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
        HeartbeatWriter(
            heartbeat_path(heartbeat_dir, job.key), heartbeat_interval
        )
        if heartbeat_dir
        else nullcontext()
    )
    try:
        with heartbeat:
            outcome = _run_job_guarded(job, engine, attempt, in_worker=True)
    finally:
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)
    if not isinstance(outcome, JobFailure):
        outcome.stats = engine.stats
    return outcome


def _init_pool_worker() -> None:
    # Workers must not read or grow the module-level one-shot simulator
    # cache (fork inherits the parent's populated cache).
    from ..sim.faultsim import mark_pool_worker

    mark_pool_worker()


class ParallelRunner:
    """Fans :class:`CircuitJob` lists out over a process pool.

    Parameters
    ----------
    jobs:
        Worker count; ``None`` means ``os.cpu_count()``.  ``1`` runs
        everything in-process on ``engine``.
    engine:
        The parent engine.  In-process jobs run directly on it; pool
        workers build their own and their stats are merged back into it.
    max_retries:
        Extra attempts per job after its first failure (default 1).
        Shorthand for ``retry_policy=RetryPolicy(max_retries=...)``.
    retry_policy:
        Full :class:`~repro.robustness.RetryPolicy` (backoff curve,
        jitter, cap) governing the waits between attempts.  When given
        it takes precedence over ``max_retries``.  Waits land on the
        ``parallel.retry_wait_seconds`` stats timer.
    heartbeat_dir:
        Directory where pool workers write per-job heartbeat files.
        Enables the watchdog: a job that started beating and then went
        silent for ``stale_after`` seconds is declared *stuck*, its
        workers are terminated, and it is retried (consuming an
        attempt); healthy in-flight neighbours are re-queued without
        consuming one.  ``None`` (default) disables heartbeats -- the
        pre-supervision behaviour.
    heartbeat_interval / stale_after:
        Beat period and silence threshold in seconds (defaults
        :data:`~repro.parallel.heartbeat.DEFAULT_HEARTBEAT_INTERVAL` /
        :data:`~repro.parallel.heartbeat.DEFAULT_STALE_AFTER`).
    timeout:
        Optional per-job wall-clock budget in seconds.  Enforced
        *cooperatively* first: each job attempt runs under a
        :class:`~repro.robustness.Budget` whose deadline is ``timeout``,
        so an overrunning circuit degrades into a partial result
        (aborted faults reported) that is still returned and
        checkpointed -- on the pool path *and* in-process.  The pool
        additionally keeps a hard backstop: when no job completes for
        ``timeout * 1.25 + 1`` seconds (grace for jobs that salvage
        close to the deadline), every outstanding job is marked timed
        out and its result discarded.  The backstop catches
        non-cooperative stalls (a worker stuck in a syscall or a C
        kernel) that the cooperative deadline cannot interrupt.
    budget:
        Optional run-wide :class:`~repro.robustness.Budget`.  Every job
        attempt receives its *remaining* allowance (combined with
        ``timeout`` via ``Budget.limited``), so node/attempt caps apply
        inside workers and a run deadline bounds the whole sweep.
    """

    def __init__(
        self,
        jobs: int | None = None,
        engine: Engine | None = None,
        max_retries: int = 1,
        timeout: float | None = None,
        budget: Budget | None = None,
        retry_policy: RetryPolicy | None = None,
        heartbeat_dir: "str | Path | None" = None,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        stale_after: float | None = None,
    ) -> None:
        self.jobs = resolve_jobs(jobs)
        self.engine = engine if engine is not None else Engine()
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        self.retry_policy = (
            retry_policy
            if retry_policy is not None
            else RetryPolicy(max_retries=int(max_retries))
        )
        self.max_retries = self.retry_policy.max_retries
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
        self._retry_counts: dict[str, int] = {}
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
        """Execute every job; results in submission (key) order.

        With ``checkpoint``, finished results are persisted as they
        complete and jobs whose matching checkpoint already exists are
        skipped (their stored result is returned in place; its stats are
        *not* re-merged -- that work happened in a previous run).  Raises
        :class:`ParallelRunError` -- carrying all completed results --
        only after every failed job has exhausted its retries.
        """
        job_list: Sequence[CircuitJob] = list(jobs)
        results: dict[str, CircuitJobResult] = {}
        failures: list[JobFailure] = []
        pending: list[CircuitJob] = []
        self._retry_counts = {}
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
                self._run_serial(pending, results, failures, checkpoint)
            else:
                self._run_pool(pending, results, failures, checkpoint)
        ordered = [
            results[job.key]
            for job in job_list
            if job.key in results
        ]
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
        result: CircuitJobResult,
        results: dict[str, CircuitJobResult],
        checkpoint: "RunCheckpoint | None",
    ) -> None:
        if result.stats is not None:
            self.engine.stats.merge(result.stats)
        results[result.key] = result
        extra: dict = {"wall_seconds": round(result.wall_seconds, 6)}
        retries = self._retry_counts.get(job.key, 0)
        if retries:
            extra["retries"] = retries
        self._journal_record(job, **extra)
        if checkpoint is not None:
            checkpoint.save(result, job)
            self.engine.stats.count("parallel.checkpointed")

    def _count_retry(self, job: CircuitJob) -> None:
        self.engine.stats.count("parallel.retries")
        self._retry_counts[job.key] = self._retry_counts.get(job.key, 0) + 1

    def _backoff(self, delay: float) -> None:
        """Wait ``delay`` seconds before the next attempt, on the record.

        Every wait lands on the ``parallel.retry_wait_seconds`` timer so
        a run's journal entry proves retries were *paced* (bounded
        backoff) rather than hot-looped.
        """
        if delay > 0:
            self.engine.stats.add_time("parallel.retry_wait_seconds", delay)
            time.sleep(delay)

    def _attempt_serial(
        self, job: CircuitJob, failures: list[JobFailure]
    ) -> CircuitJobResult | None:
        """In-process execution with the retry policy applied.

        The per-job cooperative budget applies here too (installed on
        the engine for the duration of the attempt), so ``--timeout``
        and run budgets work at ``--jobs 1`` -- degradation instead of
        the pool path's preemption.
        """
        last: JobFailure | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                self._count_retry(job)
                self._backoff(self.retry_policy.delay(attempt, job.key))
            effective = _effective_budget(self.budget, self.timeout)
            if effective is None:
                outcome = _run_job_guarded(
                    job, self.engine, attempt, in_worker=False
                )
            else:
                previous = self.engine.budget
                self.engine.budget = effective.start()
                try:
                    outcome = _run_job_guarded(
                        job, self.engine, attempt, in_worker=False
                    )
                finally:
                    self.engine.budget = previous
            if not isinstance(outcome, JobFailure):
                return outcome
            last = outcome
        assert last is not None
        failures.append(last)
        return None

    def _run_serial(
        self,
        jobs: Sequence[CircuitJob],
        results: dict[str, CircuitJobResult],
        failures: list[JobFailure],
        checkpoint: "RunCheckpoint | None",
    ) -> None:
        for job in jobs:
            outcome = self._attempt_serial(job, failures)
            if outcome is not None:
                self._record(job, outcome, results, checkpoint)

    # -- pool path -----------------------------------------------------

    def _run_pool(
        self,
        jobs: Sequence[CircuitJob],
        results: dict[str, CircuitJobResult],
        failures: list[JobFailure],
        checkpoint: "RunCheckpoint | None",
    ) -> None:
        queue: list[tuple[CircuitJob, int]] = [(job, 0) for job in jobs]
        while queue:
            failed, timed_out, unfinished, broken = self._pool_round(
                queue, results, checkpoint
            )
            queue = []
            retried: list[tuple[CircuitJob, int]] = []
            for job, attempt, failure in failed:
                if attempt < self.max_retries:
                    self._count_retry(job)
                    retried.append((job, attempt + 1))
                else:
                    failures.append(failure)
            for job, attempt, phase in timed_out:
                if phase == "stuck":
                    self.engine.stats.count("parallel.stuck")
                    message = (
                        f"no heartbeat within {self.stale_after}s"
                    )
                else:
                    self.engine.stats.count("parallel.timeouts")
                    message = f"no completion within {self.timeout}s"
                if attempt < self.max_retries:
                    self._count_retry(job)
                    retried.append((job, attempt + 1))
                else:
                    failures.append(
                        JobFailure(
                            circuit=job.key,
                            phase=phase,
                            error="TimeoutError",
                            message=message,
                            attempt=attempt,
                        )
                    )
            if broken:
                # The pool machinery itself died (a worker was killed
                # mid-job); a new pool over the same jobs would face the
                # same hazard, so finish everything left in-process.
                self.engine.stats.count("parallel.pool_broken")
                fallback = unfinished + retried
                self.engine.stats.count("parallel.fallback", len(fallback))
                for job, _attempt in unfinished:
                    # With heartbeats on, a beat file proves this job had
                    # started when the pool died: its in-process rerun is
                    # a genuine second attempt, recorded as a retry so
                    # the journal shows the crash was recovered.  Jobs
                    # still in the backlog (no beat) never ran and are
                    # not charged.
                    if self.heartbeat_dir and heartbeat_path(
                        self.heartbeat_dir, job.key
                    ).exists():
                        self._count_retry(job)
                for job, _attempt in fallback:
                    outcome = self._attempt_serial(job, failures)
                    if outcome is not None:
                        self._record(job, outcome, results, checkpoint)
                return
            if retried:
                # One paced wait covers the whole retry batch: the
                # longest backoff among them (per-job sleeps would
                # serialize an otherwise-parallel round).
                self._backoff(
                    max(
                        self.retry_policy.delay(attempt, job.key)
                        for job, attempt in retried
                    )
                )
            # A stuck neighbour forced the pool down mid-round; healthy
            # in-flight jobs rerun at their *current* attempt (no retry
            # consumed -- they did nothing wrong).
            queue = unfinished + retried

    @staticmethod
    def _terminate_workers(pool: ProcessPoolExecutor) -> None:
        """Kill the workers of a pool the backstop declared stuck.

        Abandoning the pool (``shutdown(wait=False)``) is not enough: the
        interpreter's exit handler still joins the pool machinery, so a
        worker stalled in a syscall would keep the *parent* alive long
        after the run reported its timeout.  SIGTERM first -- a worker
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

    def _pool_round(
        self,
        queue: Sequence[tuple[CircuitJob, int]],
        results: dict[str, CircuitJobResult],
        checkpoint: "RunCheckpoint | None",
    ) -> tuple[
        list[tuple[CircuitJob, int, JobFailure]],
        list[tuple[CircuitJob, int, str]],
        list[tuple[CircuitJob, int]],
        bool,
    ]:
        """One pool pass over ``queue``; completed results are recorded
        (and checkpointed) eagerly, in completion order.

        ``timed_out`` entries carry the cause as their third element:
        ``"timeout"`` (the completion-free hard backstop tripped; every
        outstanding job is charged) or ``"stuck"`` (the watchdog saw that
        specific job's heartbeat go silent; only it is charged, healthy
        in-flight neighbours come back in ``unfinished``).
        """
        failed: list[tuple[CircuitJob, int, JobFailure]] = []
        timed_out: list[tuple[CircuitJob, int, str]] = []
        unfinished: list[tuple[CircuitJob, int]] = []
        broken = False
        workers = min(self.jobs, len(queue))
        pool = ProcessPoolExecutor(
            max_workers=workers, initializer=_init_pool_worker
        )
        clean = True
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
        if self.heartbeat_dir:
            # A retried (or re-queued) job's previous attempt left a stale
            # heartbeat file; without clearing it the watchdog would read
            # the old mtime and declare the fresh attempt stuck while it
            # is still queued in the pool backlog.
            for job, _attempt in queue:
                try:
                    heartbeat_path(self.heartbeat_dir, job.key).unlink(
                        missing_ok=True
                    )
                except OSError:
                    pass
        try:
            future_map = {
                pool.submit(
                    _pool_entry,
                    job,
                    attempt,
                    self.budget.forked() if self.budget is not None else None,
                    self.timeout,
                    self.artifact_cache,
                    self.heartbeat_dir,
                    self.heartbeat_interval,
                ): (job, attempt)
                for job, attempt in queue
            }
            # `remaining` = futures not yet handed off to an outcome list;
            # everything still in it when the pool breaks must be re-run.
            remaining = set(future_map)
            last_progress = time.monotonic()
            while remaining and not broken:
                done, _ = wait(
                    remaining, timeout=slice_timeout, return_when=FIRST_COMPLETED
                )
                if not done:
                    # Nothing finished this slice.  Charge everything if
                    # the completion-free window exhausted the hard
                    # backstop; otherwise consult the watchdog and only
                    # kill the pool when a started job went silent.
                    hard = wait_timeout is not None and (
                        time.monotonic() - last_progress >= wait_timeout - 0.05
                    )
                    stuck_keys: set[str] = set()
                    if not hard and watchdog is not None:
                        _, stuck = watchdog.classify(
                            [future_map[f][0].key for f in remaining],
                            time.time(),
                        )
                        stuck_keys = set(stuck)
                    if not hard and not stuck_keys:
                        continue
                    for future in remaining:
                        future.cancel()
                        job, attempt = future_map[future]
                        if hard:
                            timed_out.append((job, attempt, "timeout"))
                        elif job.key in stuck_keys:
                            timed_out.append((job, attempt, "stuck"))
                        else:
                            unfinished.append((job, attempt))
                    remaining = set()
                    clean = False
                    self._terminate_workers(pool)
                    break
                last_progress = time.monotonic()
                for future in done:
                    remaining.discard(future)
                    job, attempt = future_map[future]
                    try:
                        outcome = future.result()
                    except BrokenProcessPool:
                        broken = True
                        unfinished.append((job, attempt))
                        unfinished.extend(future_map[f] for f in remaining)
                        remaining = set()
                        clean = False
                        break
                    except Exception as exc:  # e.g. unpicklable result
                        failed.append(
                            (
                                job,
                                attempt,
                                JobFailure.from_exception(
                                    job.key, "pool", exc, attempt
                                ),
                            )
                        )
                        continue
                    if isinstance(outcome, JobFailure):
                        failed.append((job, attempt, outcome))
                    else:
                        self._record(job, outcome, results, checkpoint)
        finally:
            # After a timeout or pool breakage, waiting would block on a
            # stuck or dead worker; abandon the pool instead.
            pool.shutdown(wait=clean, cancel_futures=True)
        return failed, timed_out, unfinished, broken

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ParallelRunner(jobs={self.jobs}, max_retries={self.max_retries}, "
            f"timeout={self.timeout})"
        )
