"""The ``repro serve`` daemon: lease, supervise, recover.

One :class:`Supervisor` owns one queue directory and drives the job
state machine::

    queued -> leased -> running -> { done, degraded, failed }

* **lease** -- oldest pending job first, claimed by an atomic file move
  (:meth:`~repro.service.queue.JobQueue.lease`);
* **supervise** -- the job runs through :func:`repro.experiments.run_all`
  with the full supervision stack threaded in: circuit-granular
  checkpoints under ``work/<job>/checkpoints`` (always in resume mode,
  so a re-adopted job continues instead of restarting), per-circuit
  heartbeats under ``work/<job>/heartbeats`` with the runner's
  stuck-worker watchdog;
* **retry** -- the supervisor is the only retry owner.  The runner runs
  each circuit once, so a pass with a failed circuit
  (:class:`~repro.parallel.ParallelRunError`) is retried whole, after a
  :class:`~repro.robustness.RetryPolicy` backoff, resuming from whatever
  the failed pass checkpointed.  The job's retry budget is the
  ``max_retries`` of its ``retry`` params (``submit --max-retries``),
  defaulting to the daemon's ``--job-retries``.  When the budget is
  exhausted the job *degrades*: a machine-readable failure record is
  written to ``out/<job>/failure.json``, the job lands in ``done/`` with
  status ``degraded``, and the daemon keeps serving (exit 0) -- failures
  are data, never crashes;
* **recover** -- on start, the WAL (:mod:`repro.service.wal`) proves
  whether another daemon is alive.  A dead owner's leased jobs are
  re-adopted into pending (journaled as ``readopted``) and their next
  run resumes from checkpoints;
* **shut down** -- SIGINT/SIGTERM raise a :class:`ServiceShutdown` at
  the next safe point; the current lease is released back to pending
  (its finished circuits are already checkpointed), a terminal
  ``shutdown`` entry is journaled, and the WAL is marked ``stopped``.

Every lifecycle transition is appended to the queue's service journal
(``<queue>/journal.jsonl``) via :func:`repro.journal.service_entry`;
``done`` events carry ``service.wall_seconds`` so ``repro-pdf journal
report``/``gate`` trend service runs like any other measured run.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

from ..artifacts import ArtifactStore
from ..engine import Engine
from ..journal import append_entry, service_entry
from ..parallel import ParallelRunError
from ..parallel.heartbeat import DEFAULT_HEARTBEAT_INTERVAL, DEFAULT_STALE_AFTER
from ..robustness import Budget, RetryPolicy
from .queue import JobQueue, JobSpec
from .wal import ServiceWAL

__all__ = ["Supervisor", "ServiceShutdown", "QueueBusyError"]

#: The ``params`` keys a ``tables`` job understands: what ``repro-pdf
#: submit`` writes.  A spec already on disk that carries any other key (a
#: retired run option such as ``shards`` or ``service_retries``, a typo)
#: fails with the key named instead of silently running under a
#: configuration it did not ask for.
TABLES_PARAMS = frozenset(
    {
        "artifact_cache",
        "budget",
        "jobs",
        "max_faults",
        "p0_min_faults",
        "quick",
        "retry",
        "scale",
        "timeout",
    }
)


class ServiceShutdown(Exception):
    """Raised by the signal handlers to unwind to the serve loop."""

    def __init__(self, signum: int) -> None:
        self.signum = signum
        super().__init__(f"shutdown requested (signal {signum})")


class QueueBusyError(RuntimeError):
    """Another live daemon already owns the queue (WAL pid is alive)."""


class Supervisor:
    """Runs the serve loop over one :class:`~repro.service.queue.JobQueue`.

    ``drain=True`` exits once the queue is empty (the CI mode); the
    default keeps polling every ``poll_interval`` seconds.
    ``job_retries`` is the default retry budget of a job: whole-job
    re-runs, each resuming from the job's checkpoints.  A job whose
    params carry a ``retry`` spec uses that policy instead.
    """

    def __init__(
        self,
        queue: JobQueue | str | Path,
        *,
        drain: bool = False,
        poll_interval: float = 0.5,
        job_retries: int = 1,
        heartbeat_interval: float = DEFAULT_HEARTBEAT_INTERVAL,
        stale_after: float = DEFAULT_STALE_AFTER,
        artifact_cache: str | None = None,
    ) -> None:
        self.queue = queue if isinstance(queue, JobQueue) else JobQueue(queue)
        if poll_interval <= 0:
            raise ValueError(f"poll_interval must be > 0, got {poll_interval}")
        self.drain = drain
        self.poll_interval = float(poll_interval)
        self.retry_policy = RetryPolicy(max_retries=int(job_retries))
        self.heartbeat_interval = float(heartbeat_interval)
        self.stale_after = float(stale_after)
        self.artifact_cache = artifact_cache
        self.wal = ServiceWAL(self.queue.wal_path)
        self._shutdown: ServiceShutdown | None = None

    # -- bookkeeping ---------------------------------------------------

    def journal(self, event: str, job: str, detail: dict | None = None,
                metrics: dict | None = None) -> None:
        """Append one lifecycle entry; journaling must never kill a job."""
        try:
            append_entry(
                self.queue.journal_path,
                service_entry(event, job, detail=detail, metrics=metrics),
            )
        except OSError:
            pass

    def log(self, job_id: str, message: str) -> None:
        """Per-job log line (``repro logs``) echoed to stderr."""
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        line = f"{stamp} [{job_id}] {message}"
        print(f"serve: {line}", file=sys.stderr)
        try:
            path = self.queue.log_path(job_id)
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        except OSError:
            pass

    # -- signals -------------------------------------------------------

    def _install_signals(self):
        def handler(signum, _frame):
            raise ServiceShutdown(signum)

        previous = {}
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[signum] = signal.signal(signum, handler)
            except (ValueError, OSError):  # non-main thread
                pass
        return previous

    @staticmethod
    def _restore_signals(previous) -> None:
        for signum, old in previous.items():
            try:
                signal.signal(signum, old)
            except (ValueError, OSError):
                pass

    # -- startup / recovery --------------------------------------------

    def adopt(self) -> list[JobSpec]:
        """Singleton check + crash recovery; returns re-adopted jobs."""
        owner = self.wal.owner()
        if owner is not None and owner != os.getpid():
            raise QueueBusyError(
                f"queue {self.queue.root} is owned by live daemon pid {owner}"
            )
        adopted = self.queue.adopt_orphans()
        for job in adopted:
            self.journal(
                "readopted", job.id, detail={"attempts": job.attempts}
            )
            self.log(job.id, "re-adopted from a dead daemon's lease")
        return adopted

    # -- the serve loop ------------------------------------------------

    def serve(self) -> int:
        """Run until shutdown (or until drained with ``drain=True``)."""
        self.queue.ensure_layout()
        self.adopt()
        self.wal.write("starting")
        previous = self._install_signals()
        exit_code = 0
        try:
            while True:
                job = self.queue.lease()
                if job is None:
                    if self.drain:
                        break
                    self.wal.write("idle")
                    time.sleep(self.poll_interval)
                    continue
                self.run_job(job)
        except ServiceShutdown as shutdown:
            self._shutdown = shutdown
            self.journal("shutdown", "daemon", detail={"signal": shutdown.signum})
        except QueueBusyError:
            raise
        finally:
            self._restore_signals(previous)
            self.wal.write("stopped")
        return exit_code

    # -- running one job -----------------------------------------------

    def run_job(self, job: JobSpec) -> str:
        """Drive one leased job to a terminal state; returns the status."""
        self.journal("leased", job.id, detail={"attempts": job.attempts})
        self.wal.write("running", job=job.id)
        self.log(job.id, f"leased ({job.kind}, attempt {job.attempts})")
        started = time.perf_counter()
        failures: list[dict] = []
        try:
            policy = (
                RetryPolicy.from_spec({**self.retry_policy.spec(), **job.params["retry"]})
                if isinstance(job.params.get("retry"), dict)
                else self.retry_policy
            )
            while True:
                try:
                    result = self._run_once(job)
                except ParallelRunError as exc:
                    failures = [
                        {
                            "circuit": f.circuit,
                            "phase": f.phase,
                            "error": f.error,
                            "message": f.message,
                        }
                        for f in exc.failures
                    ]
                    job.attempts += 1
                    if job.attempts > policy.max_retries:
                        return self._degrade(job, failures, started)
                    delay = policy.delay(job.attempts, job.id)
                    self.journal(
                        "retried",
                        job.id,
                        detail={
                            "attempt": job.attempts,
                            "delay_seconds": round(delay, 3),
                            "failures": len(failures),
                        },
                    )
                    self.log(
                        job.id,
                        f"runner failed ({len(failures)} job failure(s)); "
                        f"retry {job.attempts}/{policy.max_retries} "
                        f"in {delay:.2f}s (resuming from checkpoints)",
                    )
                    if delay > 0:
                        time.sleep(delay)
                    continue
                wall = time.perf_counter() - started
                self.queue.finish(job, "done", result=result)
                self.journal(
                    "done",
                    job.id,
                    detail=result,
                    metrics={"service.wall_seconds": round(wall, 6)},
                )
                self.log(job.id, f"done in {wall:.2f}s -> {result.get('out')}")
                return "done"
        except ServiceShutdown:
            # Finished circuits are already checkpointed; hand the job
            # back so the next daemon resumes instead of restarting.
            self.queue.release(job)
            self.journal("released", job.id, detail={"attempts": job.attempts})
            self.log(job.id, "released back to pending (shutdown)")
            raise
        except Exception as exc:  # supervisor bug / unrunnable spec
            record = {
                "error": type(exc).__name__,
                "message": str(exc),
            }
            self.queue.finish(job, "failed", result=record)
            self.journal("failed", job.id, detail=record)
            self.log(job.id, f"failed: {record['error']}: {record['message']}")
            return "failed"

    def _degrade(
        self, job: JobSpec, failures: list[dict], started: float
    ) -> str:
        """Terminal retry exhaustion: failure record, exit-0 semantics."""
        out_dir = self.queue.out_dir(job.id)
        out_dir.mkdir(parents=True, exist_ok=True)
        record = {
            "job": job.id,
            "status": "degraded",
            "attempts": job.attempts,
            "failures": failures,
            "checkpoints": str(self.queue.work_dir(job.id) / "checkpoints"),
        }
        failure_path = out_dir / "failure.json"
        failure_path.write_text(
            json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
        wall = time.perf_counter() - started
        self.queue.finish(
            job, "degraded", result={"failure": str(failure_path)}
        )
        self.journal(
            "degraded",
            job.id,
            detail={"attempts": job.attempts, "failures": len(failures)},
            metrics={"service.wall_seconds": round(wall, 6)},
        )
        self.log(
            job.id,
            f"degraded after {job.attempts} attempt(s): "
            f"{len(failures)} unrecovered failure(s); record at {failure_path}",
        )
        return "degraded"

    def _run_once(self, job: JobSpec) -> dict:
        """One supervised pass of a job; returns the success result record."""
        if job.kind != "tables":
            raise ValueError(f"unknown job kind: {job.kind!r}")
        return self._run_tables(job)

    def _build_engine(self, params: dict) -> Engine:
        cache_dir = params.get("artifact_cache") or self.artifact_cache
        return Engine(
            artifacts=ArtifactStore(cache_dir) if cache_dir else None
        )

    def _run_tables(self, job: JobSpec) -> dict:
        from ..experiments import (
            TABLE3_CIRCUITS,
            TABLE6_CIRCUITS,
            run_all,
        )
        from ..experiments.scale import ExperimentScale, get_scale

        params = job.params
        unknown = sorted(set(params) - TABLES_PARAMS)
        if unknown:
            raise ValueError(
                f"unknown tables job param(s): {', '.join(unknown)}"
            )
        scale = get_scale(params.get("scale", "default"))
        if params.get("max_faults") or params.get("p0_min_faults"):
            scale = ExperimentScale(
                name=scale.name,
                max_faults=params.get("max_faults") or scale.max_faults,
                p0_min_faults=params.get("p0_min_faults") or scale.p0_min_faults,
                max_secondary_attempts=scale.max_secondary_attempts,
                seed=scale.seed,
            )
        quick = bool(params.get("quick"))
        circuits = TABLE3_CIRCUITS[:1] if quick else TABLE3_CIRCUITS
        table6 = TABLE6_CIRCUITS[:1] if quick else TABLE6_CIRCUITS
        budget = (
            Budget.from_spec(params["budget"])
            if isinstance(params.get("budget"), dict)
            else None
        )
        work = self.queue.work_dir(job.id)
        engine = self._build_engine(params)
        results = run_all(
            scale,
            circuits=circuits,
            table6_circuits=table6,
            engine=engine,
            jobs=params.get("jobs"),
            checkpoint_dir=str(work / "checkpoints"),
            resume=True,  # adopted/retried jobs continue, never restart
            timeout=params.get("timeout"),
            budget=budget,
            heartbeat_dir=str(work / "heartbeats"),
            heartbeat_interval=self.heartbeat_interval,
            stale_after=self.stale_after,
        )
        out_dir = self.queue.out_dir(job.id)
        out_dir.mkdir(parents=True, exist_ok=True)
        results_path = out_dir / "results.json"
        results_path.write_text(results.to_json(), encoding="utf-8")
        (out_dir / "tables.txt").write_text(
            results.format_all() + "\n", encoding="utf-8"
        )
        return {"out": str(out_dir), "results": str(results_path)}
