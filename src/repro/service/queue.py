"""Durable file-based job queue for the ``repro serve`` daemon.

No network, no database: a queue is a directory, a job is one JSON file,
and a job's lifecycle state *is* the subdirectory its file lives in --

* ``pending/``  -- submitted, waiting for the daemon (``queued``);
* ``leased/``   -- adopted by a daemon, running or about to
  (``leased``/``running``);
* ``done/``     -- finished: ``status`` inside the file says ``done``
  (full success) or ``degraded`` (retry budget exhausted, partial
  results salvaged per the robustness taxonomy);
* ``failed/``   -- the supervisor itself could not drive the job to a
  terminal result (unexpected exception);
* ``canceled/`` -- withdrawn by ``repro cancel`` before it was leased.

State transitions are single ``os.replace`` moves of the job file
between sibling directories -- atomic on POSIX, so a crash mid-move
leaves the job in exactly one state and two racing daemons cannot lease
the same job (the loser's ``os.replace`` raises ``FileNotFoundError``
and it simply picks the next file).  Terminal transitions may *rewrite*
the file (attaching the result record) but do so with the usual
temp-file + ``os.replace`` discipline into the target directory.

Job ids sort by submission time (``job-<UTC stamp>-<pid>-<counter>``),
so "oldest pending first" is a filename sort -- no index file to corrupt.

The queue root also hosts the daemon's working state, kept alongside so
one directory is the whole service:

* ``wal.json``       -- the daemon's write-ahead state
  (:mod:`repro.service.wal`);
* ``work/<job>/``    -- per-job checkpoints and heartbeat files;
* ``out/<job>/``     -- per-job results (``results.json``,
  ``tables.txt``, ``failure.json``);
* ``logs/<job>.log`` -- per-job human-readable log (``repro logs``);
* ``journal.jsonl``  -- service lifecycle journal
  (:func:`repro.journal.service_entry`).
"""

from __future__ import annotations

import itertools
import json
import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

__all__ = ["JobQueue", "JobSpec", "JOB_STATES", "new_job_id"]

#: Lifecycle directories under the queue root, in pipeline order.
JOB_STATES = ("pending", "leased", "done", "failed", "canceled")

_counter = itertools.count()


def new_job_id() -> str:
    """Sortable, collision-safe job id.

    UTC timestamp first so lexicographic order is submission order;
    pid + process-local counter + a nanosecond tail so concurrent
    submitters (and rapid same-process submissions) never collide.
    """
    stamp = datetime.now(timezone.utc).strftime("%Y%m%d%H%M%S%f")
    return f"job-{stamp}-{os.getpid()}-{next(_counter)}-{time.time_ns() % 1000000:06d}"


@dataclass
class JobSpec:
    """One submitted job: what to run and how to supervise it.

    ``params`` is the free-form run configuration (scale, jobs, timeout,
    budget spec, retry spec ...) interpreted by the supervisor's
    job runner for ``kind``; the queue itself never looks inside it.
    ``result`` is attached by the supervisor at a terminal transition
    (output paths on success, a machine-readable failure record on
    degradation).
    """

    id: str
    kind: str = "tables"
    params: dict = field(default_factory=dict)
    submitted: str = ""
    status: str = "queued"
    attempts: int = 0
    result: dict | None = None

    def to_payload(self) -> dict:
        payload = {
            "id": self.id,
            "kind": self.kind,
            "params": self.params,
            "submitted": self.submitted,
            "status": self.status,
            "attempts": self.attempts,
        }
        if self.result is not None:
            payload["result"] = self.result
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "JobSpec":
        return cls(
            id=payload["id"],
            kind=payload.get("kind", "tables"),
            params=dict(payload.get("params", {})),
            submitted=payload.get("submitted", ""),
            status=payload.get("status", "queued"),
            attempts=int(payload.get("attempts", 0)),
            result=payload.get("result"),
        )


class JobQueue:
    """The durable queue rooted at one directory (see module docstring)."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # -- layout --------------------------------------------------------

    def state_dir(self, state: str) -> Path:
        if state not in JOB_STATES:
            raise ValueError(f"state must be one of {JOB_STATES}, got {state!r}")
        return self.root / state

    def job_path(self, state: str, job_id: str) -> Path:
        return self.state_dir(state) / f"{job_id}.json"

    def work_dir(self, job_id: str) -> Path:
        return self.root / "work" / job_id

    def out_dir(self, job_id: str) -> Path:
        return self.root / "out" / job_id

    def log_path(self, job_id: str) -> Path:
        return self.root / "logs" / f"{job_id}.log"

    @property
    def journal_path(self) -> Path:
        return self.root / "journal.jsonl"

    @property
    def wal_path(self) -> Path:
        return self.root / "wal.json"

    def ensure_layout(self) -> None:
        for state in JOB_STATES:
            self.state_dir(state).mkdir(parents=True, exist_ok=True)
        (self.root / "work").mkdir(exist_ok=True)
        (self.root / "out").mkdir(exist_ok=True)
        (self.root / "logs").mkdir(exist_ok=True)

    # -- file plumbing -------------------------------------------------

    def _write_job(self, job: JobSpec, state: str) -> Path:
        """Atomically publish ``job``'s file into ``state``'s directory."""
        target = self.job_path(state, job.id)
        target.parent.mkdir(parents=True, exist_ok=True)
        tmp = target.parent / f".{target.name}.{os.getpid()}.tmp"
        tmp.write_text(
            json.dumps(job.to_payload(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        os.replace(tmp, target)
        return target

    def _read_job(self, path: Path) -> JobSpec | None:
        try:
            return JobSpec.from_payload(json.loads(path.read_text("utf-8")))
        except (OSError, ValueError, KeyError):
            return None

    def _jobs_in(self, state: str) -> list[Path]:
        directory = self.state_dir(state)
        if not directory.is_dir():
            return []
        return sorted(p for p in directory.glob("job-*.json"))

    # -- lifecycle -----------------------------------------------------

    def submit(
        self, params: dict | None = None, kind: str = "tables", job_id: str | None = None
    ) -> JobSpec:
        """Enqueue a new job (``queued``); returns the stored spec."""
        self.ensure_layout()
        job = JobSpec(
            id=job_id or new_job_id(),
            kind=kind,
            params=dict(params or {}),
            submitted=datetime.now(timezone.utc).isoformat(timespec="seconds"),
        )
        self._write_job(job, "pending")
        return job

    def lease(self, job_id: str | None = None) -> JobSpec | None:
        """Claim the oldest pending job (or ``job_id``); ``None`` if none.

        The claim is the atomic ``pending -> leased`` move; losing a race
        (``FileNotFoundError``) just tries the next candidate.
        """
        self.ensure_layout()
        candidates = (
            [self.job_path("pending", job_id)]
            if job_id is not None
            else self._jobs_in("pending")
        )
        for path in candidates:
            target = self.state_dir("leased") / path.name
            try:
                os.replace(path, target)
            except FileNotFoundError:
                continue
            job = self._read_job(target)
            if job is None:  # unreadable spec: park it as failed
                os.replace(target, self.state_dir("failed") / path.name)
                continue
            job.status = "leased"
            self._write_job(job, "leased")
            return job
        return None

    def release(self, job: JobSpec) -> None:
        """Return a leased job to pending (graceful shutdown, re-adoption).

        Attempt counts survive the round-trip: a job re-adopted after a
        daemon crash resumes its retry budget, it does not reset it.
        """
        job.status = "queued"
        self._write_job(job, "pending")
        self.job_path("leased", job.id).unlink(missing_ok=True)

    def adopt_orphans(self) -> list[JobSpec]:
        """Move every leased job back to pending (crash recovery).

        Called by a starting daemon after proving no other daemon is
        alive: files still under ``leased/`` belonged to a dead daemon,
        and their circuit-granular checkpoints under ``work/<job>/`` make
        the re-run incremental rather than from scratch.
        """
        adopted = []
        for path in self._jobs_in("leased"):
            job = self._read_job(path)
            if job is None:
                os.replace(path, self.state_dir("failed") / path.name)
                continue
            self.release(job)
            adopted.append(job)
        return adopted

    def finish(self, job: JobSpec, status: str, result: dict | None = None) -> None:
        """Record a terminal state: ``done``/``degraded`` -> ``done/``,
        ``failed`` -> ``failed/``, ``canceled`` -> ``canceled/``."""
        directory = {
            "done": "done",
            "degraded": "done",
            "failed": "failed",
            "canceled": "canceled",
        }.get(status)
        if directory is None:
            raise ValueError(f"not a terminal status: {status!r}")
        job.status = status
        if result is not None:
            job.result = result
        self._write_job(job, directory)
        self.job_path("leased", job.id).unlink(missing_ok=True)

    def cancel(self, job_id: str) -> JobSpec | None:
        """Withdraw a pending job; ``None`` when it is not pending
        (already leased, finished, or unknown -- the caller reports)."""
        path = self.job_path("pending", job_id)
        target = self.state_dir("canceled") / path.name
        try:
            os.replace(path, target)
        except FileNotFoundError:
            return None
        job = self._read_job(target)
        if job is not None:
            job.status = "canceled"
            self._write_job(job, "canceled")
        return job

    # -- inspection ----------------------------------------------------

    def find(self, job_id: str) -> JobSpec | None:
        """Locate a job in any state directory."""
        for state in JOB_STATES:
            job = self._read_job(self.job_path(state, job_id))
            if job is not None:
                return job
        return None

    def jobs(self) -> list[JobSpec]:
        """Every known job, oldest first, across all states."""
        found: dict[str, JobSpec] = {}
        for state in JOB_STATES:
            for path in self._jobs_in(state):
                job = self._read_job(path)
                if job is not None and job.id not in found:
                    found[job.id] = job
        return [found[key] for key in sorted(found)]
