"""Parallel execution layer: per-circuit fan-out over a process pool
that runs each job once and salvages finished results, per-job
heartbeats with a stuck-worker watchdog, and checkpoint/resume
persistence."""

from .checkpoint import RunCheckpoint
from .heartbeat import (
    DEFAULT_HEARTBEAT_INTERVAL,
    DEFAULT_STALE_AFTER,
    HeartbeatWriter,
    Watchdog,
    heartbeat_path,
)
from .runner import (
    CircuitJob,
    CircuitJobResult,
    JobFailure,
    ParallelRunError,
    ParallelRunner,
    resolve_jobs,
)

__all__ = [
    "CircuitJob",
    "CircuitJobResult",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_STALE_AFTER",
    "HeartbeatWriter",
    "Watchdog",
    "heartbeat_path",
    "JobFailure",
    "ParallelRunError",
    "ParallelRunner",
    "RunCheckpoint",
    "resolve_jobs",
]
