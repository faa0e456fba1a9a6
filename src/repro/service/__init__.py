"""ATPG-as-a-service: durable job queue, supervisor daemon, recovery.

The supervision seam above the engine/parallel layers: jobs are
submitted to a file-based queue (:mod:`.queue`), a daemon leases and
runs them under the full robustness stack -- circuit checkpoints, per-job
heartbeats with a stuck-worker watchdog, whole-job backoff retries -- and a
write-ahead state file (:mod:`.wal`) lets a restarted daemon prove the
previous one died and re-adopt its work (:mod:`.supervisor`).  No
network anywhere: the queue directory is the API, so the same machinery
runs in CI, and every lifecycle transition lands in the run journal.
"""

from .queue import JOB_STATES, JobQueue, JobSpec, new_job_id
from .supervisor import QueueBusyError, ServiceShutdown, Supervisor
from .wal import ServiceWAL, pid_alive

__all__ = [
    "JOB_STATES",
    "JobQueue",
    "JobSpec",
    "new_job_id",
    "QueueBusyError",
    "ServiceShutdown",
    "Supervisor",
    "ServiceWAL",
    "pid_alive",
]
