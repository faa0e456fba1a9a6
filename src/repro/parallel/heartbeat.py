"""Per-job heartbeats and the watchdog that reads them.

A pool worker that crashes announces itself (the future raises
``BrokenProcessPool``); a worker that *hangs* -- stuck in a syscall, a
pathological kernel call, a livelock -- announces nothing.  PR 5's hard
timeout backstop treats every silent window as fatal for *all*
outstanding jobs, because without liveness data it cannot tell a stuck
worker from a slow-but-healthy one.  Heartbeats supply that data:

* :class:`HeartbeatWriter` runs a daemon thread inside the worker that
  touches one file per job key (``<dir>/<safe-key>.hb``) every
  ``interval`` seconds while the job body runs.  Writing is a single
  ``os.utime``/create -- atomic enough that the watchdog only ever
  observes an mtime;
* :class:`Watchdog` classifies outstanding jobs by heartbeat age:
  a job whose file is younger than ``stale_after`` is *alive* (keep
  waiting), one whose file exists but has gone silent for longer is
  *stuck* (the runner kills the pool and fails the job with phase
  ``stuck``; the supervisor's whole-job retry reruns it), and one with
  no file yet never started (it is queued behind other work in the pool
  backlog -- not stuck).

The writer half is deliberately dependency-free so ``_pool_entry`` can
start it before any engine work, and the watchdog half is pure mtime
arithmetic so the service supervisor can also point it at a daemon's
own heartbeat file.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass
from pathlib import Path

__all__ = [
    "HeartbeatWriter",
    "Watchdog",
    "heartbeat_path",
    "DEFAULT_HEARTBEAT_INTERVAL",
    "DEFAULT_STALE_AFTER",
]

#: How often a supervised worker proves liveness (seconds).
DEFAULT_HEARTBEAT_INTERVAL = 1.0

#: Silence threshold after which a started job counts as stuck (seconds).
#: Several missed beats, not one: a single delayed scheduler quantum on a
#: loaded CI machine must not read as a hang.
DEFAULT_STALE_AFTER = 30.0


def heartbeat_path(directory: str | Path, key: str) -> Path:
    """Heartbeat file for a job key (the circuit name)."""
    return Path(directory) / f"{key}.hb"


class HeartbeatWriter:
    """Touches one heartbeat file periodically while a job runs.

    Use as a context manager around the job body::

        with HeartbeatWriter(path, interval=1.0):
            ...  # the file's mtime now advances every second

    The first beat is written synchronously on ``__enter__`` (so a job
    that dies instantly still leaves evidence it *started*), then a
    daemon thread keeps beating until ``__exit__``.  Beats degrade
    silently on OSError -- a full disk must not fail the job itself; the
    watchdog will conservatively read the silence as stuck.
    """

    def __init__(self, path: str | Path, interval: float = DEFAULT_HEARTBEAT_INTERVAL) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be > 0, got {interval}")
        self.path = Path(path)
        self.interval = float(interval)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    def beat(self) -> None:
        """Write one heartbeat now (create the file or bump its mtime)."""
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a"):
                pass
            os.utime(self.path)
        except OSError:
            pass

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self.beat()

    def __enter__(self) -> "HeartbeatWriter":
        self.beat()
        self._thread = threading.Thread(
            target=self._run, name=f"heartbeat:{self.path.name}", daemon=True
        )
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=self.interval + 1.0)
            self._thread = None


@dataclass(frozen=True)
class Watchdog:
    """Classifies supervised jobs by heartbeat age.

    ``stale_after`` is the silence threshold in seconds; ``directory``
    is where the workers' :class:`HeartbeatWriter` files live.
    """

    directory: Path
    stale_after: float = DEFAULT_STALE_AFTER

    def __post_init__(self) -> None:
        if self.stale_after <= 0:
            raise ValueError(f"stale_after must be > 0, got {self.stale_after}")

    def age(self, key: str, now: float) -> float | None:
        """Seconds since ``key``'s last beat, ``None`` when never started.

        ``now`` is the caller's ``time.time()`` epoch clock (heartbeats
        are mtimes, which live on the epoch clock, not the monotonic
        one).
        """
        path = heartbeat_path(self.directory, key)
        try:
            mtime = path.stat().st_mtime
        except OSError:
            return None
        return max(0.0, now - mtime)

    def is_stuck(self, key: str, now: float) -> bool:
        """True when ``key`` started beating and then went silent too long."""
        age = self.age(key, now)
        return age is not None and age > self.stale_after

    def classify(self, keys: list[str], now: float) -> tuple[list[str], list[str]]:
        """Split ``keys`` into ``(alive_or_unstarted, stuck)``."""
        alive, stuck = [], []
        for key in keys:
            (stuck if self.is_stuck(key, now) else alive).append(key)
        return alive, stuck
