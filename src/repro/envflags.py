"""Process-wide environment settings, read once.

The engine layer consults one knob:

* ``REPRO_ARTIFACT_CACHE=<dir>`` -- enable the persistent artifact store
  (:mod:`repro.artifacts`) rooted at ``<dir>``; equivalent to the CLI's
  ``--artifact-cache``.  Unset (the default) leaves caching off.

It is consulted on every :class:`~repro.engine.session.Engine`
construction, so the value is snapshotted on first use instead of hitting
``os.environ`` per call.  Tests monkeypatch the environment and call
:func:`reset`; worker processes started by :mod:`repro.parallel` re-read
it on their own first use.

Justification has one trial-simulation kernel, the bit-parallel cone
kernel of :mod:`repro.sim.packed` (one generated Python function per
cone, lanes in big-int planes), so there is no backend to select;
:func:`simulation_backend` only names it.
"""

from __future__ import annotations

import os
from functools import lru_cache

__all__ = [
    "ARTIFACT_CACHE_ENV",
    "simulation_backend",
    "artifact_cache_dir",
    "reset",
]

#: Directory of the persistent artifact cache (default: disabled).
ARTIFACT_CACHE_ENV = "REPRO_ARTIFACT_CACHE"


def simulation_backend() -> str:
    """The cone-kernel name that run records store (always ``"packed"``)."""
    return "packed"


@lru_cache(maxsize=None)
def _env_path(name: str) -> str:
    # Case-preserving: the value is a filesystem path.
    return os.environ.get(name, "").strip()


def artifact_cache_dir() -> str | None:
    """``REPRO_ARTIFACT_CACHE`` directory, or ``None`` when unset.

    Enables the persistent artifact store (:mod:`repro.artifacts`) for
    every :class:`~repro.engine.session.Engine` built without an explicit
    store -- including pool workers, which inherit the environment.
    """
    return _env_path(ARTIFACT_CACHE_ENV) or None


def reset() -> None:
    """Drop the cached snapshot (tests re-read the environment after this)."""
    _env_path.cache_clear()
