"""Instrumentation for the engine layer.

:class:`EngineStats` is a light counters-plus-timers sink shared by every
artifact a :class:`~repro.engine.session.CircuitSession` builds.  Lower
layers (``sim.batch``, ``atpg.justify``) accept it duck-typed -- anything
with ``count(name, n)`` and ``timer(name)`` works -- so they stay free of
engine imports.

Counter naming convention:

* ``<cache>.hit`` / ``<cache>.miss`` -- memoized-accessor outcomes
  (``enumerate``, ``target_sets``, ``fault_simulator``, and the
  cone-compilation cache ``cone`` with its extra ``cone.compile`` for
  misses that could not reuse another seed key's compilation);
* ``batch.runs`` / ``batch.columns`` -- batch simulations and their total
  column count (cone-restricted runs are included, and additionally
  counted as ``cone.runs`` / ``cone.columns``);
* ``justify.calls`` -- justification attempts;
* ``justify.cone_nodes`` / ``justify.full_nodes`` -- node-columns the
  justifier actually simulated vs what full-netlist simulation would have
  cost; their ratio is the cone restriction's saving;
* ``backend.packed.*`` -- the packed cone kernel's plans compiled
  (``cones``), simulations (``runs``, ``columns``, ``words``), screens
  and rejected trial columns;
* ``implication.*`` -- the lockstep implication filter
  (:func:`repro.atpg.justify.implication_conflicts`): requirement sets
  settled (``faults``), their fixpoint rounds summed over sets
  (``rounds``), and the whole-netlist simulations it ran (``runs``) with
  their total lane count (``columns``);
* ``compact.screen_calls`` / ``compact.screen_columns`` -- batched
  candidate screens in the generator (covered / conflict / ``n_delta``)
  and the fault columns they covered;
* ``simulator.build`` / ``justifier.build`` -- artifact constructions;
* ``parallel.*`` -- runner bookkeeping (``jobs``, ``timeouts``,
  ``stuck``, ``failures``, ``resumed``, ``checkpointed``);
* ``budget.*`` -- graceful-degradation bookkeeping: ``budget.aborted``
  (faults recorded as aborted), ``budget.<reason>_trips`` per abort
  reason (``deadline``, ``node_limit``, ``attempt_limit``, ...) and
  ``budget.run_stops`` (run-level stops: deadline expiry / abort limit);
* ``checkpoint.corrupt`` -- checkpoint files that existed but could not
  be decoded (distinguished from simply missing ones, which stay silent);
* ``artifact.*`` -- persistent artifact store outcomes
  (:mod:`repro.artifacts`): every consult counts exactly one of
  ``artifact.hit`` / ``artifact.miss``; corrupt or stale entries count an
  additional ``artifact.corrupt`` (they degrade to misses, never errors)
  and every publish counts ``artifact.write``.  Load wall clock lands in
  the ``artifact.load`` timer; the compute it replaces would have landed
  in ``enumerate`` / ``target_sets``.

Timers accumulate wall-clock seconds under the same names (``enumerate``,
``target_sets``, ``justify``, ``generate``).

Every instance carries a random ``origin`` token, and :meth:`merge`
records the origins it has folded: re-merging the same stats object (or a
snapshot round-trip of it) is a no-op, so a seam that accidentally folds
one worker's snapshot twice cannot double-count.
"""

from __future__ import annotations

import time
import uuid
from collections import Counter
from contextlib import contextmanager
from typing import Iterator

__all__ = ["EngineStats"]


class EngineStats:
    """Counters and wall-clock timers for one engine or session."""

    def __init__(self) -> None:
        self.counters: Counter[str] = Counter()
        self.timers: dict[str, float] = {}
        self.origin: str = uuid.uuid4().hex
        self._merged_origins: set[str] = set()

    # -- counters ------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self.counters[name] += n

    def counter(self, name: str) -> int:
        """Current value of counter ``name`` (0 when never incremented)."""
        return self.counters.get(name, 0)

    def hit(self, cache: str) -> None:
        """Record a cache hit for ``cache``."""
        self.count(f"{cache}.hit")

    def miss(self, cache: str) -> None:
        """Record a cache miss for ``cache``."""
        self.count(f"{cache}.miss")

    def hits(self, cache: str) -> int:
        return self.counter(f"{cache}.hit")

    def misses(self, cache: str) -> int:
        return self.counter(f"{cache}.miss")

    # -- timers --------------------------------------------------------

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` of wall-clock time under ``name``."""
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time the enclosed block into ``timers[name]``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - started)

    # -- reporting -----------------------------------------------------

    def merge(self, other: "EngineStats") -> None:
        """Fold another stats object into this one (idempotent per origin).

        A stats object (or a snapshot round-trip of one) whose ``origin``
        was already folded -- including this object itself -- is skipped
        entirely: counters and sum-semantics timers would double-count on
        a second fold, and re-merge bugs at the runner/checkpoint seams
        are otherwise silent.
        """
        if other is self or other.origin == self.origin:
            return
        if other.origin in self._merged_origins:
            return
        self._merged_origins.add(other.origin)
        self._merged_origins.update(other._merged_origins)
        self.counters.update(other.counters)
        for name, seconds in other.timers.items():
            self.add_time(name, seconds)

    def snapshot(self) -> dict:
        """Plain-dict view (stable for JSON serialization and tests).

        ``origin`` rides along so a round-tripped snapshot still
        deduplicates in :meth:`merge`.
        """
        return {
            "counters": dict(sorted(self.counters.items())),
            "timers": dict(sorted(self.timers.items())),
            "origin": self.origin,
        }

    @classmethod
    def from_snapshot(cls, payload: dict) -> "EngineStats":
        """Rebuild a stats object from a :meth:`snapshot` dict.

        Used by the parallel runner's checkpoint files, which persist a
        worker's instrumentation alongside its results.  The stored
        ``origin`` is restored (snapshots without one -- written before
        merge deduplication existed -- get a fresh token).  Keys this
        class no longer records (the ``maxima`` of older snapshots) are
        ignored.
        """
        stats = cls()
        stats.counters.update(payload.get("counters", {}))
        for name, seconds in payload.get("timers", {}).items():
            stats.add_time(name, float(seconds))
        origin = payload.get("origin")
        if origin:
            stats.origin = origin
        return stats

    def format(self) -> str:
        """Readable report for ``repro-pdf --stats``."""
        lines = ["engine stats"]
        if self.counters:
            lines.append("  counters:")
            width = max(len(name) for name in self.counters)
            for name in sorted(self.counters):
                lines.append(f"    {name:<{width}}  {self.counters[name]}")
        if self.timers:
            lines.append("  timers (s):")
            width = max(len(name) for name in self.timers)
            for name in sorted(self.timers):
                lines.append(f"    {name:<{width}}  {self.timers[name]:.3f}")
        if len(lines) == 1:
            lines.append("  (no activity recorded)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"EngineStats({sum(self.counters.values())} events, "
            f"{len(self.timers)} timers)"
        )
