"""Crash-safe checkpointing of per-circuit results for resumable sweeps.

A full ``repro-pdf tables`` run costs tens of CPU-minutes; a killed or
crashed sweep should not discard the circuits that already finished.
:class:`RunCheckpoint` is the persistence half of that contract (the
runner's salvage of finished results is the other half, see
:mod:`repro.parallel.runner`):

* every completed result is written the moment it completes, atomically
  (tmp file + ``os.replace``), so a kill mid-write leaves either a
  complete checkpoint or none.  Each :class:`~repro.parallel.runner.
  CircuitJobResult` goes to ``<directory>/<circuit>.json`` -- resume
  granularity is the *circuit*, so a killed sweep only recomputes the
  circuits that had not finished;
* on resume, a checkpoint is honoured only when its stored parameter
  envelope matches the job exactly -- same circuit, same full
  :class:`~repro.experiments.scale.ExperimentScale`, covering sweeps and
  the same heuristic list in the same order.  Anything else (missing
  file, truncated/corrupt JSON, stale file from another run
  configuration) reads as "not done" and the work is recomputed, so a
  resumed run is always `canonical_json`-identical to an uninterrupted
  one.

Checkpoint file format (version 1)::

    {
      "version": 1,
      "circuit": "s641_proxy",
      "scale": {"name": ..., "max_faults": ..., "p0_min_faults": ...,
                "max_secondary_attempts": ..., "seed": ...},
      "run_basic": true,
      "run_table6": true,
      "heuristics": ["uncomp", "arbit", "length", "values"],
      "budget": {"deadline_seconds": ..., "node_limit": ..., ...},  # budgeted runs only
      "timeout": 20.0,                                              # --timeout runs only
      "basic": {... CircuitBasicResult ...} | null,
      "table6": {... Table6Row ...} | null,
      "stats": {"counters": {...}, "timers": {...}} | null
    }

The ``budget``/``timeout`` keys are part of the parameter envelope: a
result produced under one budget (possibly degraded, with aborted
faults) must not be reused by a run with a different budget.  Unbudgeted
runs omit both keys, so their checkpoints stay compatible with files
written before budgets existed.
"""

from __future__ import annotations

import json
import logging
import os
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING

from ..robustness import Budget

if TYPE_CHECKING:
    from .runner import CircuitJob, CircuitJobResult

__all__ = ["RunCheckpoint", "CHECKPOINT_VERSION"]

CHECKPOINT_VERSION = 1

logger = logging.getLogger(__name__)


def _budget_envelope(budget: "Budget | None", timeout: float | None) -> dict:
    """The budget/timeout keys of the parameter envelope (empty = none)."""
    envelope: dict = {}
    if budget is not None and not budget.is_null:
        envelope["budget"] = budget.spec()
    if timeout is not None:
        envelope["timeout"] = timeout
    return envelope


class RunCheckpoint:
    """One-file-per-circuit store of completed job results.

    ``budget`` and ``timeout`` describe the run configuration and join
    the stored parameter envelope; ``stats`` is an optional
    EngineStats-compatible sink for the ``checkpoint.corrupt`` counter
    (the parallel runner wires its engine's stats in).
    """

    def __init__(
        self,
        directory: str | Path,
        budget: "Budget | None" = None,
        timeout: float | None = None,
        stats=None,
    ) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.budget = budget
        self.timeout = timeout
        self.stats = stats

    def path_for(self, key: str) -> Path:
        """Checkpoint file for a job key (the circuit name)."""
        return self.directory / f"{key}.json"

    def completed(self) -> set[str]:
        """Job keys with a (syntactically present) checkpoint file."""
        return {path.stem for path in self.directory.glob("*.json")}

    def clear(self) -> None:
        """Drop every stored checkpoint (start-of-fresh-run hygiene)."""
        for path in self.directory.glob("*.json"):
            path.unlink()

    def save(self, result: "CircuitJobResult", job: "CircuitJob") -> Path:
        """Persist one finished result atomically; returns the file path."""
        from .runner import effective_heuristics

        payload = {
            "version": CHECKPOINT_VERSION,
            "scale": asdict(job.scale),
            "run_basic": job.run_basic,
            "run_table6": job.run_table6,
            "heuristics": (
                list(effective_heuristics(job)) if job.run_basic else []
            ),
            **_budget_envelope(self.budget, self.timeout),
            **result.to_payload(),
        }
        path = self.path_for(result.key)
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, indent=1))
        os.replace(tmp, path)
        return path

    def _corrupt(self, path: Path, why: str) -> None:
        """Record a present-but-undecodable checkpoint (never silent)."""
        logger.warning("corrupt checkpoint %s (%s); circuit will be re-run", path, why)
        if self.stats is not None:
            self.stats.count("checkpoint.corrupt")

    def load(self, job: "CircuitJob") -> "CircuitJobResult | None":
        """Stored result for ``job``, or ``None`` when it must be (re)run.

        ``None`` covers three distinct cases:

        * *missing* -- no checkpoint file: the normal first-run state,
          silent;
        * *corrupt* -- the file exists but cannot be decoded (truncated
          JSON, unreadable, wrong payload shape): logged as a warning
          and counted as ``checkpoint.corrupt`` on :attr:`stats`, since
          it usually means a crash outside the atomic-write protocol or
          disk trouble worth surfacing;
        * *stale* -- decodes fine but the parameter envelope (version,
          scale, sweeps, heuristics, budget/timeout) does not match this
          run: silent, the work is simply recomputed.
        """
        from .runner import CircuitJobResult, effective_heuristics

        path = self.path_for(job.key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        except OSError as exc:
            self._corrupt(path, f"unreadable: {exc}")
            return None
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            self._corrupt(path, f"invalid JSON: {exc}")
            return None
        if not isinstance(payload, dict):
            self._corrupt(path, f"expected an object, got {type(payload).__name__}")
            return None
        if payload.get("version") != CHECKPOINT_VERSION:
            return None
        if payload.get("circuit") != job.circuit:
            return None
        if payload.get("scale") != asdict(job.scale):
            return None
        envelope = _budget_envelope(self.budget, self.timeout)
        if payload.get("budget") != envelope.get("budget"):
            return None
        if payload.get("timeout") != envelope.get("timeout"):
            return None
        if job.run_basic:
            basic = payload.get("basic")
            if not basic:
                return None
            stored = list(basic.get("outcomes", {}))
            if stored != list(effective_heuristics(job)):
                return None
        if job.run_table6 and not payload.get("table6"):
            return None
        try:
            return CircuitJobResult.from_payload(payload)
        except (KeyError, TypeError, ValueError) as exc:
            self._corrupt(path, f"undecodable payload: {exc}")
            return None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RunCheckpoint({str(self.directory)!r})"
