"""Outside-in span tracer for the end-to-end benchmark.

The program has no spans of its own yet, so the benchmark wraps the public
entry point of every layer at run time (:data:`ENTRY_POINTS`) and records
one span per call: layer name, start, end, parent span, plus a work width
(columns, faults) and a useful-outcome flag where the layer has one.
Spans stay in memory until the run ends; :func:`layer_table` then turns
them into per-layer calls, self time (duration minus the part covered by
child spans), share of the traced wall, per-call percentiles and the
derived ratios the README's layer table names.

Only the calling process is traced.  Pool workers of the parallel runner
are forked after the wrappers are installed, but their spans die with
them; the ``tables-pool`` workload therefore reports parent-side spans
plus the runner's per-job walls (``Engine.job_records``).
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Any, Callable

# Span record layout (a plain list per span keeps the per-call cost low).
_LAYER, _START, _END, _PARENT, _WIDTH, _OK = range(6)

#: Layers in report order; ``other`` is the traced wall no span covers.
LAYERS = (
    "experiments",
    "parallel.run",
    "atpg.generate",
    "atpg.justify",
    "atpg.implication",
    "faults.target_sets",
    "paths.enumerate",
    "sim.restrict",
    "sim.restrict.compile",
    "sim.cone",
    "sim.full",
    "sim.cover",
    "sim.faultsim",
    "circuit.load",
    "sim.compile",
)

#: Per-call percentiles need at least ten samples beyond p99.
MIN_CALLS_FOR_PERCENTILES = 1000


def _columns(args, kwargs, result) -> int:
    return int(args[1].shape[2])


def _fault_columns(args, kwargs, result) -> int:
    return int(args[0].n_faults)


def _tests(args, kwargs, result) -> int:
    return len(args[1])


def _kept(args, kwargs, result) -> int:
    return len(result.p0) + len(result.p1)


def _enumerated(args, kwargs, result) -> int:
    return 2 * len(result.paths)


def _found(result) -> bool:
    return result is not None


#: ``(module, attribute path, layer, width, ok)`` for every wrapped entry.
#: Functions that a caller imported by name are wrapped in the caller's
#: namespace (``repro.engine.session.build_target_sets``), because that is
#: the binding the call resolves.
ENTRY_POINTS: tuple[tuple[str, str, str, Callable | None, Callable | None], ...] = (
    ("repro.experiments.tables", "run_all", "experiments", None, None),
    ("repro.experiments.tables", "run_basic_circuit", "experiments", None, None),
    ("repro.experiments.tables", "run_table6_circuit", "experiments", None, None),
    ("repro.experiments.tables", "run_table1", "experiments", None, None),
    ("repro.experiments.tables", "run_table2", "experiments", None, None),
    ("repro.parallel.runner", "ParallelRunner.run", "parallel.run", None, None),
    ("repro.engine.session", "CircuitSession.generate_basic", "atpg.generate", None, None),
    ("repro.engine.session", "CircuitSession.generate_enriched", "atpg.generate", None, None),
    ("repro.atpg.justify", "Justifier.justify", "atpg.justify", None, _found),
    ("repro.atpg.justify", "has_implication_conflict", "atpg.implication", None, bool),
    ("repro.engine.session", "build_target_sets", "faults.target_sets", _kept, None),
    ("repro.paths.enumerate", "enumerate_paths", "paths.enumerate", _enumerated, None),
    ("repro.sim.batch", "BatchSimulator.restricted", "sim.restrict", None, None),
    ("repro.sim.batch", "ConeSimulator.__init__", "sim.restrict.compile", None, None),
    ("repro.sim.packed", "PackedConeSimulator.__init__", "sim.restrict.compile", None, None),
    ("repro.sim.batch", "ConeSimulator.run_codes", "sim.cone", _columns, None),
    ("repro.sim.packed", "PackedConeSimulator.run_codes", "sim.cone", _columns, None),
    ("repro.sim.packed", "PackedConeSimulator.screen", "sim.cone", _columns, None),
    ("repro.sim.batch", "BatchSimulator.run_codes", "sim.full", _columns, None),
    ("repro.sim.cover", "StackedRequirements.covered_matrix", "sim.cover", _fault_columns, None),
    ("repro.sim.cover", "StackedRequirements.delta_against", "sim.cover", _fault_columns, None),
    ("repro.sim.faultsim", "FaultSimulator.detection_matrix", "sim.faultsim", _tests, None),
    ("repro.engine.session", "load_circuit", "circuit.load", None, None),
    ("repro.engine.session", "pdf_ready", "circuit.load", None, None),
    ("repro.sim.batch", "BatchSimulator.__init__", "sim.compile", None, None),
)


class Tracer:
    """Records spans around :data:`ENTRY_POINTS` between install/uninstall."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple[Any, str, Any]] = []

    def wrap(
        self,
        fn: Callable,
        layer: str,
        width: Callable | None = None,
        ok: Callable | None = None,
    ) -> Callable:
        """``fn`` recording one span per call into this tracer."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, clock(), 0.0, stack[-1] if stack else -1, 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[_END] = clock()
                stack.pop()
            if width is not None:
                span[_WIDTH] = width(args, kwargs, result)
            if ok is not None:
                span[_OK] = bool(ok(result))
            return result

        return traced

    def install(self) -> "Tracer":
        for module_name, path, layer, width, ok in ENTRY_POINTS:
            owner = importlib.import_module(module_name)
            *parents, name = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[name]
            setattr(owner, name, self.wrap(original, layer, width, ok))
            self._installed.append((owner, name, original))
        return self

    def uninstall(self) -> None:
        while self._installed:
            owner, name, original = self._installed.pop()
            setattr(owner, name, original)


def _percentile(sorted_values: list[float], share: float) -> float:
    index = min(len(sorted_values) - 1, int(share * len(sorted_values)))
    return sorted_values[index]


def layer_table(spans: list[list], wall: float) -> dict[str, dict]:
    """Per-layer aggregates of ``spans`` over a traced wall of ``wall`` s.

    Every layer of :data:`LAYERS` appears (zeros when idle) plus ``other``,
    so the self shares always sum to 100.  ``rounds`` counts the cone
    kernel calls made directly inside a layer's spans: for the justifier
    and the implication filter that is the number of fixpoint rounds.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[_PARENT] >= 0:
            covered[span[_PARENT]] += span[_END] - span[_START]
    table = {
        layer: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "columns": 0, "ok": 0,
                "rounds": 0, "durations": []}
        for layer in LAYERS
    }
    for index, span in enumerate(spans):
        row = table[span[_LAYER]]
        duration = span[_END] - span[_START]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - covered[index]
        row["columns"] += span[_WIDTH]
        row["ok"] += span[_OK] is True
        row["durations"].append(duration)
        if span[_LAYER] == "sim.cone" and span[_PARENT] >= 0:
            table[spans[span[_PARENT]][_LAYER]]["rounds"] += 1
    spanned = 0.0
    for row in table.values():
        durations = sorted(row.pop("durations"))
        if len(durations) >= MIN_CALLS_FOR_PERCENTILES:
            row["p50_s"] = _percentile(durations, 0.50)
            row["p99_s"] = _percentile(durations, 0.99)
        spanned += row["self_s"]
    table["other"] = {"calls": 0, "total_s": wall - spanned, "self_s": wall - spanned,
                      "columns": 0, "ok": 0, "rounds": 0}
    for row in table.values():
        row["self_pct"] = 100.0 * row["self_s"] / wall if wall > 0 else 0.0
    return table


def format_layer_table(table: dict[str, dict]) -> str:
    """Human-readable per-layer table (percentiles only where measured)."""
    lines = [
        f"{'layer':<20}{'calls':>9}{'self_s':>10}{'self%':>8}{'total_s':>10}"
        f"{'p50_us':>10}{'p99_us':>10}"
    ]
    for layer, row in table.items():
        p50 = f"{row['p50_s'] * 1e6:10.1f}" if "p50_s" in row else f"{'-':>10}"
        p99 = f"{row['p99_s'] * 1e6:10.1f}" if "p99_s" in row else f"{'-':>10}"
        lines.append(
            f"{layer:<20}{row['calls']:>9}{row['self_s']:>10.3f}{row['self_pct']:>8.1f}"
            f"{row['total_s']:>10.3f}{p50}{p99}"
        )
    return "\n".join(lines)
