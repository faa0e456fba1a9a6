"""Drivers that regenerate every table of the paper's evaluation.

Each ``run_*`` function returns the plain dataclasses of
:mod:`repro.experiments.results`; the ``format_*`` renderers live in
:mod:`repro.experiments.formatters` (both re-exported here for
compatibility).  All drivers route through the engine layer: pass one
:class:`repro.engine.Engine` and every table shares one
:class:`~repro.engine.CircuitSession` per circuit, so path enumeration,
target-set construction and simulator compilation happen exactly once per
circuit across the whole sweep -- the same reuse the paper's experiments
rely on.  ``run_all`` does this automatically.

Mapping to the paper:

* Table 1 -- bounded path enumeration on s27 (N_P = 20 paths).
* Table 2 -- L_i / N_p(L_i) length table of the s1423 stand-in.
* Table 3 -- faults of P0 detected by the basic procedure, 4 heuristics.
* Table 4 -- numbers of tests for the same runs.
* Table 5 -- accidental P0 u P1 detection of the basic test sets.
* Table 6 -- the enrichment procedure on 8 + 3 circuits.
* Table 7 -- run-time ratio enrichment / basic (values heuristic).
"""

from __future__ import annotations

from typing import Sequence

from ..atpg import AtpgConfig
from ..atpg.enrich import EnrichmentReport
from ..engine import CircuitSession, Engine
from ..faults.fault import faults_of_paths
from ..parallel import CircuitJob, ParallelRunner, RunCheckpoint, resolve_jobs
from ..paths.lengths import length_table_for_faults
from ..robustness import Budget
from .formatters import (
    format_table1,
    format_table2,
    format_table3,
    format_table4,
    format_table5,
    format_table6,
    format_table7,
)
from .results import (
    CircuitBasicResult,
    ExperimentResults,
    HeuristicOutcome,
    Table1Result,
    Table2Result,
    Table6Row,
)
from .scale import ExperimentScale, get_scale
from .workloads import HEURISTICS, TABLE3_CIRCUITS, TABLE6_CIRCUITS

__all__ = [
    "Table1Result",
    "Table2Result",
    "HeuristicOutcome",
    "CircuitBasicResult",
    "Table6Row",
    "ExperimentResults",
    "run_table1",
    "run_table2",
    "run_basic_circuit",
    "run_basic_experiments",
    "run_table6_circuit",
    "run_table6",
    "run_all",
    "format_table1",
    "format_table2",
    "format_table3",
    "format_table4",
    "format_table5",
    "format_table6",
    "format_table7",
]


# ----------------------------------------------------------------------
# Table 1: s27 enumeration example
# ----------------------------------------------------------------------


def run_table1(
    max_paths: int = 20,
    use_distances: bool = False,
    engine: Engine | None = None,
) -> Table1Result:
    """Reproduce the s27 enumeration of Section 3.1 / Table 1."""
    session = (engine or Engine()).session("s27")
    result = session.enumeration(
        # the example counts paths, not faults
        max_faults=2 * max_paths,
        use_distances=use_distances,
    )
    return Table1Result(
        circuit="s27",
        cap_paths=max_paths,
        kept_paths=[path.names(session.netlist) for path in result.paths],
        kept_lengths=[path.length for path in result.paths],
        pruned_complete=result.pruned_complete,
        min_length=result.min_kept_length,
        max_length=result.max_kept_length,
    )


# ----------------------------------------------------------------------
# Table 2: length table
# ----------------------------------------------------------------------


def run_table2(
    scale: str | ExperimentScale = "default",
    circuit: str = "s1423_proxy",
    max_rows: int = 20,
    engine: Engine | None = None,
) -> Table2Result:
    """Length table of the enumerated fault population (paper's Table 2)."""
    scale = get_scale(scale)
    session = (engine or Engine()).session(circuit)
    enumeration = session.enumeration(max_faults=scale.max_faults)
    table = length_table_for_faults(faults_of_paths(enumeration.paths))
    rows = [(row.index, row.length, row.cumulative) for row in table][:max_rows]
    return Table2Result(circuit=circuit, rows=rows)


# ----------------------------------------------------------------------
# Tables 3, 4, 5: basic generation with the four heuristics
# ----------------------------------------------------------------------


def _resolve_budget(engine: Engine, budget: Budget | None) -> Budget | None:
    """An explicit ``budget`` argument wins over ``engine.budget``.

    Null budgets normalize to ``None`` so the unbudgeted fast path stays
    byte-identical to the pre-budget behaviour.
    """
    if budget is not None:
        return None if budget.is_null else budget
    return engine.budget


def run_basic_circuit(
    session: CircuitSession,
    scale: str | ExperimentScale = "default",
    heuristics: Sequence[str] | None = None,
) -> CircuitBasicResult:
    """One circuit's basic runs across ``heuristics`` (Tables 3-5 unit).

    This is the per-circuit body shared by the serial sweep below and
    :mod:`repro.parallel`'s pool workers.  Target sets are built once per
    circuit and shared across heuristics; Table 5's accidental-detection
    numbers come from fault-simulating each run's test set against
    ``P0 u P1`` with the session-cached simulator.
    """
    scale = get_scale(scale)
    if heuristics is None:
        heuristics = HEURISTICS
    targets = session.target_sets(
        max_faults=scale.max_faults,
        p0_min_faults=scale.p0_min_faults,
    )
    simulator = session.fault_simulator(targets.all_records)
    entry = CircuitBasicResult(
        circuit=session.netlist.name,
        i0=targets.i0,
        p0_total=len(targets.p0),
        p01_total=len(targets.all_records),
    )
    for heuristic in heuristics:
        config = AtpgConfig(
            heuristic=heuristic,
            seed=scale.seed,
            max_secondary_attempts=scale.max_secondary_attempts,
        )
        run = session.generate_basic(targets.p0, config)
        detected_p01, _ = simulator.coverage(run.test_vectors)
        entry.outcomes[heuristic] = HeuristicOutcome(
            detected_p0=run.detected_by_pool[0],
            tests=run.num_tests,
            detected_p01=detected_p01,
            runtime_seconds=run.runtime_seconds,
            aborted=run.num_aborted,
        )
    return entry


def run_basic_experiments(
    scale: str | ExperimentScale = "default",
    circuits: Sequence[str] = TABLE3_CIRCUITS,
    heuristics: Sequence[str] = HEURISTICS,
    engine: Engine | None = None,
    jobs: int | None = 1,
    timeout: float | None = None,
    budget: Budget | None = None,
) -> dict[str, CircuitBasicResult]:
    """Run the basic procedure for every circuit x heuristic (Tables 3-5).

    ``jobs`` fans circuits out over :class:`repro.parallel.ParallelRunner`
    (``None`` = all CPUs); results are keyed in ``circuits`` order either
    way and identical to the serial path up to wall-clock fields.
    ``timeout`` is the runner's per-circuit deadline;
    ``budget`` caps per-fault resources (see :mod:`repro.robustness`) --
    faults it denies a verdict come back ``aborted`` instead of failing
    the sweep.
    """
    scale = get_scale(scale)
    engine = engine or Engine()
    engine.budget = _resolve_budget(engine, budget)
    if resolve_jobs(jobs) > 1 and len(circuits) > 1:
        runner = ParallelRunner(jobs, engine=engine, timeout=timeout)
        outcomes = runner.run(
            CircuitJob(name, scale, tuple(heuristics), run_basic=True)
            for name in circuits
        )
        return {result.circuit: result.basic for result in outcomes}
    return {
        name: run_basic_circuit(engine.session(name), scale, heuristics)
        for name in circuits
    }


# ----------------------------------------------------------------------
# Table 6: enrichment
# ----------------------------------------------------------------------


def run_table6_circuit(
    session: CircuitSession,
    scale: str | ExperimentScale = "default",
) -> Table6Row:
    """One circuit's enrichment run (Table 6 unit; see
    :func:`run_basic_circuit` for the sharing contract)."""
    scale = get_scale(scale)
    targets = session.target_sets(
        max_faults=scale.max_faults,
        p0_min_faults=scale.p0_min_faults,
    )
    config = AtpgConfig(
        heuristic="values",
        seed=scale.seed,
        max_secondary_attempts=scale.max_secondary_attempts,
    )
    report = session.generate_enriched(targets, config)
    assert isinstance(report, EnrichmentReport)
    return Table6Row(
        circuit=session.netlist.name,
        i0=report.targets.i0,
        p0_total=report.p0_total,
        p0_detected=report.p0_detected,
        p01_total=report.p01_total,
        p01_detected=report.p01_detected,
        tests=report.num_tests,
        runtime_seconds=report.result.runtime_seconds,
        aborted=report.aborted,
        aborted_faults=[f.as_row() for f in report.aborted_faults],
    )


def run_table6(
    scale: str | ExperimentScale = "default",
    circuits: Sequence[str] = TABLE6_CIRCUITS,
    engine: Engine | None = None,
    jobs: int | None = 1,
    timeout: float | None = None,
    budget: Budget | None = None,
) -> list[Table6Row]:
    """The proposed enrichment procedure on each circuit (Table 6).

    ``jobs`` fans circuits out over :class:`repro.parallel.ParallelRunner`
    (``None`` = all CPUs); rows come back in ``circuits`` order either way.
    ``timeout`` is the runner's per-circuit deadline;
    ``budget`` enables graceful degradation (aborted faults are reported
    in each row instead of failing the sweep).
    """
    scale = get_scale(scale)
    engine = engine or Engine()
    engine.budget = _resolve_budget(engine, budget)
    if resolve_jobs(jobs) > 1 and len(circuits) > 1:
        runner = ParallelRunner(jobs, engine=engine, timeout=timeout)
        outcomes = runner.run(
            CircuitJob(name, scale, run_table6=True) for name in circuits
        )
        return [result.table6 for result in outcomes]
    return [run_table6_circuit(engine.session(name), scale) for name in circuits]


# ----------------------------------------------------------------------
# Everything at once
# ----------------------------------------------------------------------


def run_all(
    scale: str | ExperimentScale = "default",
    circuits: Sequence[str] = TABLE3_CIRCUITS,
    table6_circuits: Sequence[str] = TABLE6_CIRCUITS,
    engine: Engine | None = None,
    jobs: int | None = 1,
    checkpoint_dir: str | None = None,
    resume: bool = False,
    timeout: float | None = None,
    budget: Budget | None = None,
    heartbeat_dir: str | None = None,
    heartbeat_interval: float | None = None,
    stale_after: float | None = None,
) -> ExperimentResults:
    """Regenerate the data behind every table of the paper.

    One engine backs the whole sweep: Tables 3-5 and 6-7 share each
    circuit's enumeration and target sets, and Table 2 reuses the
    enumeration of its circuit when it also appears in ``circuits``.

    With ``jobs`` > 1 (``None`` = all CPUs) the per-circuit work of
    Tables 3-7 fans out over one shared process pool -- a circuit in both
    sweeps is a *single* job, so its worker session still builds each
    artifact once.  Tables 1-2 are cheap single-circuit work and stay in
    the parent.  Results are merged in circuit order and identical to
    ``jobs=1`` up to wall-clock fields.

    ``checkpoint_dir`` persists each circuit's result as it completes
    (see :class:`repro.parallel.RunCheckpoint`); with ``resume=True``,
    circuits whose matching checkpoint already exists are loaded instead
    of recomputed -- the merged output is ``canonical_json``-identical to
    an uninterrupted run.  Without ``resume``, an existing checkpoint
    directory is cleared first (a fresh run must not inherit stale
    files).  ``timeout`` is the runner's per-circuit deadline.  Each
    circuit runs once: a circuit that fails raises
    :class:`repro.parallel.ParallelRunError` with every completed
    circuit's result salvaged (and checkpointed, when enabled), and a
    rerun with ``resume=True`` redoes only the failed circuits.

    ``budget`` (or a pre-assigned ``engine.budget``) enables graceful
    degradation: per-fault resource trips surface as aborted faults in
    the results rather than failures, and the run still exits normally.
    The budget joins the checkpoint parameter envelope, so resumed runs
    never reuse results computed under a different budget.

    ``heartbeat_dir``/``heartbeat_interval``/``stale_after`` enable the
    runner's per-job heartbeats and stuck-worker watchdog (see
    :class:`repro.parallel.ParallelRunner`) -- the supervision hooks the
    ``repro serve`` daemon threads through here.
    """
    scale = get_scale(scale)
    engine = engine or Engine()
    engine.budget = _resolve_budget(engine, budget)
    n_jobs = resolve_jobs(jobs)
    basic_names = list(circuits)
    table6_names = list(table6_circuits)
    checkpoint = None
    if checkpoint_dir is not None:
        checkpoint = RunCheckpoint(
            checkpoint_dir,
            budget=engine.budget,
            timeout=timeout,
            stats=engine.stats,
        )
        if not resume:
            checkpoint.clear()
    elif resume:
        raise ValueError("resume=True requires a checkpoint_dir")
    ordered = basic_names + [
        name for name in table6_names if name not in basic_names
    ]
    supervision: dict = {}
    if heartbeat_dir is not None:
        supervision["heartbeat_dir"] = heartbeat_dir
    if heartbeat_interval is not None:
        supervision["heartbeat_interval"] = heartbeat_interval
    if stale_after is not None:
        supervision["stale_after"] = stale_after
    runner = ParallelRunner(
        n_jobs,
        engine=engine,
        timeout=timeout,
        **supervision,
    )
    outcomes = {
        result.circuit: result
        for result in runner.run(
            [
                CircuitJob(
                    name,
                    scale,
                    tuple(HEURISTICS),
                    run_basic=name in basic_names,
                    run_table6=name in table6_names,
                )
                for name in ordered
            ],
            checkpoint=checkpoint,
        )
    }
    basic = {name: outcomes[name].basic for name in basic_names}
    table6 = [outcomes[name].table6 for name in table6_names]
    return ExperimentResults(
        scale=scale.name,
        table1=run_table1(engine=engine),
        table2=run_table2(scale, engine=engine),
        basic=basic,
        table6=table6,
    )
