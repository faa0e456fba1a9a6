"""The benchmark's four workloads, each a batch job of checked operations.

A workload is a closed loop with one client: the benchmark runs the
operations of one batch job in order, then the job again, until the
measured period is over.  An operation is one result row of the program
-- a circuit x heuristic run, an enrichment run, a target-set build, Table
1 or 2, or (``tables-pool``) a whole pooled ``run_all``.  Each job builds
its engines afresh, so every operation pays what the same row pays in a
``repro-pdf`` run; repeats of a job are identical computations, which
the benchmark checks too.

Operations call the program only through public entry points, looked up
on their modules at call time so the tracer's wrappers see every call,
and with the program's default settings.

``smoke`` swaps in the paper's tiny s27/c17 circuits and a tiny scale so
the self-tests run every workload in seconds; the code paths are the
same.
"""

from __future__ import annotations

import json
import tempfile
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from typing import Any, Callable

from check import check_runs, check_target_sets, digest
from repro.engine import Engine
from repro.experiments import tables
from repro.experiments.scale import ExperimentScale, get_scale
from repro.experiments.workloads import HEURISTICS

__all__ = ["Op", "OpResult", "Workload", "WORKLOADS"]

#: Scale of the smoke runs: a few dozen faults per circuit.
_TINY = ExperimentScale("smoke", max_faults=40, p0_min_faults=10, max_secondary_attempts=8)
_SMOKE_CIRCUITS = ("s27", "c17")

#: Circuits ``run_table1`` and ``run_table2`` load (their defaults).
_TABLE12_CIRCUITS = ("s27", "s1423_proxy")


@dataclass
class OpResult:
    """What one operation produced.

    ``row`` is the result row with wall-clock fields removed: its digest is
    what the reference file pins.  ``faults`` counts the target faults
    handed to the procedure; ``quality`` is (tests, detected P0, detected
    P0 u P1) summed over the row's generation runs; ``jobs`` the wall
    seconds of each job the parallel runner completed.
    """

    row: Any
    faults: int
    quality: tuple[int, int, int] = (0, 0, 0)
    subject: Any = None
    jobs: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class Op:
    """One operation of a job.

    ``verify(result, events, capture, referenced)`` returns the problems the
    checker finds, given the generation runs captured while the operation
    ran; ``referenced`` tells whether the row digest already matched the
    reference file, which lets a costly check stand down.
    """

    name: str
    run: Callable[[], OpResult]
    verify: Callable[..., list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Circuits the set-up builds (names), by ``smoke``.
    circuits: Callable[[bool], tuple[str, ...]]
    #: The operations of one job, by ``(seed, smoke, work_dir)``.
    job: Callable[[int, bool, str], list[Op]]
    #: Pool workers the program forks (their peak RSS counts too).
    workers: int = 1


def _without_runtime(row) -> dict:
    """``row`` as ``ExperimentResults.canonical_json`` writes it, minus the
    wall-clock fields (empty budget keys are omitted, as there)."""
    payload = asdict(row)
    for entry in [payload, *payload.get("outcomes", {}).values()]:
        entry.pop("runtime_seconds", None)
        for key in ("aborted", "aborted_faults"):
            if key in entry and not entry[key]:
                del entry[key]
    return payload


def _no_check(result, events, capture, referenced) -> list[str]:
    return []


def _compare(label: str, program: dict, checker: dict) -> list[str]:
    return [
        f"{label}: {name} is {program[name]} in the row, {checker[name]} by the checker"
        for name in program
        if program[name] != checker[name]
    ]


def _basic_counts(outcome) -> dict:
    return {"tests": outcome.tests, "p0": outcome.detected_p0, "p01": outcome.detected_p01}


def _table6_counts(row) -> dict:
    return {"tests": row.tests, "p0": row.p0_detected, "p01": row.p01_detected}


def _derived_counts(derived: dict) -> dict:
    return {
        "tests": derived["tests"],
        "p0": derived["detected_by_pool"][0],
        "p01": derived["detected_p01"],
    }


def _verify_rows(label: str, expected: list[dict], events: list[tuple]) -> list[str]:
    """Checker verdicts on the captured runs, compared with the rows' counts."""
    problems, derived = check_runs(events)
    if len(derived) != len(expected):
        return problems + [f"{label}: {len(derived)} runs captured, {len(expected)} rows"]
    for counts, checked in zip(expected, derived):
        problems += _compare(label, counts, _derived_counts(checked))
    return problems


# -- operations ------------------------------------------------------------


def _basic(engine: Engine, circuit: str, scale: ExperimentScale, heuristic: str) -> OpResult:
    row = tables.run_basic_circuit(engine.session(circuit), scale, (heuristic,))
    outcome = row.outcomes[heuristic]
    return OpResult(
        row=_without_runtime(row),
        faults=row.p0_total,
        quality=(outcome.tests, outcome.detected_p0, outcome.detected_p01),
        subject=row,
    )


def _verify_basic(result, events, capture, referenced) -> list[str]:
    (outcome,) = result.subject.outcomes.values()
    return _verify_rows(result.subject.circuit, [_basic_counts(outcome)], events)


def _table6(engine: Engine, circuit: str, scale: ExperimentScale) -> OpResult:
    row = tables.run_table6_circuit(engine.session(circuit), scale)
    return OpResult(
        row=_without_runtime(row),
        faults=row.p01_total,
        quality=(row.tests, row.p0_detected, row.p01_detected),
        subject=row,
    )


def _verify_table6(result, events, capture, referenced) -> list[str]:
    return _verify_rows(result.subject.circuit, [_table6_counts(result.subject)], events)


def _table1(engine: Engine) -> OpResult:
    return OpResult(row=asdict(tables.run_table1(engine=engine)), faults=0)


def _table2(engine: Engine, scale: ExperimentScale) -> OpResult:
    return OpResult(row=asdict(tables.run_table2(scale, engine=engine)), faults=0)


def _target_sets(circuit: str, max_faults: int, p0_min_faults: int) -> OpResult:
    targets = Engine().session(circuit).target_sets(
        max_faults=max_faults, p0_min_faults=p0_min_faults
    )
    row = {
        "circuit": circuit,
        "i0": targets.i0,
        "boundary": targets.boundary_length,
        "p0": len(targets.p0),
        "p1": len(targets.p1),
        "dropped_conflict": targets.dropped_conflict,
        "dropped_implication": targets.dropped_implication,
        "faults": digest([list(r.fault.key()) for r in targets.all_records]),
    }
    return OpResult(row=row, faults=2 * len(targets.enumeration.paths), subject=targets)


def _pooled_tables(
    circuits: tuple[str, ...], scale: ExperimentScale, jobs: int, work_dir: str
) -> OpResult:
    engine = Engine()
    results = tables.run_all(
        scale,
        circuits=circuits,
        table6_circuits=circuits,
        engine=engine,
        jobs=jobs,
        checkpoint_dir=tempfile.mkdtemp(dir=work_dir),
    )
    faults = sum(len(r.outcomes) * r.p0_total for r in results.basic.values())
    faults += sum(row.p01_total for row in results.table6)
    outcomes = [o for r in results.basic.values() for o in r.outcomes.values()]
    quality = (
        sum(o.tests for o in outcomes) + sum(row.tests for row in results.table6),
        sum(o.detected_p0 for o in outcomes) + sum(row.p0_detected for row in results.table6),
        sum(o.detected_p01 for o in outcomes) + sum(row.p01_detected for row in results.table6),
    )
    return OpResult(
        row=json.loads(results.canonical_json()),
        faults=faults,
        quality=quality,
        subject=(circuits, scale),
        jobs=[record["wall_seconds"] for record in engine.job_records],
    )


def _verify_pooled(result, events, capture, referenced) -> list[str]:
    """Without a reference, rerun the sweep in-process (``jobs=1``) under
    the checker: the pooled output must equal it, and it must check out."""
    if referenced:
        return []
    circuits, scale = result.subject
    capture.take()
    serial = tables.run_all(
        scale, circuits=circuits, table6_circuits=circuits, engine=Engine(), jobs=1
    )
    problems = []
    if digest(json.loads(serial.canonical_json())) != digest(result.row):
        problems.append("the pooled output differs from the jobs=1 output")
    expected = []
    for name in circuits:
        expected += [_basic_counts(o) for o in serial.basic[name].outcomes.values()]
        expected.append(_table6_counts(next(r for r in serial.table6 if r.circuit == name)))
    return problems + _verify_rows("jobs=1 rerun", expected, capture.take())


def _verify_target_sets(max_faults: int, p0_min_faults: int):
    def verify(result, events, capture, referenced) -> list[str]:
        return check_target_sets(result.subject, max_faults, p0_min_faults)

    return verify


# -- jobs ------------------------------------------------------------------


def _tables_quick_job(seed: int, smoke: bool, work_dir: str) -> list[Op]:
    circuit = _SMOKE_CIRCUITS[0] if smoke else "s641_proxy"
    scale = replace(_TINY if smoke else get_scale("smoke"), seed=seed)
    engine = Engine()
    ops = [
        Op(f"basic.{h}", partial(_basic, engine, circuit, scale, h), _verify_basic)
        for h in HEURISTICS
    ]
    ops.append(Op("enrich", partial(_table6, engine, circuit, scale), _verify_table6))
    ops.append(Op("table1", partial(_table1, engine), _no_check))
    ops.append(Op("table2", partial(_table2, engine, scale), _no_check))
    return ops


_UNCOMP_CIRCUITS = ("s953_proxy", "s641_proxy", "b04_proxy")


def _atpg_uncomp_job(seed: int, smoke: bool, work_dir: str) -> list[Op]:
    scale = replace(_TINY if smoke else get_scale("default"), seed=seed)
    return [
        Op(f"uncomp.{c}", partial(_basic, Engine(), c, scale, "uncomp"), _verify_basic)
        for c in (_SMOKE_CIRCUITS if smoke else _UNCOMP_CIRCUITS)
    ]


_TARGET_CIRCUITS = ("s953_proxy", "s1423_proxy", "s1423r_proxy", "b04_proxy")


def _paper_p0_min_faults(seed: int) -> int:
    """The paper's N_P0 = 1000 at seed 1; other seeds step it down by 10s
    (to 910), which moves the P0/P1 boundary but not the work."""
    return 1000 - 10 * ((seed - 1) % 10)


def _targets_paper_job(seed: int, smoke: bool, work_dir: str) -> list[Op]:
    if smoke:
        max_faults, p0_min = _TINY.max_faults, _TINY.p0_min_faults
    else:
        max_faults, p0_min = 10_000, _paper_p0_min_faults(seed)
    verify = _verify_target_sets(max_faults, p0_min)
    return [
        Op(f"targets.{c}", partial(_target_sets, c, max_faults, p0_min), verify)
        for c in (_SMOKE_CIRCUITS if smoke else _TARGET_CIRCUITS)
    ]


_POOL_CIRCUITS = ("s953_proxy", "b04_proxy")
_POOL_SCALE = ExperimentScale("smoke", max_faults=120, p0_min_faults=30, max_secondary_attempts=8)
_POOL_JOBS = 2


def _tables_pool_job(seed: int, smoke: bool, work_dir: str) -> list[Op]:
    circuits = _SMOKE_CIRCUITS if smoke else _POOL_CIRCUITS
    scale = replace(_TINY if smoke else _POOL_SCALE, seed=seed)
    return [
        Op(
            "run_all",
            partial(_pooled_tables, circuits, scale, _POOL_JOBS, work_dir),
            _verify_pooled,
        )
    ]


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "tables-quick",
            "every result row of tables --quick (s641_proxy, smoke scale): "
            "compaction-heavy generation, the serial headline",
            lambda smoke: (_SMOKE_CIRCUITS[0] if smoke else "s641_proxy",) + _TABLE12_CIRCUITS,
            _tables_quick_job,
        ),
        Workload(
            "atpg-uncomp",
            "uncompacted generation at default scale on 3 Table-3 circuits: "
            "long justifier searches with no compaction",
            lambda smoke: _SMOKE_CIRCUITS if smoke else _UNCOMP_CIRCUITS,
            _atpg_uncomp_job,
        ),
        Workload(
            "targets-paper",
            "target sets at the paper's N_P=10000 on 4 circuits: enumeration, "
            "sensitization and implication fixpoints, no generation",
            lambda smoke: _SMOKE_CIRCUITS if smoke else _TARGET_CIRCUITS,
            _targets_paper_job,
        ),
        Workload(
            "tables-pool",
            "tables on 2 circuits with jobs=2 and checkpoints: the only path "
            "through the process pool, pickling and stats merge",
            lambda smoke: _SMOKE_CIRCUITS if smoke else _POOL_CIRCUITS,
            _tables_pool_job,
            workers=_POOL_JOBS,
        ),
    )
}
