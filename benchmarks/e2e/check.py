"""Independent output checks for the end-to-end benchmark.

The program's own counts come from its vectorized simulators.  This
module re-derives them the slow, obvious way: every emitted test is
re-simulated with the scalar reference simulator
(:func:`repro.sim.scalar.simulate_triples`), and a fault counts as
detected when some test's simulated values cover every requirement of
its ``A(p)`` (:meth:`repro.algebra.triple.Triple.covers`) -- the paper's
necessary-and-sufficient robust detection condition.

:class:`Capture` records, from outside the program, what each generation
call was given and returned, so the checks run after the timed phase on
exactly the objects the timed phase produced.
"""

from __future__ import annotations

import hashlib
import json

from repro.engine.session import CircuitSession
from repro.sim.scalar import simulate_triples

__all__ = [
    "Capture",
    "check_generation",
    "check_runs",
    "check_target_sets",
    "digest",
    "tests_fingerprint",
]


def digest(payload) -> str:
    """Stable short digest of a JSON-ready payload."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def tests_fingerprint(result) -> str:
    """Digest of a generation result's test patterns, in emission order."""
    netlist = result.netlist
    return digest([generated.test.patterns(netlist) for generated in result.tests])


class Capture:
    """Records target sets and generation runs made through a session.

    ``take()`` returns and clears the events since the previous call:
    ``("targets", TargetSets)`` for every ``target_sets`` return and
    ``("run", pools, result)`` for every generation call, where ``pools``
    are the target pools the run started from.
    """

    def __init__(self) -> None:
        self.events: list[tuple] = []
        self._originals: dict[str, object] = {}

    def install(self) -> "Capture":
        events = self.events
        target_sets = CircuitSession.target_sets
        generate_basic = CircuitSession.generate_basic
        generate_enriched = CircuitSession.generate_enriched

        def captured_target_sets(session, *args, **kwargs):
            targets = target_sets(session, *args, **kwargs)
            events.append(("targets", targets))
            return targets

        def captured_basic(session, records, *args, **kwargs):
            result = generate_basic(session, records, *args, **kwargs)
            events.append(("run", [records], result))
            return result

        def captured_enriched(session, targets, *args, **kwargs):
            report = generate_enriched(session, targets, *args, **kwargs)
            events.append(("run", [targets.p0, targets.p1], report.result))
            return report

        self._originals = {
            "target_sets": target_sets,
            "generate_basic": generate_basic,
            "generate_enriched": generate_enriched,
        }
        CircuitSession.target_sets = captured_target_sets
        CircuitSession.generate_basic = captured_basic
        CircuitSession.generate_enriched = captured_enriched
        return self

    def uninstall(self) -> None:
        for name, original in self._originals.items():
            setattr(CircuitSession, name, original)
        self._originals = {}

    def take(self) -> list[tuple]:
        taken = list(self.events)
        self.events.clear()
        return taken


def _simulate(netlist, test) -> list:
    """Scalar simulation of one test: the triple of every node, by index."""
    values = simulate_triples(
        netlist,
        {netlist.node_at(pi).name: test.triple_for(pi) for pi in netlist.input_indices},
    )
    return [values[netlist.node_at(index).name] for index in range(len(netlist))]


def _detects(values: list, record) -> bool:
    return all(
        values[node].covers(required)
        for node, required in record.sens.requirements.items()
    )


def check_generation(result, pools, universe) -> tuple[list[str], dict]:
    """Re-derive a generation run's detections from its emitted tests.

    ``pools`` are the run's target pools and ``universe`` the ``P0 u P1``
    records the run is graded against.  Returns the problems found and
    the re-derived counts ``{"tests", "detected_by_pool", "detected_p01"}``.
    """
    netlist = result.netlist
    problems = []
    simulated = []
    for position, generated in enumerate(result.tests):
        if not generated.test.is_fully_specified(netlist):
            problems.append(f"test {position} is not fully specified")
        values = _simulate(netlist, generated.test)
        simulated.append(values)
        for record in generated.targeted:
            if not _detects(values, record):
                problems.append(
                    f"test {position} does not detect its target "
                    f"{record.fault.format(netlist)}"
                )

    def detected(records) -> int:
        return sum(any(_detects(values, r) for values in simulated) for r in records)

    derived = {
        "tests": len(result.tests),
        "detected_by_pool": [detected(pool) for pool in pools],
        "detected_p01": detected(universe),
    }
    if derived["detected_by_pool"] != list(result.detected_by_pool):
        problems.append(
            f"detected per pool: program {list(result.detected_by_pool)}, "
            f"checker {derived['detected_by_pool']}"
        )
    return problems, derived


def check_target_sets(targets, max_faults: int, p0_min_faults: int) -> list[str]:
    """The P0/P1 length-partition invariant of the paper's Section 3.1."""
    problems = []
    p0, p1 = targets.p0, targets.p1
    boundary = targets.boundary_length
    keys = [record.fault.key() for record in p0 + p1]
    if len(set(keys)) != len(keys):
        problems.append("P0 and P1 contain duplicate faults")
    if len(keys) > max_faults:
        problems.append(f"|P| = {len(keys)} exceeds N_P = {max_faults}")
    if any(record.length < boundary for record in p0):
        problems.append(f"P0 holds a fault shorter than L_i0 = {boundary}")
    if any(record.length >= boundary for record in p1):
        problems.append(f"P1 holds a fault at least L_i0 = {boundary} long")
    if len(p0) < min(p0_min_faults, len(keys)):
        problems.append(f"|P0| = {len(p0)} is below N_P0 = {p0_min_faults}")
    if sum(record.length > boundary for record in p0) >= p0_min_faults:
        problems.append("a longer boundary would already give N_P0 faults")
    return problems


def check_runs(events: list[tuple]) -> tuple[list[str], list[dict]]:
    """:func:`check_generation` for every captured run, in call order.

    Each run is graded against the ``P0 u P1`` of the captured target sets
    its first pool came from.
    """
    targets = [event[1] for event in events if event[0] == "targets"]
    problems: list[str] = []
    derived: list[dict] = []
    for event in events:
        if event[0] != "run":
            continue
        _, pools, result = event
        universe = next((t.all_records for t in targets if t.p0 is pools[0]), None)
        if universe is None:
            problems.append("a generation run used target sets that were not captured")
            continue
        found, counts = check_generation(result, pools, universe)
        problems += found
        derived.append(counts)
    return problems, derived
