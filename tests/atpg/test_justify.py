"""Tests for the simulation-based justification engine."""

import random

from repro.algebra import Triple
from repro.atpg import (
    Justifier,
    RequirementSet,
    has_implication_conflict,
)
from repro.circuit import GateType, build_netlist
from repro.faults import build_target_sets
from repro.sim import CompiledRequirements


def rng():
    return random.Random(0)


class TestBasicJustification:
    def test_single_line_requirement(self, c17):
        justifier = Justifier(c17)
        requirements = RequirementSet(
            {c17.index_of("N10"): Triple.parse("xx0")}
        )
        result = justifier.justify(requirements, rng())
        assert result is not None
        assert result.test.is_fully_specified(c17)
        assert requirements.compiled().covered_by(result.sim_codes[:, :, None])[0]

    def test_transition_requirement(self, c17):
        justifier = Justifier(c17)
        requirements = RequirementSet(
            {c17.index_of("N22"): Triple.parse("0x1")}
        )
        result = justifier.justify(requirements, rng())
        assert result is not None
        assert requirements.compiled().covered_by(result.sim_codes[:, :, None])[0]

    def test_unsatisfiable_direct(self, c17):
        justifier = Justifier(c17)
        # N10 = NAND(N1, N3) cannot be steady 0 with N1 steady 0.
        requirements = RequirementSet(
            {
                c17.index_of("N1"): Triple.parse("000"),
                c17.index_of("N10"): Triple.parse("000"),
            }
        )
        assert justifier.justify(requirements, rng()) is None

    def test_every_p0_success_covers(self, s27):
        targets = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
        justifier = Justifier(s27)
        r = rng()
        successes = 0
        for record in targets.p0:
            requirements = RequirementSet(record.sens.requirements)
            result = justifier.justify(requirements, r)
            if result is None:
                continue
            successes += 1
            compiled = CompiledRequirements(record.sens.requirements)
            assert compiled.covered_by(result.sim_codes[:, :, None])[0]
        assert successes > 0

    def test_deterministic_given_seed(self, s27):
        targets = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
        record = targets.p0[0]
        justifier = Justifier(s27)
        a = justifier.justify(
            RequirementSet(record.sens.requirements), random.Random(7)
        )
        b = justifier.justify(
            RequirementSet(record.sens.requirements), random.Random(7)
        )
        assert a is not None and b is not None
        assert a.test == b.test

    def test_stats_populated(self, s27):
        targets = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
        justifier = Justifier(s27)
        result = justifier.justify(
            RequirementSet(targets.p0[0].sens.requirements), rng()
        )
        assert result is not None
        assert result.stats.simulations >= 1
        assert result.stats.rounds >= 1

    def test_empty_requirements(self, c17):
        justifier = Justifier(c17)
        result = justifier.justify(RequirementSet(), rng())
        assert result is not None
        assert result.test.is_fully_specified(c17)


class TestNecessaryValues:
    def test_forced_pi_assignment(self):
        # y = AND(a, b); require y = 111 -> both inputs forced steady 1.
        netlist = build_netlist(
            "force",
            inputs=["a", "b"],
            gates=[("y", GateType.AND, ["a", "b"])],
            outputs=["y"],
        )
        justifier = Justifier(netlist)
        result = justifier.justify(
            RequirementSet({netlist.index_of("y"): Triple.parse("111")}), rng()
        )
        assert result is not None
        assert result.test.triple_for(netlist.index_of("a")) is Triple.parse("111")
        assert result.test.triple_for(netlist.index_of("b")) is Triple.parse("111")
        # With both endpoints forced there should be no random decisions.
        assert result.stats.decisions == 0

    def test_requirement_on_pi_directly(self, c17):
        justifier = Justifier(c17)
        result = justifier.justify(
            RequirementSet({c17.index_of("N1"): Triple.parse("0x1")}), rng()
        )
        assert result is not None
        assert result.test.triple_for(c17.index_of("N1")) is Triple.parse("0x1")


class TestImplicationConflict:
    def test_no_conflict_on_satisfiable(self, s27):
        targets = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
        assert not has_implication_conflict(
            s27, RequirementSet(targets.p0[0].sens.requirements)
        )

    def test_conflict_detected(self):
        netlist = build_netlist(
            "confl",
            inputs=["a"],
            gates=[
                ("g1", GateType.NOT, ["a"]),
                ("g2", GateType.AND, ["a", "g1"]),
            ],
            outputs=["g2"],
        )
        requirements = RequirementSet(
            {
                netlist.index_of("a"): Triple.parse("0x1"),
                netlist.index_of("g1"): Triple.parse("111"),
            }
        )
        assert has_implication_conflict(netlist, requirements)

    def test_accepts_justifier_instance(self, c17):
        justifier = Justifier(c17)
        assert not has_implication_conflict(justifier, RequirementSet())

    def test_sound_vs_brute_force(self, c17):
        """Anything flagged undetectable by implications must really have
        no test (cross-check with exhaustive simulation)."""
        import itertools

        from repro.sim import FaultSimulator, TwoPatternTest

        targets = build_target_sets(c17, max_faults=10_000, p0_min_faults=1)
        justifier = Justifier(c17)
        tests = []
        for combo in itertools.product(range(4), repeat=5):
            assignment = {}
            for pi, value in zip(c17.input_indices, combo):
                v1, v3 = divmod(value, 2)
                assignment[pi] = Triple.transition(v1, v3)
            tests.append(TwoPatternTest(assignment))
        simulator = FaultSimulator(c17, targets.all_records)
        detected = simulator.detected_mask(tests)
        for record, hit in zip(targets.all_records, detected):
            flagged = has_implication_conflict(
                justifier, RequirementSet(record.sens.requirements)
            )
            if flagged:
                assert not hit, record.fault.format(c17)
