"""Tests for robust path-delay-fault simulation."""

import itertools
import random

import numpy as np
import pytest

from repro.algebra import Triple
from repro.faults import build_target_sets
from repro.sim import FaultSimulator, TwoPatternTest, detected_count, detection_matrix
from tests import oracle


def exhaustive_tests(netlist):
    """All 4^n fully specified two-pattern tests (n inputs small!)."""
    pis = netlist.input_indices
    tests = []
    for combo in itertools.product(range(4), repeat=len(pis)):
        assignment = {}
        for pi, value in zip(pis, combo):
            v1, v3 = divmod(value, 2)
            assignment[pi] = Triple.transition(v1, v3)
        tests.append(TwoPatternTest(assignment))
    return tests


@pytest.fixture(scope="module")
def c17_targets(c17):
    return build_target_sets(c17, max_faults=10_000, p0_min_faults=1)


class TestDetection:
    def test_matrix_shape(self, s27):
        targets = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
        simulator = FaultSimulator(s27, targets.all_records)
        tests = [
            TwoPatternTest(
                {pi: Triple.stable(0) for pi in s27.input_indices}
            )
        ]
        matrix = simulator.detection_matrix(tests)
        assert matrix.shape == (len(targets.all_records), 1)

    def test_stable_test_detects_nothing(self, s27):
        # A test with no transitions cannot launch any path delay fault.
        targets = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
        simulator = FaultSimulator(s27, targets.all_records)
        tests = [
            TwoPatternTest({pi: Triple.stable(1) for pi in s27.input_indices})
        ]
        assert simulator.detected_mask(tests).sum() == 0

    def test_empty_test_set(self, s27):
        targets = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
        simulator = FaultSimulator(s27, targets.all_records)
        assert simulator.detection_matrix([]).shape[1] == 0
        assert simulator.detected_mask([]).sum() == 0
        assert simulator.coverage([]) == (0, len(targets.all_records))

    def test_known_c17_detection(self, c17):
        # Hand-constructed: path (N1, N10, N22) slow-to-rise requires
        # N3 steady 1 (NAND side, rise ends non-controlling... rise at
        # NAND input going 0->1 ends at controlling-complement) and N16
        # final 1.  Just verify one directed test detects the fault and
        # the all-stable test does not.
        from repro.faults import Path, PathDelayFault, Transition, sensitize

        fault = PathDelayFault(
            Path.from_names(c17, ["N1", "N10", "N22"]), Transition.RISE
        )
        sens = sensitize(c17, fault)
        assert sens is not None
        from repro.faults.universe import FaultRecord

        record = FaultRecord(fault, sens)
        simulator = FaultSimulator(c17, [record])
        # Build a test straight from the requirements; free inputs stable 0.
        assignment = {pi: Triple.stable(0) for pi in c17.input_indices}
        for node, triple in sens.requirements.items():
            if c17.node_at(node).is_input:
                assignment[node] = (
                    triple
                    if triple.is_fully_specified() or triple.is_transition()
                    else Triple.stable(triple.v3)
                )
        # N16 = NAND(N2, N11) needs final value 1: set N2 = 0.
        test = TwoPatternTest(assignment)
        assert simulator.detected_mask([test])[0]

    def test_detected_records_subset(self, s27):
        targets = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
        simulator = FaultSimulator(s27, targets.all_records)
        rng = random.Random(5)
        tests = [
            TwoPatternTest(
                {
                    pi: Triple.transition(rng.randint(0, 1), rng.randint(0, 1))
                    for pi in s27.input_indices
                }
            )
            for _ in range(50)
        ]
        detected = simulator.detected_records(tests)
        assert set(r.fault.key() for r in detected) <= {
            r.fault.key() for r in targets.all_records
        }
        count, total = simulator.coverage(tests)
        assert count == len(detected)
        assert total == len(targets.all_records)

    def test_convenience_wrappers(self, s27):
        targets = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
        tests = [
            TwoPatternTest({pi: Triple.stable(0) for pi in s27.input_indices})
        ]
        matrix = detection_matrix(s27, targets.all_records, tests)
        assert matrix.shape[1] == 1
        assert detected_count(s27, targets.all_records, tests) == 0


class TestExhaustiveGroundTruth:
    """c17 is small enough to know the absolute truth by brute force."""

    def test_detectability_matches_bnb(self, c17, c17_targets):
        """A fault is detected by some exhaustive test iff branch-and-bound
        proves its requirement set satisfiable."""
        from repro.atpg import BranchAndBoundJustifier, RequirementSet

        tests = exhaustive_tests(c17)
        simulator = FaultSimulator(c17, c17_targets.all_records)
        detected = simulator.detected_mask(tests)
        bnb = BranchAndBoundJustifier(c17)
        for record, hit in zip(c17_targets.all_records, detected):
            provable = bnb.is_satisfiable(
                RequirementSet(record.sens.requirements), node_limit=100_000
            )
            assert provable == bool(hit), record.fault.format(c17)


def random_tests(netlist, n, seed):
    rng = random.Random(seed)
    return [
        TwoPatternTest(
            {
                pi: Triple.transition(rng.randint(0, 1), rng.randint(0, 1))
                for pi in netlist.input_indices
            }
        )
        for _ in range(n)
    ]


class TestVectorizedCovering:
    """The stacked kernel must agree with the scalar oracle exactly."""

    def test_s27_universe_agrees(self, s27):
        targets = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
        tests = random_tests(s27, 40, seed=11)
        simulator = FaultSimulator(s27, targets.all_records)
        assert np.array_equal(
            simulator.detection_matrix(tests),
            oracle.detection_matrix(s27, targets.all_records, tests),
        )

    def test_c17_universe_agrees(self, c17, c17_targets):
        tests = random_tests(c17, 60, seed=3)
        simulator = FaultSimulator(c17, c17_targets.all_records)
        matrix = simulator.detection_matrix(tests)
        assert matrix.any()
        assert np.array_equal(
            matrix, oracle.detection_matrix(c17, c17_targets.all_records, tests)
        )


class TestSharedCache:
    def test_one_shot_calls_share_simulator(self, s27):
        from repro.sim.faultsim import shared_fault_simulator

        targets = build_target_sets(s27, max_faults=200, p0_min_faults=5)
        first = shared_fault_simulator(s27, targets.all_records)
        second = shared_fault_simulator(s27, targets.all_records)
        assert first is second

    def test_pool_workers_bypass_cache(self, s27):
        from repro.sim import faultsim

        targets = build_target_sets(s27, max_faults=200, p0_min_faults=5)
        before = dict(faultsim._shared)
        faultsim.mark_pool_worker(True)
        try:
            first = faultsim.shared_fault_simulator(s27, targets.all_records)
            second = faultsim.shared_fault_simulator(s27, targets.all_records)
            assert first is not second
            assert dict(faultsim._shared) == before  # untouched
        finally:
            faultsim.mark_pool_worker(False)

    def test_concurrent_access_is_safe(self, s27):
        import threading

        from repro.sim.faultsim import shared_fault_simulator

        populations = [
            build_target_sets(s27, max_faults=cap, p0_min_faults=5).all_records
            for cap in (40, 60, 80, 100)
        ]
        errors = []

        def hammer(records):
            try:
                for _ in range(20):
                    shared_fault_simulator(s27, records)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(pop,))
            for pop in populations
            for _ in range(2)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
