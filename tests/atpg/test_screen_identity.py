"""Output identity of the generator against reference screening paths.

Every production run is pinned to the sha256 digest of its full structural
fingerprint: test vectors, per-test detections and per-pool counts, so a
single changed RNG draw or screening decision fails.  The digests were
recorded while the int8 cone kernel, the full-netlist justifier and the
per-candidate scalar screens were still selectable in the program and
were asserted to produce this exact output.

Those paths survive here as test-side references, plugged in through the
two seams production screening goes through -- the trial simulator that
:meth:`~repro.sim.batch.BatchSimulator.restricted` returns to the
justifier, and the generator's per-pool ``_stack`` screens -- and every
reference run must reproduce the production run bit for bit:

* ``full-sim``: trial simulations run the full netlist and read the
  consistency/coverage verdicts off its int8 codes;
* ``scalar-screen``: coverage is decided per candidate with
  :meth:`~repro.algebra.triple.Triple.covers` and ``n_delta``/conflicts
  with :class:`~repro.atpg.requirements.RequirementSet`;
* ``full-scalar``: both;
* :class:`TestBackendIdentity`: trial simulations run the int8 cone
  kernel (:meth:`~repro.sim.batch.ConeSimulator.run_codes`) instead of
  the bit-parallel one.

The reference screens take the kernel's :class:`~repro.sim.packed.LaneBatch`,
decode it to int8 codes, and hand back their verdicts as lane masks.
"""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from repro.algebra.ternary import X
from repro.algebra.triple import Triple
from repro.atpg import generator as generator_module
from repro.atpg.generator import AtpgConfig
from repro.atpg.generator import TestGenerator as Generator
from repro.atpg.justify import Justifier
from repro.atpg.requirements import RequirementSet
from repro.circuit.analysis import input_cone, support_inputs
from repro.engine.stats import EngineStats
from repro.faults import build_target_sets
from repro.robustness import Budget, BudgetExceeded
from repro.sim.batch import BatchSimulator, ConeSimulator
from tests.oracle import satisfies

#: (sha256 of repr(fingerprint), test count, detected_by_pool) per run.
PINS = {
    ("s27", "values"): (
        "9b2efa36c897766df207e4dabd01103d9f69153e9c81aae0d1595c4384591f75",
        13,
        (20, 15),
    ),
    ("s27", "length"): (
        "3271029e1548a5aa29c69fa8bac18893d6083398aef06181c3f0fc7c902d860a",
        12,
        (20, 14),
    ),
    ("s27", "arbit"): (
        "280043815ab24a18223ee4b059fd0e0b66173d1dca006009944120e0d23c0ab6",
        12,
        (20, 15),
    ),
    ("c17", "values"): (
        "0843fe40bdbf46b6785a323242cb2513667d009d265c0a9697c926ddb09f7502",
        8,
        (12, 3),
    ),
    ("tiny_chain", "values"): (
        "2342a8bf7e1273fbe1b52b39db161d34646cac3cf23405d5e68e5adc122a31cf",
        20,
        (34, 26),
    ),
}


def fingerprint(result):
    """Full structural fingerprint of a generation run."""
    tests = tuple(
        tuple(sorted(
            (pi, triple.v1, triple.v2, triple.v3)
            for pi, triple in test.assignment.items()
        ))
        for test in result.test_vectors
    )
    detected = tuple(
        tuple(sorted(record.fault.key() for record in generated.detected))
        for generated in result.tests
    )
    return (tests, detected, tuple(result.detected_by_pool))


def pinned(result):
    """The run's fingerprint in the form :data:`PINS` records."""
    fp = fingerprint(result)
    return hashlib.sha256(repr(fp).encode()).hexdigest(), len(fp[0]), fp[2]


def lane_mask(verdicts: np.ndarray) -> int:
    """A boolean verdict per lane as a lane mask (bit j = lane j)."""
    return int.from_bytes(np.packbits(verdicts, bitorder="little").tobytes(), "little")


class Int8ConeScreen:
    """The int8 cone kernel behind the bit-parallel kernel's screen interface."""

    def __init__(self, simulator: BatchSimulator, nodes) -> None:
        self._cone = ConeSimulator(
            simulator, frozenset(input_cone(simulator.netlist, nodes))
        )
        self.support = self._cone.support
        self.n_nodes = self._cone.n_nodes

    def localize(self, compiled, lanes):
        return self._cone.localize(compiled)

    def screen(self, batch, compiled):
        sim = self._cone.run_codes(batch.codes())
        return lane_mask(compiled.consistent_with(sim)), lane_mask(compiled.covered_by(sim))


class FullNetlistScreen:
    """Trial simulation of the whole netlist, no cone restriction."""

    def __init__(self, simulator: BatchSimulator, nodes) -> None:
        netlist = simulator.netlist
        self._simulator = simulator
        self.support = support_inputs(netlist, frozenset(nodes))
        self.n_nodes = simulator.n_nodes
        row_of = {pi: row for row, pi in enumerate(netlist.input_indices)}
        self._rows = np.array([row_of[pi] for pi in self.support], dtype=np.int64)
        self._n_pis = len(netlist.input_indices)

    def localize(self, compiled, lanes):
        return compiled

    def screen(self, batch, compiled):
        codes = batch.codes()
        full = np.full((self._n_pis, 3, codes.shape[2]), X, dtype=np.int8)
        full[self._rows] = codes
        sim = self._simulator.run_codes(full)
        return lane_mask(compiled.consistent_with(sim)), lane_mask(compiled.covered_by(sim))


class ReferenceSimulator(BatchSimulator):
    """A batch simulator whose cone hand-out is a reference ``screen``."""

    def __init__(self, netlist, screen_type) -> None:
        super().__init__(netlist)
        self._screen_type = screen_type

    def restricted(self, nodes):
        return self._screen_type(self, nodes)


class ScalarScreens:
    """Per-candidate stand-in for a pool's ``StackedRequirements``."""

    def __init__(self, records) -> None:
        self._requirements = [record.sens.requirements for record in records]
        self.n_faults = len(self._requirements)

    def covered_single(self, sim_codes):
        values = [Triple.of(*(int(v) for v in codes)) for codes in sim_codes]
        return np.array(
            [satisfies(values, required) for required in self._requirements],
            dtype=bool,
        )

    def delta_against(self, dense_values):
        union = RequirementSet(
            {
                int(node): Triple.of(*(int(v) for v in dense_values[node]))
                for node in np.flatnonzero((dense_values != X).any(axis=1))
            }
        )
        deltas = [union.delta_count(required) for required in self._requirements]
        conflict = np.array([delta is None for delta in deltas], dtype=bool)
        delta = np.array([delta or 0 for delta in deltas], dtype=np.int64)
        return delta, conflict


def run(
    netlist, pools, heuristic, *, seed=11, screen_type=None,
    scalar_screens=False, monkeypatch=None,
):
    """One generation run; ``screen_type`` / ``scalar_screens`` swap in
    the reference trial simulation / candidate screens."""
    config = AtpgConfig(
        heuristic=heuristic, seed=seed, max_secondary_attempts=12
    )
    simulator = (
        BatchSimulator(netlist)
        if screen_type is None
        else ReferenceSimulator(netlist, screen_type)
    )
    justifier = Justifier(netlist, simulator)
    generator = Generator(netlist, config, justifier.simulator, justifier)
    if not scalar_screens:
        return generator.generate(pools)
    with monkeypatch.context() as patch:
        patch.setattr(generator_module, "_stack", ScalarScreens)
        return generator.generate(pools)


def run_variant(netlist, pools, heuristic, full_sim, scalar_screen, monkeypatch):
    return run(
        netlist, pools, heuristic,
        screen_type=FullNetlistScreen if full_sim else None,
        scalar_screens=scalar_screen,
        monkeypatch=monkeypatch,
    )


VARIANTS = [
    pytest.param(True, False, id="full-sim"),
    pytest.param(False, True, id="scalar-screen"),
    pytest.param(True, True, id="full-scalar"),
]


@pytest.fixture(scope="module")
def s27_pools(s27):
    targets = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
    return [targets.p0, targets.p1]


@pytest.fixture(scope="module")
def c17_pools(c17):
    targets = build_target_sets(c17, max_faults=1000, p0_min_faults=10)
    return [targets.p0, targets.p1]


@pytest.fixture(scope="module")
def chain_pools(tiny_chain):
    targets = build_target_sets(tiny_chain, max_faults=200, p0_min_faults=30)
    return [targets.p0, targets.p1]


class TestPinnedOutput:
    @pytest.mark.parametrize("heuristic", ["values", "length", "arbit"])
    def test_s27(self, s27, s27_pools, heuristic):
        result = run(s27, s27_pools, heuristic)
        assert pinned(result) == PINS[("s27", heuristic)]

    def test_c17(self, c17, c17_pools):
        result = run(c17, c17_pools, "values")
        assert pinned(result) == PINS[("c17", "values")]

    def test_synthetic_proxy(self, tiny_chain, chain_pools):
        """One chain-style proxy circuit -- the experiments' circuit family."""
        result = run(tiny_chain, chain_pools, "values")
        assert pinned(result) == PINS[("tiny_chain", "values")]


class TestGeneratorIdentity:
    @pytest.mark.parametrize("heuristic", ["values", "length", "arbit"])
    @pytest.mark.parametrize("full_sim,scalar_screen", VARIANTS)
    def test_s27(
        self, s27, s27_pools, heuristic, full_sim, scalar_screen, monkeypatch
    ):
        reference = run(s27, s27_pools, heuristic)
        variant = run_variant(
            s27, s27_pools, heuristic, full_sim, scalar_screen, monkeypatch
        )
        assert fingerprint(variant) == fingerprint(reference)

    @pytest.mark.parametrize("full_sim,scalar_screen", VARIANTS)
    def test_c17(self, c17, c17_pools, full_sim, scalar_screen, monkeypatch):
        reference = run(c17, c17_pools, "values")
        variant = run_variant(
            c17, c17_pools, "values", full_sim, scalar_screen, monkeypatch
        )
        assert fingerprint(variant) == fingerprint(reference)

    @pytest.mark.parametrize("full_sim,scalar_screen", VARIANTS)
    def test_synthetic_proxy(
        self, tiny_chain, chain_pools, full_sim, scalar_screen, monkeypatch
    ):
        """One chain-style proxy circuit -- the experiments' circuit family."""
        reference = run(tiny_chain, chain_pools, "values")
        variant = run_variant(
            tiny_chain, chain_pools, "values", full_sim, scalar_screen, monkeypatch
        )
        assert fingerprint(variant) == fingerprint(reference)

    def test_seed_changes_output(self, s27, s27_pools):
        """Sanity: the fingerprint is sensitive enough to notice RNG drift."""
        a = run(s27, s27_pools, "values")
        b = run(s27, s27_pools, "values", seed=12)
        assert fingerprint(a) != fingerprint(b)


class TestBackendIdentity:
    """The bit-parallel kernel must reproduce the int8 cone kernel bit for bit."""

    def _int8(self, netlist, pools, heuristic):
        return run(netlist, pools, heuristic, screen_type=Int8ConeScreen)

    @pytest.mark.parametrize("heuristic", ["values", "length", "arbit"])
    def test_s27(self, s27, s27_pools, heuristic):
        reference = self._int8(s27, s27_pools, heuristic)
        packed = run(s27, s27_pools, heuristic)
        assert fingerprint(packed) == fingerprint(reference)

    def test_c17(self, c17, c17_pools):
        reference = self._int8(c17, c17_pools, "values")
        packed = run(c17, c17_pools, "values")
        assert fingerprint(packed) == fingerprint(reference)

    def test_synthetic_proxy(self, tiny_chain, chain_pools):
        reference = self._int8(tiny_chain, chain_pools, "values")
        packed = run(tiny_chain, chain_pools, "values")
        assert fingerprint(packed) == fingerprint(reference)


class RoundDeadline(Budget):
    """A deadline that expires after ``checks`` per-round deadline checks."""

    def __init__(self, checks: int) -> None:
        super().__init__(deadline_seconds=3600.0)
        self.checks = checks

    def check_deadline(self, phase, **progress):
        self.checks -= 1
        if self.checks < 0:
            self.cancel()
        super().check_deadline(phase, **progress)


def budget_run(netlist, pools, budget, screen_type=None):
    """A values run under ``budget``; returns the result and its stats."""
    stats = EngineStats()
    simulator = (
        BatchSimulator(netlist)
        if screen_type is None
        else ReferenceSimulator(netlist, screen_type)
    )
    justifier = Justifier(netlist, simulator, stats=stats)
    config = AtpgConfig(heuristic="values", seed=11, max_secondary_attempts=12)
    generator = Generator(netlist, config, simulator, justifier)
    return generator.generate(pools, budget=budget), stats


class TestBudgetParity:
    """Fixpoint rounds are the budget's unit, so the kernel must run the
    per-round int8 reference's rounds one for one: a ``node_limit`` or a
    deadline trips at the same round and aborts the same faults."""

    def assert_same(self, netlist, pools, make_budget, counter):
        result, stats = budget_run(netlist, pools, make_budget())
        reference, reference_stats = budget_run(
            netlist, pools, make_budget(), Int8ConeScreen
        )
        assert fingerprint(result) == fingerprint(reference)
        assert result.aborted_faults == reference.aborted_faults
        assert stats.counter(counter) == reference_stats.counter(counter)
        assert stats.counter(counter) > 0
        return result

    @pytest.mark.parametrize("node_limit", [1, 2, 4])
    def test_node_limit(self, tiny_chain, chain_pools, node_limit):
        result = self.assert_same(
            tiny_chain, chain_pools, lambda: Budget(node_limit=node_limit),
            "budget.node_limit_trips",
        )
        assert any(fault.reason == "node_limit" for fault in result.aborted_faults)

    @pytest.mark.parametrize("checks", [5, 60, 400])
    def test_deadline(self, tiny_chain, chain_pools, checks):
        self.assert_same(
            tiny_chain, chain_pools, lambda: RoundDeadline(checks),
            "budget.deadline_trips",
        )

    def test_justify_trips_at_the_same_round(self, tiny_chain, chain_pools):
        """One justification at a time: the trip's reported progress (the
        round it stopped at) equals the reference's."""
        records = [record for pool in chain_pools for record in pool][:40]
        trips = 0
        for node_limit in (1, 3, 6):
            for record in records:
                outcomes = []
                for simulator in (
                    BatchSimulator(tiny_chain),
                    ReferenceSimulator(tiny_chain, Int8ConeScreen),
                ):
                    justifier = Justifier(tiny_chain, simulator)
                    try:
                        found = justifier.justify(
                            RequirementSet(record.sens.requirements),
                            random.Random(3),
                            Budget(node_limit=node_limit),
                        )
                        outcomes.append(None if found is None else found.stats)
                    except BudgetExceeded as exc:
                        outcomes.append((exc.reason, exc.phase, exc.progress))
                assert outcomes[0] == outcomes[1]
                trips += isinstance(outcomes[0], tuple)
        assert trips > 0
