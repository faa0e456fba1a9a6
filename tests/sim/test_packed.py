"""Bit-parallel {0,1,x} kernel against the int8 reference.

The kernel is the only trial-simulation path of the justifier and the
implication filter: on every cone, every {0,1,x} input batch and every
lane count it must reproduce the int8 level kernel
(:meth:`ConeSimulator.run_codes`) exactly -- ``run_codes`` values and
``screen`` verdicts (against ``consistent_with`` / ``covered_by``) alike.
Hypothesis draws random circuits over every gate type, including
XOR/XNOR wider than two inputs, BUF, NOT and the constants, and cones of
zero, one and many inputs.  Lanes never interact: a lane's value does not
depend on the batch around it, which is what lets the implication filter
share one simulation between many requirement sets.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.ternary import ONE, X, ZERO
from repro.algebra.triple import Triple
from repro.circuit import GateType, build_netlist
from repro.circuit.analysis import input_cone
from repro.engine.stats import EngineStats
from repro.sim.batch import BatchSimulator, ConeSimulator
from repro.sim.cover import CompiledRequirements
from repro.sim.packed import LaneBatch, PackedConeSimulator, decode, lane_masks

GATES = [
    GateType.AND, GateType.NAND, GateType.OR, GateType.NOR,
    GateType.XOR, GateType.XNOR, GateType.BUF, GateType.NOT,
    GateType.CONST0, GateType.CONST1,
]
CODES = (ZERO, ONE, X)
#: Lane counts around the int sizes that matter: single lane, a 64-bit
#: digit (x3 positions), and widths that straddle them.
WIDTHS = st.sampled_from([1, 2, 5, 21, 22, 31, 64, 65, 130])


@st.composite
def circuits(draw):
    """A random netlist over every gate type (0-5 inputs, 1-14 gates)."""
    n_inputs = draw(st.integers(0, 5))
    names = [f"i{index}" for index in range(n_inputs)]
    gates = []
    for index in range(draw(st.integers(1, 14))):
        gate = draw(st.sampled_from(GATES))
        if not names or gate in (GateType.CONST0, GateType.CONST1):
            gate = draw(st.sampled_from([GateType.CONST0, GateType.CONST1]))
            fanin = []
        else:
            arity = 1 if gate in (GateType.BUF, GateType.NOT) else draw(st.integers(1, 4))
            fanin = draw(st.lists(st.sampled_from(names), min_size=arity, max_size=arity))
        names.append(f"g{index}")
        gates.append((f"g{index}", gate, fanin))
    inputs = [f"i{index}" for index in range(n_inputs)]
    return build_netlist("hyp", inputs=inputs, gates=gates, outputs=[gates[-1][0]])


def drawn_cone(data, netlist) -> ConeSimulator:
    seeds = data.draw(
        st.lists(st.integers(0, len(netlist) - 1), min_size=1, max_size=3), label="seeds"
    )
    return ConeSimulator(BatchSimulator(netlist), frozenset(input_cone(netlist, seeds)))


def drawn_codes(data, rows: int, k: int) -> np.ndarray:
    values = data.draw(
        st.lists(st.sampled_from(CODES), min_size=rows * 3 * k, max_size=rows * 3 * k),
        label="codes",
    )
    return np.array(values, dtype=np.int8).reshape(rows, 3, k)


def drawn_requirements(data, cone) -> CompiledRequirements:
    nodes = data.draw(
        st.lists(st.sampled_from(cone.nodes.tolist()), max_size=4, unique=True),
        label="required nodes",
    )
    return CompiledRequirements(
        {
            node: Triple.of(*data.draw(st.tuples(*[st.sampled_from(CODES)] * 3)))
            for node in nodes
        }
    )


def lane_bools(mask: int, k: int) -> np.ndarray:
    return np.array([mask >> lane & 1 for lane in range(k)], dtype=bool)


#: Batch widths of the encode/decode round trip.
AWKWARD_WIDTHS = (1, 5, 31, 32, 33, 63, 64, 65, 70)


class TestPacking:
    """:class:`LaneBatch` encoding: codes to plane ints and back."""

    @pytest.mark.parametrize("k", AWKWARD_WIDTHS)
    def test_round_trip(self, k):
        codes = np.random.default_rng(k).integers(0, 3, size=(7, 3, k)).astype(np.int8)
        batch = LaneBatch.from_codes(codes)
        assert batch.shape == (7, 3, k)
        assert np.array_equal(batch.codes(), codes)

    def test_padding_lanes_are_zero(self):
        # No plane carries a bit outside its 3 * K lane bits.
        batch = LaneBatch.from_codes(np.full((2, 3, 3), ONE, dtype=np.int8))
        assert batch.planes == [(1 << 9) - 1] * 4

    def test_invalid_plane_pair_decodes_as_x(self):
        # (d1=1, p1=0) is never produced; a defensive decode maps it to x
        # rather than inventing a definite value.
        assert np.all(decode([0b111, 0], ((0, 1),)) == X)


class TestKernelEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(netlist=circuits(), data=st.data())
    def test_run_codes_matches_numpy(self, netlist, data):
        cone = drawn_cone(data, netlist)
        codes = drawn_codes(data, len(cone.pi_index), data.draw(WIDTHS, label="k"))
        packed = PackedConeSimulator(cone)
        assert np.array_equal(packed.run_codes(codes), cone.run_codes(codes))

    @settings(max_examples=150, deadline=None)
    @given(netlist=circuits(), data=st.data())
    def test_screen_matches_reference_predicates(self, netlist, data):
        cone = drawn_cone(data, netlist)
        k = data.draw(WIDTHS, label="k")
        codes = drawn_codes(data, len(cone.pi_index), k)
        compiled = drawn_requirements(data, cone)
        packed = PackedConeSimulator(cone)
        consistent, covered = packed.screen(
            LaneBatch.from_codes(codes), packed.localize(compiled, k)
        )
        reference = cone.run_codes(codes)
        local = cone.localize(compiled)
        assert np.array_equal(lane_bools(consistent, k), local.consistent_with(reference))
        assert np.array_equal(lane_bools(covered, k), local.covered_by(reference))
        assert consistent >> k == covered >> k == 0

    @pytest.mark.parametrize("gate", GATES, ids=lambda gate: gate.value)
    def test_every_gate_on_every_input_combination(self, gate):
        """Exhaustive truth tables: one lane per {0,1,x}^arity combination,
        the three positions rotated so each sees every combination."""
        arity = {GateType.CONST0: 0, GateType.CONST1: 0, GateType.BUF: 1,
                 GateType.NOT: 1}.get(gate, 3)
        inputs = [f"i{index}" for index in range(arity)]
        netlist = build_netlist(
            gate.value, inputs=inputs, gates=[("y", gate, inputs)], outputs=["y"]
        )
        cone = ConeSimulator(BatchSimulator(netlist), frozenset(range(len(netlist))))
        combos = np.array(list(itertools.product(CODES, repeat=arity)), dtype=np.int8)
        lanes = max(1, len(combos))
        codes = np.empty((arity, 3, lanes), dtype=np.int8)
        for position in range(3):
            codes[:, position, :] = np.roll(combos, position, axis=0).T
        packed = PackedConeSimulator(cone)
        assert np.array_equal(packed.run_codes(codes), cone.run_codes(codes))

    @settings(max_examples=40, deadline=None)
    @given(netlist=circuits(), data=st.data())
    def test_widening_a_batch_never_disturbs_earlier_columns(self, netlist, data):
        cone = drawn_cone(data, netlist)
        k = data.draw(WIDTHS, label="k")
        extra = data.draw(st.integers(1, 40), label="extra")
        rows = len(cone.pi_index)
        codes = drawn_codes(data, rows, k)
        packed = PackedConeSimulator(cone)
        wide = np.concatenate([codes, drawn_codes(data, rows, extra)], axis=2)
        assert np.array_equal(packed.run_codes(wide)[:, :, :k], packed.run_codes(codes))

    def test_rejects_bad_shape(self, c17):
        cone = BatchSimulator(c17).restricted([3])
        with pytest.raises(ValueError):
            cone.run_codes(np.zeros((len(cone.pi_index) + 1, 3, 4), dtype=np.int8))


class TestCones:
    def test_zero_input_cone(self):
        netlist = build_netlist(
            "consts", inputs=["a"],
            gates=[("one", GateType.CONST1, []), ("zero", GateType.CONST0, []),
                   ("n", GateType.NAND, ["one", "zero"]), ("g", GateType.AND, ["a", "n"])],
            outputs=["g"],
        )
        cone = BatchSimulator(netlist).restricted([netlist.index_of("n")])
        assert cone.support == []
        values = cone.run_codes(np.empty((0, 3, 3), dtype=np.int8))
        row = {int(node): i for i, node in enumerate(cone.nodes)}
        assert (values[row[netlist.index_of("n")]] == ONE).all()
        assert (values[row[netlist.index_of("zero")]] == ZERO).all()
        required = CompiledRequirements({netlist.index_of("n"): Triple.parse("111")})
        verdicts = cone.screen(LaneBatch([], ((0, 3),)), cone.localize(required, 3))
        assert verdicts == (0b111, 0b111)

    def test_one_input_cone(self):
        netlist = build_netlist(
            "one_in", inputs=["a", "b"],
            gates=[("n", GateType.NOT, ["a"]), ("x", GateType.XNOR, ["a", "n", "a"]),
                   ("g", GateType.OR, ["x", "b"])],
            outputs=["g"],
        )
        sim = BatchSimulator(netlist)
        cone = sim.restricted([netlist.index_of("x")])
        assert cone.support == [netlist.index_of("a")]
        codes = np.array([[[ZERO, ONE, X]] * 3], dtype=np.int8)
        reference = ConeSimulator(sim, frozenset(input_cone(netlist, [netlist.index_of("x")])))
        assert np.array_equal(cone.run_codes(codes), reference.run_codes(codes))


class TestLaneIndependence:
    @settings(max_examples=60, deadline=None)
    @given(netlist=circuits(), data=st.data())
    def test_each_lane_equals_its_own_simulation(self, netlist, data):
        cone = drawn_cone(data, netlist)
        k = data.draw(st.integers(1, 70), label="k")
        codes = drawn_codes(data, len(cone.pi_index), k)
        packed = PackedConeSimulator(cone)
        together = packed.run_codes(codes)
        for lane in range(k):
            alone = packed.run_codes(codes[:, :, lane : lane + 1])
            assert np.array_equal(together[:, :, lane], alone[:, :, 0])

    @settings(max_examples=60, deadline=None)
    @given(netlist=circuits(), data=st.data())
    def test_segments_screen_like_separate_batches(self, netlist, data):
        """Segments laid side by side, each with its own requirements,
        give each segment the verdicts of its own batch."""
        cone = drawn_cone(data, netlist)
        packed = PackedConeSimulator(cone)
        rows = len(cone.pi_index)
        parts = []
        for _ in range(data.draw(st.integers(1, 4), label="segments")):
            k = data.draw(WIDTHS, label="k")
            batch = LaneBatch.from_codes(drawn_codes(data, rows, k))
            patterns = packed.patterns(drawn_requirements(data, cone))
            parts.append((k, batch, patterns))
        planes = [0] * (2 * rows)
        masks, segments, first = [], [], 0
        for k, batch, patterns in parts:
            for index, plane in enumerate(batch.planes):
                planes[index] |= plane << 3 * first
            masks += lane_masks(patterns, k, 3 * first)
            segments.append((first, k))
            first += k
        consistent, covered = packed.screen(LaneBatch(planes, segments), masks)
        for (k, batch, patterns), (first, _) in zip(parts, segments):
            alone = packed.screen(batch, lane_masks(patterns, k))
            lane = (1 << k) - 1
            assert (consistent >> first & lane, covered >> first & lane) == alone

class TestDispatch:
    def test_packed_backend_wraps_cones(self, c17):
        sim = BatchSimulator(c17)
        cone = sim.restricted([3])
        assert isinstance(cone, PackedConeSimulator)
        reference = ConeSimulator(sim, frozenset(input_cone(c17, [3])))
        assert cone.nodes.tolist() == reference.nodes.tolist()
        assert cone.support == reference.support

    def test_packed_simulator_cached_per_cone(self, c17):
        stats = EngineStats()
        sim = BatchSimulator(c17, stats=stats)
        assert not sim._cone_by_cone  # kernels compile lazily, per cone
        assert sim.restricted([3]) is sim.restricted([3])
        assert stats.counter("cone.compile") == 1
        assert stats.counter("backend.packed.cones") == 1


class TestStats:
    def test_backend_counters(self, c17):
        stats = EngineStats()
        sim = BatchSimulator(c17, stats=stats)
        cone = sim.restricted([3])
        cone.run_codes(np.full((len(cone.pi_index), 3, 5), X, dtype=np.int8))
        assert stats.counter("backend.packed.cones") == 1
        assert stats.counter("backend.packed.runs") == 1
        assert stats.counter("backend.packed.columns") == 5
        assert stats.counter("backend.packed.words") == 1  # 15 bits a plane
        # The shared batch/cone series count kernel runs too.
        assert stats.counter("batch.runs") == 1
        assert stats.counter("cone.runs") == 1

    def test_columns_count_the_callers_shape(self, c17):
        stats = EngineStats()
        cone = BatchSimulator(c17, stats=stats).restricted([3])
        rows = len(cone.pi_index)
        batch = LaneBatch([0, (1 << 66) - 1] * rows, ((0, 22),), columns=7)
        cone.screen(batch, [])
        assert stats.counter("backend.packed.columns") == 7
        assert stats.counter("backend.packed.words") == 2  # 66 bits a plane
