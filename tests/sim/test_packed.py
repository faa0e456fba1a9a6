"""Packed {0,1,x} cone kernel: packing, kernel equivalence, caching.

The packed kernel is the justifier's only trial-simulation kernel: for
every cone, every {0,1,x} input batch and every batch width (including
widths that do not fill a 64-lane word) it must reproduce the int8
reference kernel (:meth:`ConeSimulator.run_codes`) exactly --
``run_codes`` values and ``screen`` verdicts alike.  Hypothesis drives random synthesized cones through
both; the lane-padding checks mirror the pad-row treatment of the fused
level kernel (widening a batch must not disturb earlier columns).
"""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.ternary import ONE, X, ZERO
from repro.algebra.triple import Triple
from repro.circuit.analysis import input_cone
from repro.circuit.synth import SynthProfile, generate
from repro.engine.stats import EngineStats
from repro.sim.batch import BatchSimulator, ConeSimulator
from repro.sim.cover import CompiledRequirements
from repro.sim.packed import (
    LANES,
    PackedConeSimulator,
    pack_codes,
    unpack_words,
    words_for,
)

#: Batch widths that stress lane padding: single lane, just below/above
#: the historic 32-lane layout, and around one full 64-lane word.
AWKWARD_WIDTHS = (1, 5, 31, 32, 33, 63, 64, 65, 70)


def synth_netlist(seed: int, style: str):
    if style == "mesh":
        profile = SynthProfile(
            name=f"pk{seed}",
            seed=seed,
            n_inputs=6 + seed % 5,
            n_gates=25 + seed % 17,
            style="mesh",
        )
    else:
        profile = SynthProfile(
            name=f"pk{seed}",
            seed=seed,
            n_inputs=6 + seed % 5,
            style="chain",
            rails=3,
            depth=5 + seed % 4,
        )
    return generate(profile)


def random_cone(netlist, rng: random.Random) -> ConeSimulator:
    """The int8 reference cone of up to three random seed nodes."""
    sim = BatchSimulator(netlist)
    seeds = rng.sample(range(len(netlist)), min(3, len(netlist)))
    return ConeSimulator(sim, frozenset(input_cone(netlist, seeds)))


def random_codes(np_rng, n_rows: int, k: int) -> np.ndarray:
    return np_rng.integers(0, 3, size=(n_rows, 3, k)).astype(np.int8)


def random_requirements(cone, rng: random.Random) -> CompiledRequirements:
    requirements = {}
    for node in rng.sample(
        [int(node) for node in cone.nodes], min(4, cone.n_nodes)
    ):
        requirements[node] = Triple.of(
            rng.choice([ZERO, ONE, X]),
            rng.choice([ZERO, ONE, X]),
            rng.choice([ZERO, ONE, X]),
        )
    return CompiledRequirements(requirements)


class TestPacking:
    def test_words_for(self):
        assert words_for(1) == 1
        assert words_for(LANES) == 1
        assert words_for(LANES + 1) == 2
        assert words_for(0) == 1  # empty batches still get one word

    @pytest.mark.parametrize("k", AWKWARD_WIDTHS)
    def test_round_trip(self, k):
        np_rng = np.random.default_rng(k)
        codes = random_codes(np_rng, 7, k)
        words = pack_codes(codes)
        assert words.shape == (7, 2, 3, words_for(k))
        assert np.array_equal(unpack_words(words, k), codes)

    def test_padding_lanes_are_zero(self):
        # Lanes beyond k must pack as (0, 0): the kernel relies on pad
        # lanes never injecting spurious "possibly 1" bits.
        codes = np.full((2, 3, 3), ONE, dtype=np.int8)
        words = pack_codes(codes)
        mask = np.uint64((1 << 3) - 1)
        assert np.all(words & ~mask == 0)

    def test_invalid_plane_pair_decodes_as_x(self):
        # (d1=1, p1=0) is unrepresentable by pack_codes; a defensive
        # decode maps it to x rather than inventing a definite value.
        words = np.zeros((1, 2, 3, 1), dtype=np.uint64)
        words[0, 0, :, 0] = 1  # d1 set, p1 clear
        assert np.all(unpack_words(words, 1) == X)


class TestKernelEquivalence:
    """Packed vs numpy on random cones, columns and widths."""

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_run_codes_matches_numpy(self, data):
        seed = data.draw(st.integers(0, 10_000))
        style = data.draw(st.sampled_from(["mesh", "chain"]))
        k = data.draw(st.sampled_from(AWKWARD_WIDTHS))
        netlist = synth_netlist(seed, style)
        cone = random_cone(netlist, random.Random(seed))
        packed = PackedConeSimulator(cone)
        codes = random_codes(np.random.default_rng(seed), len(cone.pi_index), k)
        assert np.array_equal(packed.run_codes(codes), cone.run_codes(codes))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_screen_matches_reference_predicates(self, data):
        seed = data.draw(st.integers(0, 10_000))
        k = data.draw(st.sampled_from(AWKWARD_WIDTHS))
        netlist = synth_netlist(seed, "mesh")
        rng = random.Random(seed)
        cone = random_cone(netlist, rng)
        packed = PackedConeSimulator(cone)
        compiled = random_requirements(cone, rng)
        codes = random_codes(np.random.default_rng(seed), len(cone.pi_index), k)
        reference = cone.run_codes(codes)
        local = cone.localize(compiled)
        consistent, covered = packed.screen(codes, packed.localize(compiled))
        assert np.array_equal(consistent, local.consistent_with(reference))
        assert np.array_equal(covered, local.covered_by(reference))

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_widening_a_batch_never_disturbs_earlier_columns(self, data):
        # The packed analogue of the fused kernel's neutral pad rows:
        # lanes past the batch width must be inert, so growing the batch
        # reproduces the narrow result column for column.
        seed = data.draw(st.integers(0, 10_000))
        k = data.draw(st.sampled_from(AWKWARD_WIDTHS))
        extra = data.draw(st.integers(1, 40))
        netlist = synth_netlist(seed, "mesh")
        cone = random_cone(netlist, random.Random(seed))
        packed = PackedConeSimulator(cone)
        np_rng = np.random.default_rng(seed)
        codes = random_codes(np_rng, len(cone.pi_index), k)
        narrow = packed.run_codes(codes)
        wide = np.concatenate(
            [codes, random_codes(np_rng, len(cone.pi_index), extra)], axis=2
        )
        assert np.array_equal(packed.run_codes(wide)[:, :, :k], narrow)

    def test_rejects_bad_shape(self, c17):
        cone = random_cone(c17, random.Random(0))
        packed = PackedConeSimulator(cone)
        with pytest.raises(ValueError):
            packed.run_codes(
                np.zeros((len(cone.pi_index) + 1, 3, 4), dtype=np.int8)
            )


class TestDispatch:
    def test_packed_backend_wraps_cones(self, c17):
        sim = BatchSimulator(c17)
        cone = sim.restricted([3])
        assert isinstance(cone, PackedConeSimulator)
        reference = ConeSimulator(sim, frozenset(input_cone(c17, [3])))
        assert cone.nodes.tolist() == reference.nodes.tolist()
        assert cone.support == reference.support
        codes = random_codes(np.random.default_rng(3), len(cone.pi_index), 9)
        assert np.array_equal(cone.run_codes(codes), reference.run_codes(codes))

    def test_packed_simulator_cached_per_cone(self, c17):
        stats = EngineStats()
        sim = BatchSimulator(c17, stats=stats)
        assert not sim._cone_by_cone  # plans compile lazily, per cone
        assert sim.restricted([3]) is sim.restricted([3])
        assert stats.counter("cone.compile") == 1
        assert stats.counter("backend.packed.cones") == 1


class TestStats:
    def test_backend_counters(self, c17):
        stats = EngineStats()
        sim = BatchSimulator(c17, stats=stats)
        cone = sim.restricted([3])
        codes = np.full((len(cone.pi_index), 3, 5), X, dtype=np.int8)
        cone.run_codes(codes)
        assert stats.counter("backend.packed.cones") == 1
        assert stats.counter("backend.packed.runs") == 1
        assert stats.counter("backend.packed.columns") == 5
        assert stats.counter("backend.packed.words") == words_for(5)
        # The shared batch/cone series count packed runs too.
        assert stats.counter("batch.runs") == 1
        assert stats.counter("cone.runs") == 1
