"""Tests for uniform path sampling."""

import random
from collections import Counter

import pytest

from repro.circuit import count_paths
from repro.paths import PathSampler, enumerate_paths, sample_paths


class TestSampler:
    def test_total_paths_matches_count(self, s27):
        sampler = PathSampler(s27)
        assert sampler.total_paths == count_paths(s27) == 28

    def test_samples_are_valid_complete_paths(self, s27):
        for path in sample_paths(s27, 100, seed=3):
            path.validate(s27)
            assert path.is_complete(s27)

    def test_uniformity_chi_square(self, s27):
        """Empirical distribution over s27's 28 paths is consistent with
        uniform (generous chi-square bound)."""
        sampler = PathSampler(s27)
        rng = random.Random(7)
        draws = 5600  # 200 expected per path
        counts = Counter(
            sampler.sample(rng).nodes for _ in range(draws)
        )
        assert len(counts) == 28  # every path seen
        expected = draws / 28
        chi2 = sum(
            (observed - expected) ** 2 / expected for observed in counts.values()
        )
        # 27 degrees of freedom; the 0.999 quantile is ~55.5.
        assert chi2 < 56, chi2

    def test_unique_sampling(self, s27):
        paths = sample_paths(s27, 20, seed=1, unique=True)
        assert len({p.nodes for p in paths}) == len(paths) == 20

    def test_unique_cannot_exceed_population(self, s27):
        paths = sample_paths(s27, 100, seed=1, unique=True)
        assert len(paths) <= 28

    def test_deterministic_by_seed(self, tiny_chain):
        assert sample_paths(tiny_chain, 10, seed=5) == sample_paths(
            tiny_chain, 10, seed=5
        )

    def test_sampled_paths_exist_in_enumeration(self, s27):
        full = {p.nodes for p in enumerate_paths(s27, max_faults=10_000).paths}
        for path in sample_paths(s27, 50, seed=2):
            assert path.nodes in full

    def test_no_paths_raises(self):
        from repro.circuit import GateType, Netlist

        netlist = Netlist("nopaths")
        netlist.add_input("a")
        netlist.add_gate("dead", GateType.NOT, ["a"])
        netlist.add_gate("g", GateType.CONST1, [])
        netlist.add_output("g")  # output unreachable from any input
        netlist.freeze()
        sampler = PathSampler(netlist)
        assert sampler.total_paths == 0
        with pytest.raises(ValueError):
            sampler.sample(random.Random(0))

    def test_huge_population_no_overflow(self):
        # Path counts beyond float range must still sample fine (bigints).
        from repro.circuit import load_circuit

        netlist = load_circuit("mesh_deep")  # ~1e11 paths
        sampler = PathSampler(netlist)
        assert sampler.total_paths > 10**9
        paths = sampler.sample_many(5, random.Random(0))
        for path in paths:
            path.validate(netlist)
