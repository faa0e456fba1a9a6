"""Tests for compiled requirement checking."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import Triple, all_triples
from repro.sim import CompiledRequirements

ALL_TRIPLES = list(all_triples())


def sim_array(triples):
    """Build a (n_nodes, 3, 1) code array from a list of triples."""
    data = np.array([t.components() for t in triples], dtype=np.int8)
    return data[:, :, None]


class TestCoveredBy:
    def test_exact_match(self):
        req = CompiledRequirements({0: Triple.parse("0x1")})
        assert req.covered_by(sim_array([Triple.parse("0x1")]))[0]
        assert req.covered_by(sim_array([Triple.parse("001")]))[0]

    def test_x_simulated_fails_specified(self):
        req = CompiledRequirements({0: Triple.parse("000")})
        assert not req.covered_by(sim_array([Triple.parse("0x0")]))[0]

    def test_multi_line(self):
        req = CompiledRequirements(
            {0: Triple.parse("xx1"), 1: Triple.parse("111")}
        )
        ok = sim_array([Triple.parse("0x1"), Triple.parse("111")])
        bad = sim_array([Triple.parse("0x1"), Triple.parse("110")])
        assert req.covered_by(ok)[0]
        assert not req.covered_by(bad)[0]

    def test_empty_requirements_cover_everything(self):
        req = CompiledRequirements({})
        assert req.covered_by(np.zeros((4, 3, 5), dtype=np.int8)).all()

    def test_batch_columns_independent(self):
        req = CompiledRequirements({0: Triple.parse("111")})
        sims = np.stack(
            [
                np.array([Triple.parse("111").components()], dtype=np.int8),
                np.array([Triple.parse("101").components()], dtype=np.int8),
            ],
            axis=2,
        ).reshape(1, 3, 2)
        got = req.covered_by(sims)
        assert got.tolist() == [True, False]


class TestConsistentWith:
    def test_x_is_consistent(self):
        req = CompiledRequirements({0: Triple.parse("111")})
        assert req.consistent_with(sim_array([Triple.parse("xxx")]))[0]
        assert req.consistent_with(sim_array([Triple.parse("1xx")]))[0]

    def test_contradiction_detected(self):
        req = CompiledRequirements({0: Triple.parse("111")})
        assert not req.consistent_with(sim_array([Triple.parse("0xx")]))[0]

    @settings(max_examples=200, deadline=None)
    @given(
        sim=st.sampled_from(ALL_TRIPLES),
        req_triple=st.sampled_from(ALL_TRIPLES),
    )
    def test_matches_triple_semantics(self, sim, req_triple):
        compiled = CompiledRequirements({0: req_triple})
        sims = sim_array([sim])
        assert bool(compiled.covered_by(sims)[0]) == sim.covers(req_triple)
        assert (
            bool(compiled.consistent_with(sims)[0])
            == sim.consistent_with(req_triple)
        )

    def test_len(self):
        req = CompiledRequirements({0: Triple.parse("0x1"), 3: Triple.parse("xxx")})
        assert len(req) == 2  # two specified components on node 0, none on 3


class TestStackedRequirements:
    def _stack(self, mappings):
        from repro.sim import StackedRequirements

        return StackedRequirements([CompiledRequirements(m) for m in mappings])

    def test_matches_per_fault_loop(self):
        mappings = [
            {0: Triple.parse("0x1"), 1: Triple.parse("111")},
            {0: Triple.parse("xx1")},
            {},  # no requirements: covered by every test
            {2: Triple.parse("010")},
        ]
        compiled = [CompiledRequirements(m) for m in mappings]
        stacked = self._stack(mappings)
        rng = np.random.default_rng(7)
        sims = np.stack(
            [
                np.array(
                    [ALL_TRIPLES[i].components() for i in rng.integers(0, len(ALL_TRIPLES), 3)],
                    dtype=np.int8,
                )
                for _ in range(16)
            ],
            axis=2,
        )
        expected = np.stack([c.covered_by(sims) for c in compiled])
        assert np.array_equal(stacked.covered_matrix(sims), expected)

    def test_empty_population(self):
        stacked = self._stack([])
        sims = sim_array([Triple.parse("111")])
        assert stacked.covered_matrix(sims).shape == (0, 1)

    def test_all_empty_requirements(self):
        stacked = self._stack([{}, {}])
        sims = sim_array([Triple.parse("0x0")])
        assert stacked.covered_matrix(sims).all()

    def test_chunked_matches_unchunked(self):
        mappings = [{0: Triple.parse("111")}, {1: Triple.parse("0x1")}] * 5
        stacked = self._stack(mappings)
        sims = np.stack(
            [
                np.array(
                    [t.components() for t in (Triple.parse("111"), Triple.parse("001"))],
                    dtype=np.int8,
                )
            ]
            * 4,
            axis=2,
        ).reshape(2, 3, -1)
        full = stacked.covered_matrix(sims)
        tiny_chunks = stacked.covered_matrix(sims, max_elements=1)
        assert np.array_equal(full, tiny_chunks)

    def test_len(self):
        assert len(self._stack([{}, {0: Triple.parse("111")}])) == 2
