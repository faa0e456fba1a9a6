"""Tests for requirement-set accumulation."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import Triple, all_triples
from repro.atpg import RequirementSet

ALL_TRIPLES = list(all_triples())
req_maps = st.dictionaries(
    st.integers(0, 5), st.sampled_from(ALL_TRIPLES), max_size=4
)


class TestTryAdd:
    def test_disjoint_union(self):
        base = RequirementSet({0: Triple.parse("0x1")})
        merged = base.try_add({1: Triple.parse("111")})
        assert merged is not None
        assert len(merged) == 2
        assert len(base) == 1  # original untouched

    def test_component_merge(self):
        base = RequirementSet({0: Triple.parse("0xx")})
        merged = base.try_add({0: Triple.parse("xx1")})
        assert merged.values[0] is Triple.parse("0x1")

    def test_conflict_returns_none(self):
        base = RequirementSet({0: Triple.parse("000")})
        assert base.try_add({0: Triple.parse("xx1")}) is None

    def test_empty_addition(self):
        base = RequirementSet({0: Triple.parse("000")})
        merged = base.try_add({})
        assert merged is not None
        assert merged.values == base.values


class TestDeltaCount:
    def test_all_new(self):
        base = RequirementSet()
        assert base.delta_count({0: Triple.parse("0x1")}) == 2
        assert base.delta_count({0: Triple.parse("111")}) == 3

    def test_already_implied(self):
        base = RequirementSet({0: Triple.parse("111")})
        assert base.delta_count({0: Triple.parse("xx1")}) == 0
        assert base.delta_count({0: Triple.parse("111")}) == 0

    def test_partial_overlap(self):
        base = RequirementSet({0: Triple.parse("1xx")})
        assert base.delta_count({0: Triple.parse("111")}) == 2

    def test_conflict_is_none(self):
        base = RequirementSet({0: Triple.parse("000")})
        assert base.delta_count({0: Triple.parse("1xx")}) is None

    @settings(max_examples=200, deadline=None)
    @given(base_map=req_maps, addition=req_maps)
    def test_delta_counts_component_growth(self, base_map, addition):
        base = RequirementSet(base_map)
        delta = base.delta_count(addition)
        merged = base.try_add(addition)
        if merged is None:
            assert delta is None
        else:
            assert delta == merged.component_count() - base.component_count()


class TestMisc:
    def test_conflicts_with(self):
        base = RequirementSet({0: Triple.parse("000")})
        assert base.conflicts_with({0: Triple.parse("111")})
        assert not base.conflicts_with({0: Triple.parse("xx0")})
        assert not base.conflicts_with({1: Triple.parse("111")})

    def test_compiled_caching(self):
        base = RequirementSet({0: Triple.parse("0x1")})
        assert base.compiled() is base.compiled()

    def test_iteration_contains_repr(self):
        base = RequirementSet({3: Triple.parse("0x1")})
        assert 3 in base
        assert dict(base) == {3: Triple.parse("0x1")}
        assert "1 lines" in repr(base) or "1 line" in repr(base)

    def test_component_count(self):
        base = RequirementSet({0: Triple.parse("0x1"), 1: Triple.parse("111")})
        assert base.component_count() == 5
