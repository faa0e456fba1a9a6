"""Unit and property tests for waveform triples."""

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algebra import (
    FALL,
    RISE,
    STABLE0,
    STABLE1,
    UNKNOWN,
    X,
    Triple,
    all_triples,
)

triples = st.sampled_from(list(all_triples()))


class TestConstruction:
    def test_interning(self):
        assert Triple.of(0, X, 1) is RISE
        assert Triple.of(1, X, 0) is FALL
        assert Triple.of(0, 0, 0) is STABLE0
        assert Triple.of(1, 1, 1) is STABLE1
        assert Triple.of(X, X, X) is UNKNOWN

    def test_direct_constructor_blocked(self):
        with pytest.raises(TypeError):
            Triple(0, 0, 0)

    def test_of_rejects_bad_components(self):
        with pytest.raises((ValueError, IndexError)):
            Triple.of(0, 0, 9)

    def test_parse_three_char(self):
        assert Triple.parse("0x1") is RISE
        assert Triple.parse("1x0") is FALL
        assert Triple.parse("111") is STABLE1
        assert Triple.parse("xx0").components() == (X, X, 0)

    def test_parse_two_char_shorthand(self):
        assert Triple.parse("01") is RISE
        assert Triple.parse("10") is FALL
        assert Triple.parse("00") is STABLE0

    def test_parse_rejects_bad_length(self):
        with pytest.raises(ValueError):
            Triple.parse("0")
        with pytest.raises(ValueError):
            Triple.parse("0101")

    def test_stable(self):
        assert Triple.stable(0) is STABLE0
        assert Triple.stable(1) is STABLE1
        with pytest.raises(ValueError):
            Triple.stable(X)

    def test_transition(self):
        assert Triple.transition(0, 1) is RISE
        assert Triple.transition(1, 0) is FALL
        assert Triple.transition(0, 0) is STABLE0
        assert Triple.transition(X, X) is UNKNOWN

    def test_from_code_roundtrip(self):
        for triple in all_triples():
            assert Triple.from_code(triple.code) is triple

    def test_immutability(self):
        with pytest.raises(AttributeError):
            RISE.v1 = 1

    def test_str(self):
        assert str(RISE) == "0x1"
        assert str(STABLE0) == "000"

    def test_pickle_preserves_identity(self):
        assert pickle.loads(pickle.dumps(RISE)) is RISE


class TestPredicates:
    def test_is_fully_specified(self):
        assert STABLE0.is_fully_specified()
        assert not RISE.is_fully_specified()  # intermediate is x
        assert not UNKNOWN.is_fully_specified()

    def test_is_stable(self):
        assert STABLE0.is_stable()
        assert STABLE1.is_stable()
        assert not RISE.is_stable()
        assert not UNKNOWN.is_stable()

    def test_is_transition(self):
        assert RISE.is_transition()
        assert FALL.is_transition()
        assert not STABLE0.is_transition()
        assert not Triple.parse("0x0").is_transition()

    def test_specified_count(self):
        assert STABLE0.specified_count() == 3
        assert RISE.specified_count() == 2
        assert UNKNOWN.specified_count() == 0
        assert Triple.parse("xx1").specified_count() == 1


class TestCoversAndConsistency:
    def test_covers_exact(self):
        assert STABLE0.covers(STABLE0)
        assert RISE.covers(Triple.parse("xx1"))
        assert RISE.covers(Triple.parse("0xx"))

    def test_x_simulated_never_covers_specified(self):
        # A hazard-possible intermediate (x) fails a steady requirement.
        assert not Triple.parse("0x0").covers(STABLE0)
        assert not UNKNOWN.covers(Triple.parse("xx1"))

    def test_consistent_allows_x(self):
        assert UNKNOWN.consistent_with(STABLE0)
        assert Triple.parse("0xx").consistent_with(STABLE0)
        assert Triple.parse("0x0").consistent_with(STABLE0)

    def test_consistent_rejects_contradiction(self):
        assert not Triple.parse("1xx").consistent_with(STABLE0)
        assert not RISE.consistent_with(FALL)

    @given(triples, triples)
    def test_covers_implies_consistent(self, sim, req):
        if sim.covers(req):
            assert sim.consistent_with(req)

    @given(triples)
    def test_everything_covers_unknown_requirement(self, sim):
        assert sim.covers(UNKNOWN)

    @given(triples)
    def test_fully_specified_consistency_equals_covering(self, req):
        for sim in all_triples():
            if sim.is_fully_specified():
                assert sim.covers(req) == sim.consistent_with(req)


class TestMerge:
    def test_merge_disjoint(self):
        merged = Triple.parse("0xx").merge(Triple.parse("xx1"))
        assert merged is Triple.parse("0x1")

    def test_merge_conflict(self):
        assert STABLE0.merge(STABLE1) is None
        assert RISE.merge(FALL) is None

    def test_merge_with_unknown_is_identity(self):
        for triple in all_triples():
            assert triple.merge(UNKNOWN) is triple
            assert UNKNOWN.merge(triple) is triple

    @given(triples, triples)
    def test_merge_commutative(self, a, b):
        assert a.merge(b) is b.merge(a)

    @given(triples)
    def test_merge_idempotent(self, a):
        assert a.merge(a) is a

    @given(triples, triples, triples)
    def test_merge_associative(self, a, b, c):
        left = a.merge(b)
        left = left.merge(c) if left is not None else None
        right = b.merge(c)
        right = a.merge(right) if right is not None else None
        assert left is right

    @given(triples, triples)
    def test_merged_requirement_is_stronger(self, a, b):
        merged = a.merge(b)
        if merged is None:
            return
        for sim in all_triples():
            if sim.covers(merged):
                assert sim.covers(a) and sim.covers(b)

    @given(triples, triples)
    def test_covering_both_iff_covering_merge(self, a, b):
        merged = a.merge(b)
        for sim in all_triples():
            both = sim.covers(a) and sim.covers(b)
            if merged is None:
                assert not both or not sim.is_fully_specified() or True
                # unmergeable requirements cannot both be covered
                assert not both
            else:
                assert both == sim.covers(merged)


class TestDeltaAndInversion:
    def test_new_components_vs(self):
        assert STABLE0.new_components_vs(UNKNOWN) == 3
        assert Triple.parse("xx1").new_components_vs(Triple.parse("xx1")) == 0
        assert Triple.parse("0x1").new_components_vs(Triple.parse("xxx")) == 2
        assert STABLE1.new_components_vs(Triple.parse("1xx")) == 2

    def test_inverted(self):
        assert RISE.inverted() is FALL
        assert STABLE0.inverted() is STABLE1
        assert UNKNOWN.inverted() is UNKNOWN

    @given(triples)
    def test_double_inversion(self, a):
        assert a.inverted().inverted() is a
