"""Unit and property tests for the ternary logic primitives."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.algebra import ternary as t

values = st.sampled_from(t.VALUES)


class TestTables:
    def test_and_boolean_subset(self):
        assert t.t_and(0, 0) == 0
        assert t.t_and(0, 1) == 0
        assert t.t_and(1, 0) == 0
        assert t.t_and(1, 1) == 1

    def test_or_boolean_subset(self):
        assert t.t_or(0, 0) == 0
        assert t.t_or(0, 1) == 1
        assert t.t_or(1, 0) == 1
        assert t.t_or(1, 1) == 1

    def test_xor_boolean_subset(self):
        assert t.t_xor(0, 0) == 0
        assert t.t_xor(0, 1) == 1
        assert t.t_xor(1, 0) == 1
        assert t.t_xor(1, 1) == 0

    def test_not(self):
        assert t.t_not(0) == 1
        assert t.t_not(1) == 0
        assert t.t_not(t.X) == t.X

    def test_controlling_values_dominate_x(self):
        assert t.t_and(0, t.X) == 0
        assert t.t_and(t.X, 0) == 0
        assert t.t_or(1, t.X) == 1
        assert t.t_or(t.X, 1) == 1

    def test_non_controlling_with_x_is_x(self):
        assert t.t_and(1, t.X) == t.X
        assert t.t_or(0, t.X) == t.X
        assert t.t_xor(0, t.X) == t.X
        assert t.t_xor(1, t.X) == t.X

    def test_tables_are_read_only(self):
        with pytest.raises(ValueError):
            t.AND_TABLE[0, 0] = 1


class TestScalarHelpers:
    def test_and_all_identity(self):
        assert t.t_and_all([]) == t.ONE

    def test_or_all_identity(self):
        assert t.t_or_all([]) == t.ZERO

    def test_xor_all_parity(self):
        assert t.t_xor_all([1, 1, 1]) == 1
        assert t.t_xor_all([1, 1]) == 0

    def test_and_all_short_circuit_with_x(self):
        assert t.t_and_all([t.X, 0]) == 0

    def test_is_specified(self):
        assert t.is_specified(0)
        assert t.is_specified(1)
        assert not t.is_specified(t.X)

    def test_value_chars_roundtrip(self):
        for value in t.VALUES:
            assert t.value_from_char(t.value_to_char(value)) == value

    def test_value_from_char_aliases(self):
        assert t.value_from_char("-") == t.X
        assert t.value_from_char("X") == t.X

    def test_value_from_char_rejects_garbage(self):
        with pytest.raises(ValueError):
            t.value_from_char("2")

    def test_value_to_char_rejects_garbage(self):
        with pytest.raises(ValueError):
            t.value_to_char(5)


class TestOrdEncoding:
    def test_roundtrip(self):
        for value in t.VALUES:
            assert t.FROM_ORD[t.TO_ORD[value]] == value

    def test_and_is_min_in_ord(self):
        for a in t.VALUES:
            for b in t.VALUES:
                got = t.FROM_ORD[min(t.TO_ORD[a], t.TO_ORD[b])]
                assert got == t.t_and(a, b)

    def test_or_is_max_in_ord(self):
        for a in t.VALUES:
            for b in t.VALUES:
                got = t.FROM_ORD[max(t.TO_ORD[a], t.TO_ORD[b])]
                assert got == t.t_or(a, b)

    def test_not_is_2_minus_in_ord(self):
        for a in t.VALUES:
            got = t.FROM_ORD[2 - t.TO_ORD[a]]
            assert got == t.t_not(a)


class TestAlgebraicProperties:
    @given(values, values)
    def test_commutativity(self, a, b):
        assert t.t_and(a, b) == t.t_and(b, a)
        assert t.t_or(a, b) == t.t_or(b, a)
        assert t.t_xor(a, b) == t.t_xor(b, a)

    @given(values, values, values)
    def test_associativity(self, a, b, c):
        assert t.t_and(t.t_and(a, b), c) == t.t_and(a, t.t_and(b, c))
        assert t.t_or(t.t_or(a, b), c) == t.t_or(a, t.t_or(b, c))
        assert t.t_xor(t.t_xor(a, b), c) == t.t_xor(a, t.t_xor(b, c))

    @given(values, values)
    def test_de_morgan(self, a, b):
        assert t.t_not(t.t_and(a, b)) == t.t_or(t.t_not(a), t.t_not(b))
        assert t.t_not(t.t_or(a, b)) == t.t_and(t.t_not(a), t.t_not(b))

    @given(values)
    def test_double_negation(self, a):
        assert t.t_not(t.t_not(a)) == a

    @given(values, values)
    def test_monotone_in_information_order(self, a, b):
        """Refining x to a concrete value never flips an already-known output."""
        for op in (t.t_and, t.t_or, t.t_xor):
            if op(a, t.X) != t.X:
                for refined in (t.ZERO, t.ONE):
                    assert op(a, refined) == op(a, t.X) or op(a, t.X) == t.X
            # when the x-output is specified, every refinement must agree
            out_with_x = op(a, t.X)
            if out_with_x != t.X:
                assert op(a, t.ZERO) == out_with_x
                assert op(a, t.ONE) == out_with_x
