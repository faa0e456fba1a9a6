"""Tests for structural validation."""

import pytest

from repro.circuit import (
    GateType,
    ValidationError,
    assert_valid,
    build_netlist,
    validate,
)


def codes(issues):
    return {issue.code for issue in issues}


class TestValidate:
    def test_clean_circuit(self, s27):
        assert validate(s27) == []

    def test_duplicate_fanin_warning(self):
        netlist = build_netlist(
            "dup",
            inputs=["a"],
            gates=[("g", GateType.AND, ["a", "a"])],
            outputs=["g"],
        )
        issues = validate(netlist)
        assert "duplicate-fanin" in codes(issues)
        assert all(issue.severity == "warning" for issue in issues)

    def test_unreachable_gate_is_error(self):
        netlist = build_netlist(
            "dead",
            inputs=["a"],
            gates=[
                ("live", GateType.NOT, ["a"]),
                ("dead", GateType.NOT, ["a"]),
            ],
            outputs=["live"],
        )
        issues = validate(netlist)
        dead = [i for i in issues if i.code == "unreachable-output"]
        assert dead and dead[0].severity == "error"
        assert dead[0].node == "dead"

    def test_floating_input_warning(self):
        netlist = build_netlist(
            "float",
            inputs=["a", "unused"],
            gates=[("g", GateType.NOT, ["a"])],
            outputs=["g"],
        )
        issues = validate(netlist)
        floating = [i for i in issues if i.code == "floating-input"]
        assert floating and floating[0].node == "unused"
        # also reported as unreachable (warning severity for inputs)
        assert all(i.severity == "warning" for i in issues)

    def test_xor_warning(self):
        netlist = build_netlist(
            "x",
            inputs=["a", "b"],
            gates=[("g", GateType.XOR, ["a", "b"])],
            outputs=["g"],
        )
        assert "xor-gate" in codes(validate(netlist))


class TestAssertValid:
    def test_passes_clean(self, c17):
        assert_valid(c17)

    def test_raises_on_error(self):
        netlist = build_netlist(
            "dead",
            inputs=["a"],
            gates=[
                ("live", GateType.NOT, ["a"]),
                ("dead", GateType.NOT, ["a"]),
            ],
            outputs=["live"],
        )
        with pytest.raises(ValidationError) as err:
            assert_valid(netlist)
        assert err.value.issues

    def test_strict_mode_rejects_warnings(self):
        netlist = build_netlist(
            "dup",
            inputs=["a"],
            gates=[("g", GateType.AND, ["a", "a"])],
            outputs=["g"],
        )
        assert_valid(netlist)  # warnings tolerated by default
        with pytest.raises(ValidationError):
            assert_valid(netlist, allow_warnings=False)
