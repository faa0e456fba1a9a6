"""Tests for robust/non-robust sensitization conditions A(p)."""

import pytest

from repro.algebra import FALL, RISE
from repro.circuit import GateType, build_netlist
from repro.faults import (
    Path,
    PathDelayFault,
    SensitizationError,
    Transition,
    sensitize,
)


def fault(netlist, names, transition=Transition.RISE):
    return PathDelayFault(Path.from_names(netlist, names), transition)


class TestPaperExample:
    """Section 2.1's s27 example: A(p) = {source 0x1, one steady 000 side
    value, one final-only xx0 side value} for a slow-to-rise path through
    two NOR gates."""

    def test_s27_two_nor_path(self, s27):
        sens = sensitize(s27, fault(s27, ["G1", "G12", "G13"]))
        assert sens is not None
        req = {
            s27.node_at(node).name: str(triple)
            for node, triple in sens.requirements.items()
        }
        # Source transition.
        assert req["G1"] == "0x1"
        # First NOR: on-path rises to the controlling value (1) -> side
        # input needs the non-controlling value under the second pattern.
        assert req["G7"] == "xx0"
        # Second NOR: on-path falls to the non-controlling value (0) ->
        # side input must be steady non-controlling.
        assert req["G2"] == "000"
        # Waveform along the path: rise -> fall -> rise.
        assert sens.on_path == (RISE, FALL, RISE)


class TestGateRules:
    def two_gate(self, gate_type):
        return build_netlist(
            "g",
            inputs=["a", "b"],
            gates=[("y", gate_type, ["a", "b"])],
            outputs=["y"],
        )

    @pytest.mark.parametrize(
        "gate_type,transition,expect",
        [
            # AND: controlling 0, non-controlling 1.
            (GateType.AND, Transition.RISE, "111"),  # ends at nc -> steady nc
            (GateType.AND, Transition.FALL, "xx1"),  # ends at c -> final nc
            (GateType.NAND, Transition.RISE, "111"),
            (GateType.NAND, Transition.FALL, "xx1"),
            # OR: controlling 1, non-controlling 0.
            (GateType.OR, Transition.RISE, "xx0"),
            (GateType.OR, Transition.FALL, "000"),
            (GateType.NOR, Transition.RISE, "xx0"),
            (GateType.NOR, Transition.FALL, "000"),
        ],
    )
    def test_robust_side_requirements(self, gate_type, transition, expect):
        netlist = self.two_gate(gate_type)
        sens = sensitize(netlist, fault(netlist, ["a", "y"], transition))
        assert str(sens.requirements[netlist.index_of("b")]) == expect

    @pytest.mark.parametrize(
        "gate_type,transition,expect",
        [
            (GateType.AND, Transition.RISE, "xx1"),  # non-robust relaxes
            (GateType.OR, Transition.FALL, "xx0"),
        ],
    )
    def test_non_robust_side_requirements(self, gate_type, transition, expect):
        netlist = self.two_gate(gate_type)
        sens = sensitize(
            netlist, fault(netlist, ["a", "y"], transition), mode="non_robust"
        )
        assert str(sens.requirements[netlist.index_of("b")]) == expect

    def test_inverter_flips_transition(self):
        netlist = build_netlist(
            "inv",
            inputs=["a"],
            gates=[("n", GateType.NOT, ["a"]), ("y", GateType.BUF, ["n"])],
            outputs=["y"],
        )
        sens = sensitize(netlist, fault(netlist, ["a", "n", "y"]))
        assert sens.on_path == (RISE, FALL, FALL)
        # No side inputs anywhere: only the source requirement.
        assert set(sens.requirements) == {netlist.index_of("a")}

    def test_inversion_parity_through_nand(self):
        netlist = self.two_gate(GateType.NAND)
        sens = sensitize(netlist, fault(netlist, ["a", "y"], Transition.RISE))
        assert sens.on_path[-1] is FALL  # NAND inverts

    def test_xor_unsupported(self):
        netlist = self.two_gate(GateType.XOR)
        with pytest.raises(SensitizationError, match="expand"):
            sensitize(netlist, fault(netlist, ["a", "y"]))


class TestConflicts:
    def test_duplicate_fanin_collapses_to_buffer(self):
        # y = AND(a, a): in the node-based path model (no separate fanout
        # branch lines, see DESIGN.md) the duplicated input is the on-path
        # signal itself, so the gate degenerates to a buffer and there is
        # no side requirement.  The triple simulation agrees
        # (AND(0x1, 0x1) = 0x1), so detection claims remain consistent.
        netlist = build_netlist(
            "dup",
            inputs=["a"],
            gates=[("y", GateType.AND, ["a", "a"])],
            outputs=["y"],
        )
        sens = sensitize(netlist, fault(netlist, ["a", "y"]))
        assert sens is not None
        assert set(sens.requirements) == {netlist.index_of("a")}

    def test_conflicting_side_requirements(self):
        # b feeds an AND (needs steady 1 on rise) and an OR further along
        # (needs steady 0 when the path falls into it after the NAND).
        netlist = build_netlist(
            "conflict",
            inputs=["a", "b"],
            gates=[
                ("g1", GateType.NAND, ["a", "b"]),
                ("g2", GateType.OR, ["g1", "b"]),
            ],
            outputs=["g2"],
        )
        # a rises -> g1 side b needs 111; g1 falls into OR -> side b needs
        # 000: conflict, undetectable.
        assert sensitize(netlist, fault(netlist, ["a", "g1", "g2"])) is None

    def test_implied_conflict_left_to_implication_stage(self):
        # Path (a, g2) with g2 = AND(a, NOT(a)): the side requirement
        # (g1 steady 1) is on a node *off* the path, so A(p) itself merges
        # cleanly -- the contradiction (NOT(a) cannot be steady 1 while a
        # rises) is the paper's *type-2* undetectability, found by the
        # implication filter, not by sensitize().
        netlist = build_netlist(
            "reconv",
            inputs=["a"],
            gates=[
                ("g1", GateType.NOT, ["a"]),
                ("g2", GateType.AND, ["a", "g1"]),
            ],
            outputs=["g2"],
        )
        sens = sensitize(netlist, fault(netlist, ["a", "g2"]))
        assert sens is not None  # type-1 check passes

        from repro.atpg import RequirementSet, has_implication_conflict

        assert has_implication_conflict(
            netlist, RequirementSet(sens.requirements)
        )

    def test_compatible_requirements_merge(self):
        # The same side node needed as xx1 at two gates merges cleanly.
        netlist = build_netlist(
            "merge",
            inputs=["a", "b"],
            gates=[
                ("g1", GateType.AND, ["a", "b"]),
                ("g2", GateType.AND, ["g1", "b"]),
            ],
            outputs=["g2"],
        )
        sens = sensitize(
            netlist, fault(netlist, ["a", "g1", "g2"], Transition.FALL)
        )
        assert sens is not None
        assert str(sens.requirements[netlist.index_of("b")]) == "xx1"


class TestMetadata:
    def test_num_values(self, s27):
        sens = sensitize(s27, fault(s27, ["G1", "G12", "G13"]))
        # 0x1 (2 specified) + 000 (3) + xx0 (1) = 6 components.
        assert sens.num_values == 6

    def test_format_mentions_all_lines(self, s27):
        sens = sensitize(s27, fault(s27, ["G1", "G12", "G13"]))
        text = sens.format(s27)
        for name in ("G1", "G2", "G7"):
            assert name in text

    def test_mode_recorded(self, s27):
        sens = sensitize(s27, fault(s27, ["G1", "G12", "G13"]), mode="non_robust")
        assert sens.mode == "non_robust"
