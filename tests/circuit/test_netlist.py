"""Tests for the netlist data model."""

import pytest

from repro.circuit import GateType, Netlist, NetlistError, build_netlist


def small() -> Netlist:
    return build_netlist(
        "small",
        inputs=["a", "b", "c"],
        gates=[
            ("g1", GateType.AND, ["a", "b"]),
            ("g2", GateType.NOT, ["g1"]),
            ("g3", GateType.OR, ["g2", "c"]),
        ],
        outputs=["g3"],
    )


class TestConstruction:
    def test_basic_shape(self):
        netlist = small()
        assert len(netlist) == 6
        assert netlist.num_gates == 3
        assert netlist.input_names == ("a", "b", "c")
        assert netlist.output_names == ("g3",)

    def test_duplicate_node_rejected(self):
        netlist = Netlist("x")
        netlist.add_input("a")
        with pytest.raises(NetlistError):
            netlist.add_input("a")
        with pytest.raises(NetlistError):
            netlist.add_gate("a", GateType.NOT, ["a"])

    def test_empty_name_rejected(self):
        netlist = Netlist("x")
        with pytest.raises(NetlistError):
            netlist.add_input("")

    def test_gate_arity_validation(self):
        netlist = Netlist("x")
        netlist.add_input("a")
        with pytest.raises(NetlistError):
            netlist.add_gate("g", GateType.NOT, ["a", "a"])
        with pytest.raises(NetlistError):
            netlist.add_gate("g", GateType.AND, [])
        with pytest.raises(NetlistError):
            netlist.add_gate("g", GateType.CONST0, ["a"])

    def test_input_via_add_gate_rejected(self):
        netlist = Netlist("x")
        with pytest.raises(NetlistError):
            netlist.add_gate("a", GateType.INPUT, [])

    def test_dangling_reference_rejected_at_freeze(self):
        netlist = Netlist("x")
        netlist.add_input("a")
        netlist.add_gate("g", GateType.NOT, ["missing"])
        netlist.add_output("g")
        with pytest.raises(NetlistError, match="undeclared"):
            netlist.freeze()

    def test_missing_output_rejected(self):
        netlist = Netlist("x")
        netlist.add_input("a")
        netlist.add_output("nope")
        with pytest.raises(NetlistError):
            netlist.freeze()

    def test_no_outputs_rejected(self):
        netlist = Netlist("x")
        netlist.add_input("a")
        with pytest.raises(NetlistError, match="no primary outputs"):
            netlist.freeze()

    def test_cycle_rejected(self):
        netlist = Netlist("x")
        netlist.add_input("a")
        netlist.add_gate("g1", GateType.AND, ["a", "g2"])
        netlist.add_gate("g2", GateType.NOT, ["g1"])
        netlist.add_output("g2")
        with pytest.raises(NetlistError, match="cycle"):
            netlist.freeze()

    def test_frozen_blocks_mutation(self):
        netlist = small()
        with pytest.raises(NetlistError):
            netlist.add_input("z")
        with pytest.raises(NetlistError):
            netlist.add_output("g1")

    def test_freeze_idempotent(self):
        netlist = small()
        assert netlist.freeze() is netlist

    def test_duplicate_output_rejected(self):
        netlist = Netlist("x")
        netlist.add_input("a")
        netlist.add_output("a")
        with pytest.raises(NetlistError):
            netlist.add_output("a")


class TestDerivedData:
    def test_levels(self):
        netlist = small()
        assert netlist.level("a") == 0
        assert netlist.level("g1") == 1
        assert netlist.level("g2") == 2
        assert netlist.level("g3") == 3

    def test_topo_order_respects_edges(self):
        netlist = small()
        position = {index: rank for rank, index in enumerate(netlist.topo_order)}
        for node in netlist.nodes:
            for fanin_index in netlist.fanin_indices(node.index):
                assert position[fanin_index] < position[node.index]

    def test_fanout(self):
        netlist = small()
        a = netlist.index_of("a")
        g1 = netlist.index_of("g1")
        assert netlist.fanout(a) == (g1,)
        assert netlist.fanout("g3") == ()

    def test_repeated_fanin_is_one_fanout(self):
        netlist = build_netlist(
            "twice",
            inputs=["a"],
            gates=[("g", GateType.NAND, ["a", "a"]), ("h", GateType.NOT, ["g"])],
            outputs=["h"],
        )
        assert netlist.fanout("a") == (netlist.index_of("g"),)
        assert netlist.level("g") == 1 and netlist.level("h") == 2
        assert netlist.topo_order.index(netlist.index_of("g")) > 0

    def test_accessors_require_freeze(self):
        netlist = Netlist("x")
        netlist.add_input("a")
        with pytest.raises(NetlistError):
            _ = netlist.topo_order

    def test_index_lookup_errors(self):
        netlist = small()
        with pytest.raises(NetlistError):
            netlist.index_of("ghost")
        with pytest.raises(NetlistError):
            netlist.node("ghost")

    def test_gate_type_counts(self):
        counts = small().gate_type_counts()
        assert counts == {GateType.AND: 1, GateType.NOT: 1, GateType.OR: 1}

    def test_is_pdf_ready(self):
        assert small().is_pdf_ready()
        netlist = Netlist("x")
        netlist.add_input("a")
        netlist.add_input("b")
        netlist.add_gate("g", GateType.XOR, ["a", "b"])
        netlist.add_output("g")
        netlist.freeze()
        assert not netlist.is_pdf_ready()

    def test_contains_and_iter(self):
        netlist = small()
        assert "g1" in netlist
        assert "ghost" not in netlist
        assert len(list(netlist)) == 6

    def test_node_can_be_both_gate_and_output(self):
        netlist = Netlist("x")
        netlist.add_input("a")
        netlist.add_gate("g1", GateType.NOT, ["a"])
        netlist.add_gate("g2", GateType.NOT, ["g1"])
        netlist.add_output("g1")  # has fanout AND is an output (pseudo-PO)
        netlist.add_output("g2")
        netlist.freeze()
        g1 = netlist.index_of("g1")
        assert g1 in netlist.output_indices
        assert netlist.fanout(g1)
