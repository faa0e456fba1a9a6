"""Tests for structural analysis: distances, path counting, cones."""

from repro.circuit import (
    GateType,
    analyze,
    build_netlist,
    count_paths,
    distance_to_outputs,
    input_cone,
    longest_path_length,
    output_cone,
    path_length_counts,
    support_inputs,
)
from repro.paths import enumerate_paths


def diamond():
    r"""a -> g1 -> g3 -> out, and a -> g2 -> g3 (two reconvergent arms)."""
    return build_netlist(
        "diamond",
        inputs=["a", "b"],
        gates=[
            ("g1", GateType.NOT, ["a"]),
            ("g2", GateType.AND, ["a", "b"]),
            ("g3", GateType.OR, ["g1", "g2"]),
        ],
        outputs=["g3"],
    )


class TestDistance:
    def test_diamond_distances(self):
        netlist = diamond()
        d = distance_to_outputs(netlist)
        assert d[netlist.index_of("g3")] == 0
        assert d[netlist.index_of("g1")] == 1
        assert d[netlist.index_of("g2")] == 1
        assert d[netlist.index_of("a")] == 2
        assert d[netlist.index_of("b")] == 2

    def test_unreachable_node_marked(self):
        netlist = build_netlist(
            "dangling",
            inputs=["a"],
            gates=[
                ("used", GateType.NOT, ["a"]),
                ("dead", GateType.NOT, ["a"]),
            ],
            outputs=["used"],
        )
        d = distance_to_outputs(netlist)
        assert d[netlist.index_of("dead")] == -1
        assert d[netlist.index_of("a")] == 1

    def test_pseudo_output_with_fanout(self):
        # A node that is an output AND drives more logic: d reflects the
        # longer continuation, not the endpoint.
        netlist = build_netlist(
            "pseudo",
            inputs=["a"],
            gates=[
                ("g1", GateType.NOT, ["a"]),
                ("g2", GateType.NOT, ["g1"]),
            ],
            outputs=["g1", "g2"],
        )
        d = distance_to_outputs(netlist)
        assert d[netlist.index_of("g1")] == 1  # can continue to g2
        assert d[netlist.index_of("a")] == 2

    def test_s27_max_distance_matches_longest_path(self, s27):
        d = distance_to_outputs(s27)
        best = max(d[i] + 1 for i in s27.input_indices)
        assert best == longest_path_length(s27) == 7


class TestPathCounting:
    def test_diamond_count(self):
        assert count_paths(diamond()) == 3  # a->g1->g3, a->g2->g3, b->g2->g3

    def test_s27_count_matches_enumeration(self, s27):
        full = enumerate_paths(s27, max_faults=10_000)
        assert count_paths(s27) == len(full.paths) == 28

    def test_length_histogram_matches_enumeration(self, s27):
        histogram = path_length_counts(s27)
        full = enumerate_paths(s27, max_faults=10_000)
        enumerated: dict[int, int] = {}
        for path in full.paths:
            enumerated[path.length] = enumerated.get(path.length, 0) + 1
        assert histogram == enumerated

    def test_length_histogram_matches_enumeration_synthetic(self, tiny_chain):
        histogram = path_length_counts(tiny_chain)
        full = enumerate_paths(tiny_chain, max_faults=10_000_000)
        enumerated: dict[int, int] = {}
        for path in full.paths:
            enumerated[path.length] = enumerated.get(path.length, 0) + 1
        assert histogram == enumerated

    def test_histogram_total_equals_count(self, tiny_mesh):
        histogram = path_length_counts(tiny_mesh)
        assert sum(histogram.values()) == count_paths(tiny_mesh)


class TestCones:
    def test_input_cone(self):
        netlist = diamond()
        cone = input_cone(netlist, ["g1"])
        names = {netlist.node_at(i).name for i in cone}
        assert names == {"g1", "a"}

    def test_output_cone(self):
        netlist = diamond()
        cone = output_cone(netlist, ["b"])
        names = {netlist.node_at(i).name for i in cone}
        assert names == {"b", "g2", "g3"}

    def test_support_inputs(self):
        netlist = diamond()
        support = support_inputs(netlist, ["g1"])
        assert [netlist.node_at(i).name for i in support] == ["a"]

    def test_cones_accept_indices(self):
        netlist = diamond()
        g1 = netlist.index_of("g1")
        assert input_cone(netlist, [g1]) == input_cone(netlist, ["g1"])


class TestAnalyze:
    def test_s27_stats(self, s27):
        stats = analyze(s27)
        assert stats.num_inputs == 7
        assert stats.num_outputs == 4
        assert stats.num_gates == 10
        assert stats.num_paths == 28
        assert stats.longest_path == 7
        assert "NOR" in stats.gate_counts
        assert "s27" in str(stats)

    def test_proxy_meets_paper_criterion(self):
        # The paper only evaluates circuits with at least 1000 paths.
        from repro.circuit import load_circuit

        for name in ("s641_proxy", "s1423_proxy", "b04_proxy"):
            assert analyze(load_circuit(name)).num_paths >= 900, name
