"""Tests for bounded path enumeration."""

import pytest

from repro.circuit import GateType, build_netlist, count_paths, load_circuit, pdf_ready
from repro.paths import EnumerationOverflow, enumerate_paths


class TestFullEnumeration:
    def test_s27_complete(self, s27):
        result = enumerate_paths(s27, max_faults=10_000)
        assert len(result.paths) == count_paths(s27) == 28
        assert not result.cap_hit
        assert result.num_faults == 56

    def test_paths_are_valid_and_complete(self, s27):
        result = enumerate_paths(s27, max_faults=10_000)
        for path in result.paths:
            path.validate(s27)
            assert path.is_complete(s27)

    def test_sorted_longest_first(self, s27):
        result = enumerate_paths(s27, max_faults=10_000)
        lengths = [p.length for p in result.paths]
        assert lengths == sorted(lengths, reverse=True)
        assert result.max_kept_length == 7
        assert result.min_kept_length == 2

    def test_no_duplicates(self, tiny_chain):
        result = enumerate_paths(tiny_chain, max_faults=10_000_000)
        assert len(set(result.paths)) == len(result.paths)

    @pytest.mark.parametrize("use_distances", [False, True])
    def test_both_variants_find_everything_uncapped(self, s27, use_distances):
        result = enumerate_paths(
            s27, max_faults=10_000, use_distances=use_distances
        )
        assert len(result.paths) == 28


class TestCapping:
    @pytest.mark.parametrize("use_distances", [False, True])
    def test_cap_respected(self, s27, use_distances):
        result = enumerate_paths(s27, max_faults=40, use_distances=use_distances)
        assert result.cap_hit
        assert result.num_faults < 40

    @pytest.mark.parametrize("use_distances", [False, True])
    def test_longest_paths_never_dropped(self, s27, use_distances):
        capped = enumerate_paths(s27, max_faults=40, use_distances=use_distances)
        full = enumerate_paths(s27, max_faults=10_000)
        longest = [p for p in full.paths if p.length == 7]
        for path in longest:
            assert path in capped.paths

    def test_distance_variant_prunes_partials(self, tiny_chain):
        result = enumerate_paths(tiny_chain, max_faults=60, use_distances=True)
        assert result.cap_hit
        # The distance-based variant may prune partial paths too.
        assert result.pruned_partial + result.pruned_complete > 0

    def test_capped_set_is_longest_subset(self, tiny_chain):
        """Distance-based capping keeps a top slice of the length ordering:
        every kept path must be at least as long as the (max_faults/2)-th
        longest path of the full population."""
        full = enumerate_paths(tiny_chain, max_faults=100_000_000)
        capped = enumerate_paths(tiny_chain, max_faults=80, use_distances=True)
        assert capped.paths, "cap should leave something"
        lengths = sorted((p.length for p in full.paths), reverse=True)
        threshold = lengths[min(40, len(lengths)) - 1]
        assert all(p.length >= threshold for p in capped.paths)

    def test_tiny_cap_keeps_critical_paths(self, s27):
        result = enumerate_paths(s27, max_faults=10, use_distances=True)
        assert result.paths
        assert all(p.length == 7 for p in result.paths)

    def test_invalid_cap_rejected(self, s27):
        with pytest.raises(ValueError):
            enumerate_paths(s27, max_faults=1)

    def test_basic_variant_overflow_guard(self, tiny_chain):
        with pytest.raises(EnumerationOverflow):
            enumerate_paths(
                tiny_chain,
                max_faults=4,
                use_distances=False,
                max_expansions=20,
            )


class TestEdgeCases:
    def test_input_that_is_output(self):
        netlist = build_netlist(
            "wire",
            inputs=["a"],
            gates=[("g", GateType.NOT, ["a"])],
            outputs=["a", "g"],
        )
        result = enumerate_paths(netlist, max_faults=100)
        lengths = sorted(p.length for p in result.paths)
        assert lengths == [1, 2]  # (a) itself and (a, g)

    def test_dead_logic_ignored(self):
        netlist = build_netlist(
            "dead",
            inputs=["a", "b"],
            gates=[
                ("live", GateType.AND, ["a", "b"]),
                ("dead", GateType.NOT, ["b"]),
            ],
            outputs=["live"],
        )
        result = enumerate_paths(netlist, max_faults=100)
        for path in result.paths:
            assert netlist.index_of("dead") not in path.nodes
        assert len(result.paths) == 2

    def test_pseudo_output_continuation(self):
        # Output node with fanout: both the path ending there and the
        # longer continuation must be enumerated.
        netlist = build_netlist(
            "pseudo",
            inputs=["a"],
            gates=[
                ("g1", GateType.NOT, ["a"]),
                ("g2", GateType.NOT, ["g1"]),
            ],
            outputs=["g1", "g2"],
        )
        result = enumerate_paths(netlist, max_faults=100)
        lengths = sorted(p.length for p in result.paths)
        assert lengths == [2, 3]


class TestRepeatedFanin:
    def test_gate_reading_one_signal_twice(self):
        netlist = build_netlist(
            "twice",
            inputs=["a", "b"],
            gates=[("g", GateType.NAND, ["a", "a", "b"])],
            outputs=["g"],
        )
        result = enumerate_paths(netlist, max_faults=100)
        assert len(result.paths) == count_paths(netlist) == 2

    @pytest.mark.parametrize("name", ["s1196_proxy", "s1488_proxy"])
    def test_no_duplicate_paths(self, name):
        # Both circuits hold a gate such as NAND(I5, I5).
        netlist = pdf_ready(load_circuit(name))
        result = enumerate_paths(netlist, max_faults=10_000)
        keys = [tuple(path.nodes) for path in result.paths]
        assert len(set(keys)) == len(keys)
        assert not result.cap_hit
        assert len(keys) == count_paths(netlist)
