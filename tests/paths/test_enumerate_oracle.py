"""Property tests: bounded enumeration against a brute-force oracle.

A tiny recursive enumerator (exponential, fine for small circuits) serves
as ground truth for random synthetic circuits: uncapped enumeration must
return exactly the oracle's path set, and capped enumeration must return a
longest-first subset that always contains every critical path.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.analysis import distance_to_outputs
from repro.circuit.synth import SynthProfile, generate
from repro.paths import enumerate_paths


def oracle_paths(netlist):
    """All complete paths by plain recursion."""
    is_output = set(netlist.output_indices)
    results = []

    def extend(prefix):
        node = prefix[-1]
        if node in is_output:
            results.append(tuple(prefix))
        for successor in netlist.fanout(node):
            prefix.append(successor)
            extend(prefix)
            prefix.pop()

    for pi in netlist.input_indices:
        extend([pi])
    return sorted(results)


def tiny_circuit(seed, style):
    if style == "mesh":
        profile = SynthProfile(
            name="oracle", seed=seed, n_inputs=5, n_gates=14, style="mesh", window=6.0
        )
    else:
        profile = SynthProfile(
            name="oracle", seed=seed, n_inputs=6, style="chain", rails=3, depth=5
        )
    return generate(profile)


class TestAgainstOracle:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), style=st.sampled_from(["mesh", "chain"]))
    def test_uncapped_matches_oracle(self, seed, style):
        netlist = tiny_circuit(seed, style)
        expected = oracle_paths(netlist)
        result = enumerate_paths(netlist, max_faults=10_000_000)
        got = sorted(path.nodes for path in result.paths)
        assert got == expected

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        style=st.sampled_from(["mesh", "chain"]),
        cap_paths=st.integers(2, 12),
    )
    def test_capped_keeps_critical_paths(self, seed, style, cap_paths):
        netlist = tiny_circuit(seed, style)
        expected = oracle_paths(netlist)
        if not expected:
            return
        longest = max(len(path) for path in expected)
        critical = {path for path in expected if len(path) == longest}
        result = enumerate_paths(
            netlist, max_faults=2 * cap_paths, use_distances=True
        )
        got = {path.nodes for path in result.paths}
        assert critical <= got
        # Everything returned is a real path.
        assert got <= set(expected)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_reach_estimate_is_exact_upper_bound(self, seed):
        """len(p) = |p| + d(sink) equals the length of the longest oracle
        path extending p (soundness and tightness of Figure 2)."""
        netlist = tiny_circuit(seed, "mesh")
        expected = oracle_paths(netlist)
        if not expected:
            return
        distance = distance_to_outputs(netlist)
        by_prefix = {}
        for path in expected:
            for cut in range(1, len(path) + 1):
                prefix = path[:cut]
                best = by_prefix.get(prefix, 0)
                by_prefix[prefix] = max(best, len(path))
        for prefix, longest_completion in by_prefix.items():
            sink = prefix[-1]
            if distance[sink] < 0:
                continue
            reach = len(prefix) + distance[sink]
            assert reach == longest_completion, prefix
