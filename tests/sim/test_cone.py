"""Cone-restricted sub-simulator: equivalence invariant and caching."""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.algebra.ternary import ONE, X, ZERO
from repro.circuit.analysis import input_cone, support_inputs
from repro.circuit.synth import SynthProfile, generate
from repro.engine.stats import EngineStats
from repro.sim.batch import BatchSimulator, ConeSimulator
from repro.sim.cover import CompiledRequirements
from tests import oracle


def random_codes(n_pis: int, k: int, rng: random.Random) -> np.ndarray:
    """Random (n_pis, 3, K) endpoint codes with derived middles."""
    codes = np.empty((n_pis, 3, k), dtype=np.int8)
    for row in range(n_pis):
        for col in range(k):
            v1 = rng.choice((ZERO, ONE, X))
            v3 = rng.choice((ZERO, ONE, X))
            v2 = v1 if (v1 == v3 and v1 != X) else X
            codes[row, :, col] = (v1, v2, v3)
    return codes


def random_netlists():
    """A spread of synthetic circuits for the property test."""
    nets = []
    for seed in (1, 2, 3):
        nets.append(
            generate(
                SynthProfile(
                    name=f"cone_mesh_{seed}",
                    seed=seed,
                    style="mesh",
                    n_inputs=8,
                    n_gates=40,
                    n_outputs=4,
                    window=6.0,
                )
            )
        )
        nets.append(
            generate(
                SynthProfile(
                    name=f"cone_chain_{seed}",
                    seed=seed,
                    style="chain",
                    n_inputs=9,
                    rails=3,
                    depth=6,
                    q2=0.4,
                    p_flip=0.1,
                )
            )
        )
    return nets


class TestConeEquivalence:
    """The tentpole invariant: cone codes == full codes on cone nodes."""

    @pytest.mark.parametrize("netlist", random_netlists(), ids=lambda n: n.name)
    def test_random_netlists_random_seeds(self, netlist):
        rng = random.Random(netlist.name)
        full = BatchSimulator(netlist)
        non_input = [
            i for i in range(len(netlist)) if not netlist.node_at(i).is_input
        ]
        for _trial in range(5):
            seeds = rng.sample(non_input, k=min(3, len(non_input)))
            cone_sim = full.restricted(seeds)
            codes = random_codes(len(netlist.input_indices), 7, rng)
            full_out = full.run_codes(codes)
            # The cone sees only its own PI rows, in pi_index order.
            pi_rows = [
                int(np.nonzero(full.pi_index == pi)[0][0])
                for pi in cone_sim.pi_index
            ]
            cone_out = cone_sim.run_codes(codes[pi_rows])
            assert np.array_equal(cone_out, full_out[cone_sim.nodes])

    def test_s27_every_single_node_cone(self, s27):
        full = BatchSimulator(s27)
        rng = random.Random(27)
        codes = random_codes(len(s27.input_indices), 5, rng)
        full_out = full.run_codes(codes)
        for node in range(len(s27)):
            cone_sim = full.restricted([node])
            pi_rows = [
                int(np.nonzero(full.pi_index == pi)[0][0])
                for pi in cone_sim.pi_index
            ]
            cone_out = cone_sim.run_codes(codes[pi_rows])
            assert np.array_equal(cone_out, full_out[cone_sim.nodes])

    def test_cone_structure(self, c17):
        full = BatchSimulator(c17)
        seeds = [c17.output_indices[0]]
        cone_sim = full.restricted(seeds)
        expected = sorted(input_cone(c17, seeds))
        assert cone_sim.nodes.tolist() == expected
        assert cone_sim.support == support_inputs(c17, seeds)
        assert cone_sim.n_nodes == len(expected)

    def test_localize_roundtrip(self, s27):
        # ConeSimulator-specific contract: local rows index cone.nodes.
        # (The bit-parallel kernel's localize maps further, into lane masks.)
        full = BatchSimulator(s27)
        seeds = [s27.output_indices[0], s27.output_indices[1]]
        cone_sim = ConeSimulator(full, frozenset(input_cone(s27, seeds)))
        from repro.algebra.triple import Triple

        requirements = {seeds[0]: Triple.of(ZERO, X, ONE)}
        compiled = CompiledRequirements(requirements)
        local = cone_sim.localize(compiled)
        assert local.num_components == compiled.num_components
        back = cone_sim.nodes[local.nodes]
        assert back.tolist() == compiled.nodes.tolist()

    def test_localize_rejects_outside_nodes(self, s27):
        full = BatchSimulator(s27)
        # Cone of one primary input: just that node.
        pi = s27.input_indices[0]
        cone_sim = full.restricted([pi])
        from repro.algebra.triple import Triple

        outside = s27.output_indices[0]
        assert outside not in set(cone_sim.nodes.tolist())
        compiled = CompiledRequirements({outside: Triple.of(ONE, X, X)})
        with pytest.raises(ValueError, match="outside the cone"):
            cone_sim.localize(compiled, 1)

    def test_run_codes_shape_validation(self, s27):
        full = BatchSimulator(s27)
        cone_sim = full.restricted([s27.output_indices[0]])
        bad = np.full((len(s27.input_indices) + 1, 3, 2), X, dtype=np.int8)
        with pytest.raises(ValueError, match="expected shape"):
            cone_sim.run_codes(bad)


class TestConeCache:
    def test_seed_key_hit(self, s27):
        stats = EngineStats()
        full = BatchSimulator(s27, stats=stats)
        seeds = [s27.output_indices[0]]
        first = full.restricted(seeds)
        second = full.restricted(seeds)
        assert first is second
        assert stats.counter("cone.miss") == 1
        assert stats.counter("cone.hit") == 1
        assert stats.counter("cone.compile") == 1

    def test_equal_cones_share_compilation(self, s27):
        """Distinct seed keys resolving to the same cone reuse it."""
        stats = EngineStats()
        full = BatchSimulator(s27, stats=stats)
        out = s27.output_indices[0]
        fanin = list(s27.fanin_indices(out))
        first = full.restricted([out])
        # Seeds {out} and {out} + fanin have identical input cones.
        second = full.restricted([out, *fanin])
        assert first is second
        assert stats.counter("cone.miss") == 2
        assert stats.counter("cone.compile") == 1

    def test_lru_eviction(self, s27, monkeypatch):
        from repro.sim import batch as batch_module

        monkeypatch.setattr(batch_module, "LRU_CACHE_SIZE", 2)
        full = BatchSimulator(s27)
        nodes = [i for i in range(len(s27)) if not s27.node_at(i).is_input]
        sims = [full.restricted([node]) for node in nodes[:3]]
        assert len(full._cone_by_seed) <= 2
        assert len(full._cone_by_cone) <= 2
        # Most recent entries survive; the oldest seed key was evicted and
        # recomputes (possibly hitting the cone-level dedup).
        again = full.restricted([nodes[2]])
        assert again is sims[2]

    def test_counters_feed_batch_totals(self, s27):
        stats = EngineStats()
        full = BatchSimulator(s27, stats=stats)
        cone_sim = full.restricted([s27.output_indices[0]])
        codes = np.full((len(cone_sim.pi_index), 3, 4), X, dtype=np.int8)
        cone_sim.run_codes(codes)
        assert stats.counter("batch.runs") == 1
        assert stats.counter("batch.columns") == 4
        assert stats.counter("cone.runs") == 1
        assert stats.counter("cone.columns") == 4


class TestConeJustification:
    """Cone-restricted justification checked against the scalar oracle."""

    @pytest.mark.parametrize("circuit", ["s27", "tiny_chain"])
    def test_justified_tests_pass_the_oracle(self, circuit, request):
        from repro.atpg.justify import Justifier
        from repro.atpg.requirements import RequirementSet
        from repro.faults import build_target_sets

        netlist = request.getfixturevalue(circuit)
        targets = build_target_sets(netlist, max_faults=200, p0_min_faults=20)
        justifier = Justifier(netlist)
        rng = random.Random(5)
        found = 0
        for record in targets.all_records[:40]:
            requirements = record.sens.requirements
            result = justifier.justify(RequirementSet(requirements), rng)
            if result is None:
                continue
            found += 1
            values = oracle.simulate(netlist, result.test)
            assert oracle.satisfies(values, requirements)
            # The returned full-netlist codes are the oracle's values.
            for index, triple in enumerate(values):
                assert tuple(result.sim_codes[index]) == triple.components()
        assert found
