"""Exact uniform sampling of circuit paths.

Circuits have far too many paths to enumerate (the paper cites its own
non-enumerative coverage estimation work [2] precisely because of this).
Sampling gives an unbiased window into the whole population: draw paths
uniformly at random, fault-simulate the associated faults, and the
detected fraction estimates the *overall* path-delay-fault coverage of a
test set -- including the paths the bounded enumeration never looked at.

Uniformity is exact, not heuristic: using the suffix-path counts
``S(v) = number of PI->PO paths starting at v`` (big-integer dynamic
programming, same recurrence as :func:`repro.circuit.analysis.count_paths`),
a path is grown from a primary input chosen with probability proportional
to ``S(pi)``, then at each node the successor (or termination at an
output) is chosen with probability proportional to its suffix count.
Every complete path has probability exactly ``1 / total_paths``.
"""

from __future__ import annotations

import random

from ..circuit.netlist import Netlist
from ..faults.path import Path

__all__ = ["PathSampler", "sample_paths"]


class PathSampler:
    """Uniform sampler over all PI->PO paths of a netlist."""

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        n = len(netlist)
        suffix = [0] * n
        is_output = [False] * n
        for out_index in netlist.output_indices:
            is_output[out_index] = True
        for index in reversed(netlist.topo_order):
            total = 1 if is_output[index] else 0
            for successor in netlist.fanout(index):
                total += suffix[successor]
            suffix[index] = total
        self._suffix = suffix
        self._is_output = is_output
        self._sources = [
            pi for pi in netlist.input_indices if suffix[pi] > 0
        ]
        self._source_weights = [suffix[pi] for pi in self._sources]
        self.total_paths = sum(self._source_weights)

    def sample(self, rng: random.Random) -> Path:
        """Draw one path uniformly at random."""
        if self.total_paths == 0:
            raise ValueError("circuit has no PI->PO paths")
        node = rng.choices(self._sources, weights=self._source_weights)[0]
        nodes = [node]
        while True:
            # Decide between terminating here (when the node is an output)
            # and continuing into each successor, weighted by path counts.
            choices: list[int | None] = []
            weights: list[int] = []
            if self._is_output[node]:
                choices.append(None)
                weights.append(1)
            for successor in self.netlist.fanout(node):
                if self._suffix[successor] > 0:
                    choices.append(successor)
                    weights.append(self._suffix[successor])
            pick = rng.choices(choices, weights=weights)[0]
            if pick is None:
                return Path(nodes)
            nodes.append(pick)
            node = pick

    def sample_many(
        self, count: int, rng: random.Random, unique: bool = False
    ) -> list[Path]:
        """Draw ``count`` paths (with replacement unless ``unique``)."""
        if not unique:
            return [self.sample(rng) for _ in range(count)]
        seen: set[tuple[int, ...]] = set()
        out: list[Path] = []
        attempts = 0
        limit = max(50 * count, 1000)
        while len(out) < count and attempts < limit:
            attempts += 1
            path = self.sample(rng)
            if path.nodes not in seen:
                seen.add(path.nodes)
                out.append(path)
        return out


def sample_paths(
    netlist: Netlist, count: int, seed: int = 0, unique: bool = False
) -> list[Path]:
    """Convenience wrapper: uniformly sample ``count`` paths."""
    return PathSampler(netlist).sample_many(count, random.Random(seed), unique=unique)
