"""Structural analysis of combinational netlists.

Provides the quantities the path-enumeration and ATPG layers rely on:

* ``distance_to_outputs`` -- the paper's ``d(g)`` (Figure 2): for every line
  ``g``, the maximum number of *additional* lines on any path from ``g`` to a
  primary output.  ``d(g) = 0`` for lines whose only continuation is ending
  at a primary output; ``-1`` marks lines from which no primary output is
  reachable.
* ``count_paths`` / ``path_length_counts`` -- exact path population counts
  via dynamic programming (no enumeration), used to select circuits with at
  least 1000 paths and to validate Table 2 style length histograms.
* input/output cones, and a :class:`CircuitStats` summary.

Path length convention: the *length* of a path is the number of nodes on it
(primary input and every gate-output line it traverses), matching the
paper's unit-delay model "the delay of a path is equal to the number of
lines along the path" up to the treatment of fanout branches (see
DESIGN.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .netlist import Netlist

__all__ = [
    "distance_to_outputs",
    "count_paths",
    "path_length_counts",
    "longest_path_length",
    "input_cone",
    "output_cone",
    "support_inputs",
    "input_support_masks",
    "CircuitStats",
    "analyze",
]


def distance_to_outputs(netlist: Netlist) -> list[int]:
    """Compute ``d(g)`` for every node, indexed by dense node index.

    ``d(g)`` is the maximum number of additional nodes on any path from
    ``g`` to a primary output; a primary output itself contributes 0 (a
    path may end there).  Nodes from which no primary output is reachable
    get ``-1``.
    """
    n = len(netlist)
    distance = [-1] * n
    is_output = [False] * n
    for out_index in netlist.output_indices:
        is_output[out_index] = True
    # Reverse topological pass: every successor is processed first.
    for index in reversed(netlist.topo_order):
        best = 0 if is_output[index] else -1
        for succ in netlist.fanout(index):
            if distance[succ] >= 0 and distance[succ] + 1 > best:
                best = distance[succ] + 1
        distance[index] = best
    return distance


def count_paths(netlist: Netlist) -> int:
    """Exact number of primary-input-to-primary-output paths.

    Uses big-integer dynamic programming over the DAG, so it is safe for
    circuits whose path count is astronomically large.
    """
    n = len(netlist)
    suffix_paths = [0] * n
    is_output = [False] * n
    for out_index in netlist.output_indices:
        is_output[out_index] = True
    for index in reversed(netlist.topo_order):
        total = 1 if is_output[index] else 0
        for succ in netlist.fanout(index):
            total += suffix_paths[succ]
        suffix_paths[index] = total
    return sum(suffix_paths[i] for i in netlist.input_indices)


def path_length_counts(netlist: Netlist) -> dict[int, int]:
    """Exact histogram {path length (in nodes) -> number of paths}.

    Dynamic programming: for every node, the multiset of suffix-path lengths
    to the primary outputs, represented as a dict length -> count.  The
    result is the aggregate over all primary inputs.  Cost is
    O(nodes * depth), independent of the (possibly exponential) path count.
    """
    n = len(netlist)
    suffix: list[dict[int, int]] = [dict() for _ in range(n)]
    is_output = [False] * n
    for out_index in netlist.output_indices:
        is_output[out_index] = True
    for index in reversed(netlist.topo_order):
        table = suffix[index]
        if is_output[index]:
            table[1] = table.get(1, 0) + 1
        for succ in netlist.fanout(index):
            for length, count in suffix[succ].items():
                table[length + 1] = table.get(length + 1, 0) + count
    histogram: dict[int, int] = {}
    for pi in netlist.input_indices:
        for length, count in suffix[pi].items():
            histogram[length] = histogram.get(length, 0) + count
    return histogram


def longest_path_length(netlist: Netlist) -> int:
    """Length (in nodes) of the longest primary-input-to-output path."""
    distance = distance_to_outputs(netlist)
    best = 0
    for pi in netlist.input_indices:
        if distance[pi] >= 0:
            best = max(best, distance[pi] + 1)
    return best


def input_cone(netlist: Netlist, nodes: Iterable[int | str]) -> set[int]:
    """Transitive fanin (including the seed nodes) as dense indices."""
    stack = [
        netlist.index_of(node) if isinstance(node, str) else node for node in nodes
    ]
    seen: set[int] = set()
    while stack:
        index = stack.pop()
        if index in seen:
            continue
        seen.add(index)
        stack.extend(netlist.fanin_indices(index))
    return seen


def output_cone(netlist: Netlist, nodes: Iterable[int | str]) -> set[int]:
    """Transitive fanout (including the seed nodes) as dense indices."""
    stack = [
        netlist.index_of(node) if isinstance(node, str) else node for node in nodes
    ]
    seen: set[int] = set()
    while stack:
        index = stack.pop()
        if index in seen:
            continue
        seen.add(index)
        stack.extend(netlist.fanout(index))
    return seen


def support_inputs(netlist: Netlist, nodes: Iterable[int | str]) -> list[int]:
    """Primary inputs in the transitive fanin of ``nodes`` (sorted indices)."""
    cone = input_cone(netlist, nodes)
    return sorted(i for i in netlist.input_indices if i in cone)


def input_support_masks(netlist: Netlist) -> list[int]:
    """Per node, the primary inputs of its transitive fanin as a bitmask.

    Bit ``i`` stands for ``netlist.input_indices[i]``, so the set bits of
    the OR over a node set, read from the low end, are that set's support
    inputs in input order -- :func:`support_inputs` without a cone walk.
    One pass in topological order.
    """
    masks = [0] * len(netlist)
    for bit, pi in enumerate(netlist.input_indices):
        masks[pi] = 1 << bit
    for index in netlist.topo_order:
        mask = 0
        for ref in netlist.fanin_indices(index):
            mask |= masks[ref]
        if mask:
            masks[index] = mask
    return masks


@dataclass(frozen=True)
class CircuitStats:
    """Summary statistics for a combinational netlist."""

    name: str
    num_inputs: int
    num_outputs: int
    num_gates: int
    num_nodes: int
    depth: int
    num_paths: int
    longest_path: int
    gate_counts: Mapping[str, int]

    def __str__(self) -> str:
        gates = ", ".join(f"{k}={v}" for k, v in sorted(self.gate_counts.items()))
        return (
            f"{self.name}: {self.num_inputs} PIs, {self.num_outputs} POs, "
            f"{self.num_gates} gates, depth {self.depth}, "
            f"{self.num_paths} paths (longest {self.longest_path}) [{gates}]"
        )


def analyze(netlist: Netlist) -> CircuitStats:
    """Compute a :class:`CircuitStats` summary for a frozen netlist."""
    depth = max((netlist.level(i) for i in range(len(netlist))), default=0)
    gate_counts = {
        gate_type.name: count
        for gate_type, count in netlist.gate_type_counts().items()
    }
    return CircuitStats(
        name=netlist.name,
        num_inputs=len(netlist.input_names),
        num_outputs=len(netlist.output_names),
        num_gates=netlist.num_gates,
        num_nodes=len(netlist),
        depth=depth,
        num_paths=count_paths(netlist),
        longest_path=longest_path_length(netlist),
        gate_counts=gate_counts,
    )
