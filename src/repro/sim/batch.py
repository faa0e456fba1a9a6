"""Vectorized levelized waveform-triple simulator.

Simulates ``K`` two-pattern assignments at once over a compiled netlist.
This is the full-netlist kernel behind fault simulation (a whole test set
in one call) and the justifier's final verification of each test.

Internals
---------

Values use the *ordered* ternary encoding (0 -> 0, x -> 1, 1 -> 2) so AND is
``min`` and OR is ``max``; NOT is ``2 - v``.  The value state is an int8
array of shape ``(3, n_nodes, K)`` -- one plane per triple position.

The netlist is compiled once into per-level groups keyed by
``(gate_type, arity)``; each group evaluates with a handful of numpy
operations regardless of its gate count.

:meth:`BatchSimulator.restricted` compiles the same level groups over just
the transitive-fanin cone of a node set (:class:`ConeSimulator`) and hands
the justifier that cone's bit-packed simulator
(:class:`~repro.sim.packed.PackedConeSimulator`), its only trial-simulation
kernel.  Justification only ever inspects the values of its required
lines, which depend exclusively on that cone, so the cone produces
*identical* codes on cone nodes at a fraction of the per-column cost.
Compilations are LRU-cached per requirement-node key -- and deduplicated
per resolved cone -- so the many overlapping requirement sets of one ATPG
run share them.  :meth:`BatchSimulator.packed` is the same packed kernel
over the whole netlist, compiled once on first use, for the implication
filter's lockstep batches.  :meth:`ConeSimulator.run_codes` keeps the int8 kernel
over a cone as the reference the packed kernel is tested against.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..algebra.ternary import FROM_ORD, TO_ORD, X
from ..algebra.triple import Triple
from ..circuit.analysis import input_cone
from ..circuit.netlist import GateType, Netlist

if TYPE_CHECKING:  # pragma: no cover - packed imports this module
    from .packed import PackedConeSimulator

__all__ = ["BatchSimulator", "ConeSimulator", "LRU_CACHE_SIZE"]

#: Bound for each of :meth:`BatchSimulator.restricted`'s two LRU maps.
LRU_CACHE_SIZE = 4096

# Ordered-encoding constants.
_ORD0 = 0
_ORDX = 1
_ORD1 = 2

# XOR on the ordered encoding: x dominates, else boolean xor.
_XOR_ORD = np.array(
    [
        [_ORD0, _ORDX, _ORD1],
        [_ORDX, _ORDX, _ORDX],
        [_ORD1, _ORDX, _ORD0],
    ],
    dtype=np.int8,
)
_XOR_ORD.setflags(write=False)


@dataclass(frozen=True)
class _Fused:
    """All gates of one reduction family within one level.

    Gate types sharing a reduction collapse into one op: ``min`` evaluates
    AND/NAND/BUF/NOT (BUF/NOT are arity-1 reductions), ``max`` evaluates
    OR/NOR, ``xor`` evaluates XOR/XNOR.  ``in_idx`` rows are padded to the
    family's max arity with the index of a dedicated pad row holding the
    reduction's neutral element (ordered 2 for ``min``, 0 for ``max`` and
    ``xor``), and the inverting types (NAND/NOT/NOR/XNOR) are applied as a
    post-reduction inversion of their rows.  This keeps the per-simulation
    numpy call count at <= 3 per level regardless of the gate-type/arity
    mix -- the dominant cost for the justifier's many small cone batches.
    """

    kind: str  # "min" | "max" | "xor"
    out_idx: np.ndarray  # (n,)
    in_idx: np.ndarray  # (n, max_arity), padded
    invert: np.ndarray | None  # family-local rows to invert; None = none
    invert_all: bool


# Reduction family + inversion per gate type.
_FAMILY = {
    GateType.AND: ("min", False),
    GateType.NAND: ("min", True),
    GateType.BUF: ("min", False),
    GateType.NOT: ("min", True),
    GateType.OR: ("max", False),
    GateType.NOR: ("max", True),
    GateType.XOR: ("xor", False),
    GateType.XNOR: ("xor", True),
}

#: Extra value-state rows appended after the node rows: the ``min`` pad
#: (held at ordered 2) and the ``max``/``xor`` pad (held at ordered 0).
_N_PAD = 2


def _compile_levels(
    netlist: Netlist,
    indices: Iterable[int],
    n_rows: int,
    remap: dict[int, int] | None = None,
) -> tuple[list[list[_Fused]], np.ndarray, np.ndarray]:
    """Fuse the gates among ``indices`` by (level, reduction family).

    ``indices`` must be fanin-closed (every fanin of a member is a member);
    ``remap`` optionally translates dense node indices into a local index
    space; ``n_rows`` is the node-row count of that space (pad rows live at
    ``n_rows`` and ``n_rows + 1``).  Returns ``(levels, const0, const1)``
    with all indices already remapped.  Grouping by level is
    evaluation-order safe because a gate's level strictly exceeds every
    fanin's level.
    """
    pad_min = n_rows
    pad_max = n_rows + 1
    const0: list[int] = []
    const1: list[int] = []
    # level -> family kind -> (outs, fanin lists, inverted row flags)
    by_level: dict[int, dict[str, tuple[list[int], list[list[int]], list[bool]]]]
    by_level = {}
    for index in indices:
        node = netlist.node_at(index)
        if node.is_input:
            continue
        out = index if remap is None else remap[index]
        if node.gate_type is GateType.CONST0:
            const0.append(out)
            continue
        if node.gate_type is GateType.CONST1:
            const1.append(out)
            continue
        family = _FAMILY.get(node.gate_type)
        if family is None:  # pragma: no cover - freeze() rejects these
            raise AssertionError(f"unexpected gate type {node.gate_type}")
        kind, inverted = family
        level = netlist.level(index)
        fanin = list(netlist.fanin_indices(index))
        if remap is not None:
            fanin = [remap[ref] for ref in fanin]
        outs, ins, invs = by_level.setdefault(level, {}).setdefault(
            kind, ([], [], [])
        )
        outs.append(out)
        ins.append(fanin)
        invs.append(inverted)
    levels: list[list[_Fused]] = []
    for level in sorted(by_level):
        fused = []
        for kind in sorted(by_level[level]):
            outs, ins, invs = by_level[level][kind]
            arity = max(len(fanin) for fanin in ins)
            pad = pad_min if kind == "min" else pad_max
            in_idx = np.full((len(ins), arity), pad, dtype=np.int64)
            for row, fanin in enumerate(ins):
                in_idx[row, : len(fanin)] = fanin
            invert_rows = np.nonzero(invs)[0]
            fused.append(
                _Fused(
                    kind=kind,
                    out_idx=np.array(outs, dtype=np.int64),
                    in_idx=in_idx,
                    invert=invert_rows if invert_rows.size else None,
                    invert_all=bool(invert_rows.size == len(ins)),
                )
            )
        levels.append(fused)
    return levels, np.array(const0, dtype=np.int64), np.array(const1, dtype=np.int64)


def _propagate(levels: list[list[_Fused]], vals: np.ndarray) -> None:
    """Evaluate all levels in place on the ordered-encoding state.

    ``vals`` has shape ``(3, n_rows + 2, K)`` with the two pad rows already
    held at their neutral values.
    """
    for fused_groups in levels:
        for fused in fused_groups:
            gathered = vals[:, fused.in_idx, :]  # (3, n, arity, K)
            if fused.kind == "min":
                result = gathered.min(axis=2)
            elif fused.kind == "max":
                result = gathered.max(axis=2)
            else:  # xor
                result = gathered[:, :, 0, :]
                for operand in range(1, gathered.shape[2]):
                    result = _XOR_ORD[result, gathered[:, :, operand, :]]
            if fused.invert_all:
                result = 2 - result
            elif fused.invert is not None:
                result[:, fused.invert, :] = 2 - result[:, fused.invert, :]
            vals[:, fused.out_idx, :] = result


class BatchSimulator:
    """Simulates batches of two-pattern assignments on one netlist.

    The simulator is stateless between calls; construct once per netlist
    and reuse (compilation walks the whole circuit).
    """

    def __init__(self, netlist: Netlist, stats=None) -> None:
        """``stats`` is an optional EngineStats-compatible sink (anything
        with ``count(name, n)``); when set, every ``run_codes`` call records
        ``batch.runs`` and ``batch.columns``, and :meth:`restricted` records
        ``cone.hit`` / ``cone.miss`` / ``cone.compile`` (plus
        ``backend.packed.cones`` per packed plan compiled).
        """
        self.netlist = netlist
        self.stats = stats
        self.n_nodes = len(netlist)
        self.pi_index = np.array(netlist.input_indices, dtype=np.int64)
        self._pi_pos = {int(node): row for row, node in enumerate(self.pi_index)}
        self._levels, self._const0, self._const1 = _compile_levels(
            netlist, netlist.topo_order, self.n_nodes
        )
        # Requirement-node key -> packed cone simulator, plus a second map
        # keyed by the resolved cone so distinct requirement sets with equal
        # cones share one compilation.  Both LRU-bounded by LRU_CACHE_SIZE.
        self._cone_by_seed: "OrderedDict[frozenset[int], PackedConeSimulator]" = OrderedDict()
        self._cone_by_cone: "OrderedDict[frozenset[int], PackedConeSimulator]" = OrderedDict()
        self._packed: "PackedConeSimulator | None" = None

    # ------------------------------------------------------------------
    # Public entry points
    # ------------------------------------------------------------------

    def restricted(self, nodes: Iterable[int]) -> "PackedConeSimulator":
        """Packed cone simulator for the fanin cone of ``nodes``.

        The cone is the transitive-fanin closure
        (:func:`repro.circuit.analysis.input_cone`) of the seed set -- the
        smallest fanin-closed sub-circuit that computes every seed node, and
        hence exactly what a justification of requirements on ``nodes``
        has to simulate.  Results are LRU-cached: once per seed key, and
        compilations are additionally shared between seed sets that resolve
        to the same cone.  Each cone compiles its packed plan once, on the
        miss that first builds it.
        """
        key = frozenset(int(node) for node in nodes)
        packed = self._cone_by_seed.get(key)
        if packed is not None:
            self._cone_by_seed.move_to_end(key)
            if self.stats is not None:
                self.stats.count("cone.hit")
            return packed
        if self.stats is not None:
            self.stats.count("cone.miss")
        cone_key = frozenset(input_cone(self.netlist, key))
        packed = self._cone_by_cone.get(cone_key)
        if packed is None:
            from .packed import PackedConeSimulator

            if self.stats is not None:
                self.stats.count("cone.compile")
                self.stats.count("backend.packed.cones")
            packed = PackedConeSimulator(ConeSimulator(self, cone_key))
            self._cone_by_cone[cone_key] = packed
            while len(self._cone_by_cone) > LRU_CACHE_SIZE:
                self._cone_by_cone.popitem(last=False)
        else:
            self._cone_by_cone.move_to_end(cone_key)
        self._cone_by_seed[key] = packed
        while len(self._cone_by_seed) > LRU_CACHE_SIZE:
            self._cone_by_seed.popitem(last=False)
        return packed

    def packed(self) -> "PackedConeSimulator":
        """Packed simulator of the whole netlist, compiled on first use.

        The lockstep implication filter screens many requirement sets per
        simulation, so it needs every node rather than one set's cone.
        Input rows follow :attr:`Netlist.input_indices` (``pi_index``).
        """
        if self._packed is None:
            from .packed import PackedConeSimulator

            if self.stats is not None:
                self.stats.count("backend.packed.cones")
            everything = frozenset(range(self.n_nodes))
            self._packed = PackedConeSimulator(ConeSimulator(self, everything))
        return self._packed

    def run_codes(self, pi_codes: np.ndarray) -> np.ndarray:
        """Simulate from raw ternary codes.

        ``pi_codes``: int8 array of shape ``(n_pis, 3, K)`` with values in
        {ZERO, ONE, X}.  Returns ``(n_nodes, 3, K)`` codes for every node.
        """
        n_pis, three, k = pi_codes.shape
        if three != 3 or n_pis != len(self.pi_index):
            raise ValueError(
                f"expected shape ({len(self.pi_index)}, 3, K), got {pi_codes.shape}"
            )
        if self.stats is not None:
            self.stats.count("batch.runs")
            self.stats.count("batch.columns", k)
        vals = np.full((3, self.n_nodes + _N_PAD, k), _ORDX, dtype=np.int8)
        vals[:, self.n_nodes, :] = _ORD1  # min-family pad (neutral for min)
        vals[:, self.n_nodes + 1, :] = _ORD0  # max/xor-family pad
        ord_in = TO_ORD[pi_codes]  # (n_pis, 3, K)
        vals[:, self.pi_index, :] = ord_in.transpose(1, 0, 2)
        if self._const0.size:
            vals[:, self._const0, :] = _ORD0
        if self._const1.size:
            vals[:, self._const1, :] = _ORD1
        _propagate(self._levels, vals)
        out = FROM_ORD[vals[:, : self.n_nodes, :]]  # (3, n_nodes, K)
        # The transpose view keeps the test axis contiguous (stride 1),
        # which is what every downstream fancy-indexing consumer gathers
        # along; materializing a C-contiguous copy buys nothing.
        return out.transpose(1, 0, 2)

    def run_triples(self, assignments: list[dict[int, Triple]]) -> np.ndarray:
        """Simulate a list of sparse assignments (node index -> Triple).

        Unassigned primary inputs are ``xxx``.  Returns codes of shape
        ``(n_nodes, 3, K)`` with ``K = len(assignments)``.
        """
        k = len(assignments)
        pi_codes = np.full((len(self.pi_index), 3, k), X, dtype=np.int8)
        pi_pos = self._pi_pos
        for column, assignment in enumerate(assignments):
            for node, triple in assignment.items():
                row = pi_pos.get(node)
                if row is None:
                    raise ValueError(
                        f"node {node} is not a primary input of {self.netlist.name}"
                    )
                pi_codes[row, 0, column] = triple.v1
                pi_codes[row, 1, column] = triple.v2
                pi_codes[row, 2, column] = triple.v3
        return self.run_codes(pi_codes)

    def run_two_pattern(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """Simulate fully/partially specified two-pattern tests.

        ``first``/``second``: ``(n_pis, K)`` ternary codes for pattern 1 and
        pattern 2.  The intermediate value of each input is its stable value
        when both patterns agree on a specified value, else ``x``.
        """
        if first.shape != second.shape:
            raise ValueError("pattern arrays must have identical shapes")
        mid = np.where((first == second) & (first != X), first, X).astype(np.int8)
        pi_codes = np.stack([first, mid, second], axis=1).astype(np.int8)
        return self.run_codes(pi_codes)


class ConeSimulator:
    """The level-grouped kernel compiled over one fanin-closed cone.

    Rows of every input/output array are *cone-local*: row ``i`` holds the
    node with global dense index ``nodes[i]`` (ascending).  ``pi_index``
    lists the cone's primary inputs as global indices -- exactly the
    support inputs of the seed set -- and defines the row order of
    ``run_codes`` input columns.

    :class:`~repro.sim.packed.PackedConeSimulator` compiles its packed plan
    from these level groups and is what :meth:`BatchSimulator.restricted`
    returns; :meth:`run_codes` stays as the int8 reference it is tested
    against.

    Invariant (tested property): for any input assignment,
    ``run_codes`` equals the full :class:`BatchSimulator` result restricted
    to ``nodes``, because the cone is fanin-closed and primary inputs
    outside it cannot influence any cone node.
    """

    def __init__(self, parent: BatchSimulator, cone: frozenset[int]) -> None:
        netlist = parent.netlist
        self.netlist = netlist
        self.stats = parent.stats
        self.nodes = np.array(sorted(cone), dtype=np.int64)
        self.n_nodes = len(self.nodes)
        self.global_to_local = np.full(len(netlist), -1, dtype=np.int64)
        self.global_to_local[self.nodes] = np.arange(self.n_nodes)
        self.pi_index = np.array(
            [pi for pi in netlist.input_indices if pi in cone], dtype=np.int64
        )
        #: The cone's primary inputs as plain ints (the support of the seed
        #: nodes, ascending) -- row order of ``run_codes`` inputs.
        self.support = [int(pi) for pi in self.pi_index]
        self._pi_local = self.global_to_local[self.pi_index]
        remap = {int(g): int(l) for g, l in zip(self.nodes, range(self.n_nodes))}
        self._levels, self._const0, self._const1 = _compile_levels(
            netlist, [int(index) for index in self.nodes], self.n_nodes, remap
        )

    def localize(self, compiled):
        """Remap a :class:`~repro.sim.cover.CompiledRequirements` into
        cone-local rows; every requirement node must lie inside the cone."""
        return compiled.remapped(self.global_to_local)

    def run_codes(self, pi_codes: np.ndarray) -> np.ndarray:
        """Simulate from raw ternary codes over the cone.

        ``pi_codes``: int8 array ``(n_cone_pis, 3, K)``, rows ordered as
        :attr:`pi_index`.  Returns ``(n_cone_nodes, 3, K)`` cone-local
        codes.
        """
        n_pis, three, k = pi_codes.shape
        if three != 3 or n_pis != len(self.pi_index):
            raise ValueError(
                f"expected shape ({len(self.pi_index)}, 3, K), got {pi_codes.shape}"
            )
        if self.stats is not None:
            self.stats.count("batch.runs")
            self.stats.count("batch.columns", k)
            self.stats.count("cone.runs")
            self.stats.count("cone.columns", k)
        vals = np.full((3, self.n_nodes + _N_PAD, k), _ORDX, dtype=np.int8)
        vals[:, self.n_nodes, :] = _ORD1  # min-family pad (neutral for min)
        vals[:, self.n_nodes + 1, :] = _ORD0  # max/xor-family pad
        if n_pis:
            vals[:, self._pi_local, :] = TO_ORD[pi_codes].transpose(1, 0, 2)
        if self._const0.size:
            vals[:, self._const0, :] = _ORD0
        if self._const1.size:
            vals[:, self._const1, :] = _ORD1
        _propagate(self._levels, vals)
        out = FROM_ORD[vals[:, : self.n_nodes, :]]
        # The transpose view keeps the test axis contiguous (stride 1),
        # which is what every downstream fancy-indexing consumer gathers
        # along; materializing a C-contiguous copy buys nothing.
        return out.transpose(1, 0, 2)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ConeSimulator({self.netlist.name!r}, {self.n_nodes}/"
            f"{len(self.netlist)} nodes, {len(self.pi_index)} PIs)"
        )
