"""Bit-parallel {0,1,x} cone simulation on Python ints: the trial kernel.

The justifier's trial simulations (Section 2.1 of the paper) and the
lockstep implication filter run on this kernel.  Each cone compiles once
into one straight-line Python function, one statement pair per gate, so
a simulation is a single call whose every gate is a handful of big-int
bitwise ops -- no per-level numpy dispatch.

Encoding
--------

Each {0,1,x} value is 2 bits split across a *plane pair*:

* plane ``d1`` -- "definitely one";
* plane ``p1`` -- "possibly one".

So ``0 -> (0, 0)``, ``1 -> (1, 1)``, ``x -> (0, 1)``; ``(1, 0)`` is never
produced (``d1 -> p1`` is an invariant of every op below).  Both planes
are monoid homomorphisms of the ternary AND/OR algebra onto boolean
AND/OR, so:

* AND / OR: one ``&`` / ``|`` per fanin, on each plane;
* NOT: ``(d1', p1') = (p1 ^ M, d1 ^ M)`` -- a plane swap plus an xor with
  the width mask ``M``; NAND / NOR apply it to the AND / OR;
* XOR: pairwise -- any ``x`` operand (``d1 ^ p1``) forces ``x``, else the
  boolean xor of the ``d1`` bits; XNOR inverts the result;
* BUF copies, CONST0 is ``(0, 0)`` and CONST1 ``(M, M)``.

Lanes
-----

A plane is one int holding many independent simulations (lanes).  A
:class:`LaneBatch` lays its lanes out in *segments*: a segment of ``w``
lanes starting at lane ``first`` occupies bits ``3 * first`` to
``3 * (first + w)`` of every plane, as three blocks of ``w`` bits, one
block per waveform position (``v1``, ``v2``, ``v3``).  Lane ``j`` of the
segment is bit ``j`` of each block.  The justifier's rounds are one
segment; the implication filter gives every open requirement set its own
segment, so a set's input planes move into a batch with one shift and
its verdicts come back out with one.  Lanes never interact, so a lane's
value never depends on which other lanes share the call.

Requirements become per-node lane masks (:meth:`PackedConeSimulator.
localize` / :func:`lane_masks`): for each required node, the bits of the
lanes and positions that must be 1 and those that must be 0.  A lane
contradicts a required 1 where its value is a definite 0 (not ``p1``)
and a required 0 where it is a definite 1 (``d1``); it covers where the
definite value matches.  :meth:`PackedConeSimulator.screen` ORs those
bits over the required nodes and folds each segment's three position
blocks into one lane mask.

Use
---

:meth:`repro.sim.batch.BatchSimulator.restricted` builds one
:class:`PackedConeSimulator` per cone from the cone's
:class:`~repro.sim.batch.ConeSimulator` and caches it in the cone LRU;
:meth:`~repro.sim.batch.BatchSimulator.packed` builds the whole-netlist
one the implication filter uses.  :meth:`PackedConeSimulator.run_codes`
returns int8 codes in the cone's row order, bit-identical to the int8
:meth:`~repro.sim.batch.ConeSimulator.run_codes` (tested property).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..algebra.ternary import ONE, X, ZERO
from ..circuit.netlist import GateType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (batch builds these)
    from .batch import ConeSimulator
    from .cover import CompiledRequirements

__all__ = ["LaneBatch", "PackedConeSimulator", "decode", "lane_masks"]

#: ``(slot, one positions, zero positions)`` per required node: ``slot``
#: indexes the kernel's output tuple (its ``d1``; ``p1`` follows), and the
#: positions are 3-bit sets (bit ``b`` = waveform position ``b``).
Pattern = tuple[int, int, int]


class LaneBatch:
    """The input planes of one kernel call.

    ``planes`` holds each input row's ``d1`` and ``p1`` ints, interleaved
    (``planes[2 * i]``, ``planes[2 * i + 1]``), over the ``segments``
    (``(first lane, width)`` pairs, in lane order).  ``shape`` is
    ``(rows, 3, columns)``: the trial columns the caller accounts for,
    which may be fewer than the lanes (a justifier round simulates every
    trial lane but reads only the unresolved ones).
    """

    __slots__ = ("planes", "segments", "lanes", "shape")

    def __init__(
        self,
        planes: list[int],
        segments: Sequence[tuple[int, int]],
        columns: int | None = None,
    ) -> None:
        self.planes = planes
        self.segments = segments
        self.lanes = sum(width for _, width in segments)
        self.shape = (
            len(planes) // 2, 3, self.lanes if columns is None else columns
        )

    @classmethod
    def from_codes(cls, codes: np.ndarray) -> "LaneBatch":
        """One segment of ``K`` lanes from ternary codes ``(rows, 3, K)``."""
        rows, _, k = codes.shape
        flat = codes.reshape(rows, 3 * k)
        d1 = _ints(flat == ONE)
        p1 = _ints(flat != ZERO)
        planes = [plane for pair in zip(d1, p1) for plane in pair]
        return cls(planes, ((0, k),))

    def codes(self) -> np.ndarray:
        """The batch as ternary codes ``(rows, 3, lanes)``."""
        return decode(self.planes, self.segments)


def _ints(bits: np.ndarray) -> list[int]:
    """Each row of a boolean ``(n, width)`` array as an int (bit j = column j)."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def decode(planes: Sequence[int], segments: Sequence[tuple[int, int]]) -> np.ndarray:
    """Interleaved ``d1``/``p1`` plane ints as ternary codes ``(n, 3, lanes)``."""
    n = len(planes) // 2
    lanes = sum(width for _, width in segments)
    nbytes = (3 * lanes + 7) // 8
    raw = np.frombuffer(
        b"".join(plane.to_bytes(nbytes, "little") for plane in planes), np.uint8
    ).reshape(len(planes), nbytes)
    bits = np.unpackbits(raw, axis=1, bitorder="little").reshape(n, 2, 8 * nbytes)
    out = np.empty((n, 3, lanes), dtype=np.int8)
    for first, width in segments:
        block = bits[:, :, 3 * first : 3 * (first + width)].reshape(n, 2, 3, width)
        d1, p1 = block[:, 0], block[:, 1]
        # (1, 0) is never produced; it decodes defensively as x.
        out[:, :, first : first + width] = np.where(
            d1 & p1, ONE, np.where(d1 | p1, X, ZERO)
        )
    return out


def lane_masks(patterns: Sequence[Pattern], width: int, shift: int = 0) -> list:
    """Requirement masks over one segment of ``width`` lanes.

    Returns ``(slot, one, zero)`` per required node: ``one`` / ``zero``
    set every lane's bit in each position block required to be 1 / 0.
    ``shift`` moves the masks to a segment starting at bit ``shift``.
    """
    v1 = ((1 << width) - 1) << shift
    v2 = v1 << width
    v3 = v2 << width
    spread = (0, v1, v2, v1 | v2, v3, v1 | v3, v2 | v3, v1 | v2 | v3)
    return [(slot, spread[one], spread[zero]) for slot, one, zero in patterns]


def _generate(cone: "ConeSimulator", inputs: Sequence[int]):
    """Compile the cone into ``run(*input planes, M) -> all node planes``.

    One statement pair per gate, in level order; ``d{r}`` / ``p{r}`` hold
    cone-local row ``r``'s planes and the result tuple lists every row's
    ``d1``, ``p1`` in row order.
    """
    netlist = cone.netlist
    local = cone.global_to_local
    args = [f"d{row}, p{row}" for row in inputs]
    lines = [f"def run({', '.join(args + ['M'])}):"]
    for index in sorted((int(g) for g in cone.nodes), key=netlist.level):
        node = netlist.node_at(index)
        gate = node.gate_type
        if gate is GateType.INPUT:
            continue
        out = int(local[index])
        fanin = [int(local[ref]) for ref in netlist.fanin_indices(index)]
        d, p = f"d{out}", f"p{out}"
        if gate is GateType.CONST0:
            lines.append(f" {d} = {p} = 0")
        elif gate is GateType.CONST1:
            lines.append(f" {d} = {p} = M")
        elif gate in (GateType.XOR, GateType.XNOR):
            lines.append(f" {d} = d{fanin[0]}; {p} = p{fanin[0]}")
            for ref in fanin[1:]:
                lines.append(
                    f" t = ({d} ^ {p}) | (d{ref} ^ p{ref}); v = {d} ^ d{ref};"
                    f" {p} = v | t; {d} = {p} ^ t"
                )
            if gate is GateType.XNOR:
                lines.append(f" {d}, {p} = {p} ^ M, {d} ^ M")
        else:
            op = "&" if gate in (GateType.AND, GateType.NAND, GateType.BUF, GateType.NOT) else "|"
            ds = f" {op} ".join(f"d{ref}" for ref in fanin)
            ps = f" {op} ".join(f"p{ref}" for ref in fanin)
            if gate in (GateType.NAND, GateType.NOR, GateType.NOT):
                lines.append(f" {d} = ({ps}) ^ M; {p} = ({ds}) ^ M")
            else:
                lines.append(f" {d} = {ds}; {p} = {ps}")
    rows = ", ".join(f"d{row}, p{row}" for row in range(cone.n_nodes))
    lines.append(f" return ({rows},)" if rows else " return ()")
    namespace: dict = {}
    exec(compile("\n".join(lines), f"<cone {cone.n_nodes}>", "exec"), namespace)
    return namespace["run"]


class PackedConeSimulator:
    """The bit-parallel kernel of one :class:`~repro.sim.batch.ConeSimulator`.

    Compiles the cone's gates once into one Python function and keeps the
    cone's metadata (``nodes``, ``n_nodes``, ``pi_index``, ``support``)
    plus :meth:`screen`, the trial kernel, and :meth:`run_codes`, which
    returns the same int8 codes as the cone's.  Constructed by
    :meth:`repro.sim.batch.BatchSimulator.restricted` on a cone-cache
    miss, so compilation amortizes exactly like the cone LRU.  The int8
    cone is not retained: a cached cone holds its function and a
    requirement-row map.
    """

    def __init__(self, cone: "ConeSimulator") -> None:
        self.stats = cone.stats
        self.nodes = cone.nodes
        self.n_nodes = cone.n_nodes
        self.pi_index = cone.pi_index
        #: The cone's primary inputs (ascending) -- row order of inputs.
        self.support = cone.support
        #: Global dense index -> cone-local row (-1 outside the cone).
        self._row = cone.global_to_local
        self._run = _generate(cone, [int(row) for row in cone._pi_local])

    def patterns(self, compiled: "CompiledRequirements") -> list[Pattern]:
        """Per required node, its output slot and required positions;
        every requirement node must lie inside the cone."""
        local = compiled.remapped(self._row)
        by_node: dict[int, list[int]] = {}
        for node, position, value in zip(
            local.nodes.tolist(), local.positions.tolist(), local.values.tolist()
        ):
            bits = by_node.setdefault(node, [0, 0])
            bits[value != ONE] |= 1 << position
        return [(2 * node, one, zero) for node, (one, zero) in by_node.items()]

    def localize(self, compiled: "CompiledRequirements", lanes: int) -> list:
        """Lane masks of ``compiled`` for one segment of ``lanes`` lanes
        (what :meth:`screen` reads)."""
        return lane_masks(self.patterns(compiled), lanes)

    # -- Simulation -----------------------------------------------------

    def _simulate(self, batch: LaneBatch) -> tuple:
        stats = self.stats
        if stats is not None:
            columns = batch.shape[2]
            stats.count("batch.runs")
            stats.count("batch.columns", columns)
            stats.count("cone.runs")
            stats.count("cone.columns", columns)
            stats.count("backend.packed.runs")
            stats.count("backend.packed.columns", columns)
            stats.count("backend.packed.words", -(-3 * batch.lanes // 64))
        return self._run(*batch.planes, (1 << 3 * batch.lanes) - 1)

    def run_codes(self, pi_codes: np.ndarray) -> np.ndarray:
        """Simulate from raw ternary codes over the cone.

        Same contract as :meth:`repro.sim.batch.ConeSimulator.run_codes`:
        rows ordered as :attr:`pi_index` in, cone-local codes
        ``(n_cone_nodes, 3, K)`` out -- bit-identical to the int8 kernel.
        """
        n_pis, three, _ = pi_codes.shape
        if three != 3 or n_pis != len(self.pi_index):
            raise ValueError(
                f"expected shape ({len(self.pi_index)}, 3, K), got {pi_codes.shape}"
            )
        batch = LaneBatch.from_codes(pi_codes)
        return decode(self._simulate(batch), batch.segments)

    def screen(self, batch: LaneBatch, masks: Sequence[tuple]) -> tuple[int, int]:
        """Simulate ``batch`` and check requirements without decoding.

        ``masks`` come from :meth:`localize` / :func:`lane_masks` for the
        batch's layout.  Returns ``(consistent, covered)`` lane masks (bit
        ``j`` = lane ``j``), exactly the int8 kernel's ``consistent_with``
        / ``covered_by`` verdicts per lane.  Lanes with no requirement
        read as consistent and covered.
        """
        values = self._simulate(batch)
        bad = unsat = 0
        for slot, one, zero in masks:
            d1 = values[slot]
            p1 = values[slot + 1]
            if one:
                bad |= one & ~p1
                unsat |= one & ~d1
            if zero:
                bad |= zero & d1
                unsat |= zero & p1
        consistent = covered = 0
        for first, width in batch.segments:
            lane = (1 << width) - 1
            b = bad >> 3 * first
            u = unsat >> 3 * first
            consistent |= (lane ^ ((b | b >> width | b >> 2 * width) & lane)) << first
            covered |= (lane ^ ((u | u >> width | u >> 2 * width) & lane)) << first
        return consistent, covered

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"PackedConeSimulator({self.n_nodes} nodes, {len(self.pi_index)} PIs)"
