"""Bit-packed {0,1,x} cone simulation: the justifier's trial kernel.

Packs the batch columns of the justifier's trial simulations into uint64
words, 2 bits per ternary value, and evaluates the level kernel of
:mod:`repro.sim.batch` with word-wide bitwise ops -- one level pass
screens 64 justification trials per word pair.  It is the only kernel
the justifier and the implication filter use for trial simulation.

Encoding
--------

Each {0,1,x} value is 2 bits split across a *plane pair* of words:

* plane 0 -- ``d1``, "definitely one";
* plane 1 -- ``p1``, "possibly one".

So ``0 -> (0, 0)``, ``1 -> (1, 1)``, ``x -> (0, 1)``; ``(1, 0)`` is never
produced (``d1 -> p1`` is an invariant of every op below) and decodes
defensively as ``x``.  Lane ``j`` of the pair is bit ``j`` of both words
(64 lanes per word pair, little-endian bit order).

The issue sketched an *interleaved* layout (both bits of a lane adjacent,
32 lanes per word).  Measured on the justify hot path, the mask-and-
recombine that interleaving forces on every AND/OR made the packed kernel
*slower* than the int8 kernel (the workload is numpy-call-overhead bound,
not bandwidth bound).  The plane-separated layout keeps the same 2-bit
code but makes the ternary algebra collapse into single bitwise ops,
because ``d1`` and ``p1`` are each monoid homomorphisms of the ternary
AND/OR algebra onto boolean AND/OR:

* AND: ``d1' = AND(d1_i)`` and ``p1' = AND(p1_i)`` -- one plain bitwise
  AND-reduce over both planes;
* OR: likewise with OR;
* NOT: ``(d1', p1') = (~p1, ~d1)`` -- a bitwise NOT plus a plane *swap*;
* XOR: pairwise -- any ``x`` operand forces ``x``, else the boolean xor
  of the ``d1`` bits (see :func:`_xor_planes`).

State layout and the per-cone plan
----------------------------------

The packed state folds the plane axis into the row axis: row ``2i`` holds
node ``i``'s ``d1`` words, row ``2i + 1`` its ``p1`` words (shape
``(2 * (n_rows + 2), 3, W)``).  That turns NOT's plane swap into *index
selection*: a gather entry referencing node ``j`` is the row pair
``(2j, 2j + 1)``, or ``(2j + 1, 2j)`` for an operand of an inverting
gate.  Plane permutation commutes with the plane-wise AND/OR, so

* ``NAND = ~ AND(swapped inputs)`` and ``NOR = ~ OR(swapped inputs)``,

which reduces every min/max-family level to

1. one ``take`` gathering the level's fanin row pairs ``(n, A, 2)``,
2. one ``bitwise_and`` reduce over the AND/NAND rows and one
   ``bitwise_or`` reduce over the NOR/OR rows, each writing **directly
   into the state** (``out=`` a reshaped view of the level's contiguous
   output block -- rows are renumbered at plan-compile time so every
   level's outputs are class-sorted ``[AND | NAND | NOR | OR]`` and
   contiguous),
3. one in-place invert of the NAND/NOR output rows (contiguous by the
   same ordering),

with no per-class stores and no mask recombination -- 2-4 numpy calls
per level against the int8 kernel's 3+ per *family*, on ~10-30x less
data.  The (rare) XOR/XNOR rows evaluate pairwise from the same gather.

Lane padding mirrors the int8 kernel's pad-*row* treatment: when
``K`` is not a multiple of 64, the trailing lanes of the last word pair
hold constant 0 -- lanes never interact, so any valid ternary constant is
inert by construction, and the first ``K`` lanes are unaffected by batch
widening (tested property).  The same two pad *rows* as the int8 kernel
provide the reduction identities: the min-family pad holds constant 1
(all-ones in both planes), the max/xor-family pad constant 0; both are
symmetric across planes, so the swapped gathers of NAND/NOR keep them
neutral.

Use
---

:meth:`repro.sim.batch.BatchSimulator.restricted` compiles one
:class:`PackedConeSimulator` per cone, from the cone's
:class:`~repro.sim.batch.ConeSimulator`, and caches it in the cone LRU.
:meth:`PackedConeSimulator.screen` is the justifier's path: it computes
the (consistent, covered) verdicts against a
:class:`~repro.sim.cover.CompiledRequirements` directly on the packed
words, without materializing per-node codes.
:meth:`PackedConeSimulator.run_codes` unpacks int8 codes in the cone's
row order; it is bit-identical to the int8
:meth:`~repro.sim.batch.ConeSimulator.run_codes` (tested property).
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING, Sequence

import numpy as np

from ..algebra.ternary import ONE, X, ZERO
from .batch import _N_PAD

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (batch builds these)
    from .batch import ConeSimulator
    from .cover import CompiledRequirements

__all__ = ["LANES", "PackedConeSimulator", "pack_codes", "unpack_words", "words_for"]

#: Batch columns per uint64 word pair (2 bits per {0,1,x} value).
LANES = 64

_ALL = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Word views assume little-endian byte <-> bit-lane order; byteswap on BE.
_BIG_ENDIAN = sys.byteorder == "big"

#: ``2*d1 + p1`` -> ternary code ((1, 0) defensively decodes as x).
_DECODE = np.array([ZERO, X, X, ONE], dtype=np.int8)
_DECODE.setflags(write=False)

#: Gate classes in within-level row order.  The order makes the
#: AND-reduce rows {AND, NAND}, the OR-reduce rows {NOR, OR} and the
#: complemented rows {NAND, NOR} all contiguous ranges.
_CLASSES = ("and", "nand", "nor", "or", "xor", "xnor")
#: Classes whose gather swaps each operand's plane pair (the NOT half).
_SWAPPED = ("nand", "nor")
#: Classes whose reduce result is complemented in place.
_COMPLEMENTED = ("nand", "nor")


def words_for(columns: int) -> int:
    """Number of uint64 words per plane for ``columns`` lanes (>= 1)."""
    return max(1, -(-columns // LANES))


def _byteswapped(words: np.ndarray) -> np.ndarray:
    return words.byteswap() if _BIG_ENDIAN else words


def pack_codes(codes: np.ndarray) -> np.ndarray:
    """Pack ternary codes ``(n, 3, K)`` into plane pairs ``(n, 2, 3, W)``.

    Axis 1 is the (d1, p1) plane pair; lanes ``K .. 64 * W`` hold
    constant 0 (valid and inert -- lanes never interact).
    """
    n, three, k = codes.shape
    w = words_for(k)
    d1 = np.packbits(codes == ONE, axis=-1, bitorder="little")
    p1 = np.packbits(codes != ZERO, axis=-1, bitorder="little")
    buf = np.zeros((n, 2, three, w * 8), dtype=np.uint8)
    buf[:, 0, :, : d1.shape[-1]] = d1
    buf[:, 1, :, : p1.shape[-1]] = p1
    return _byteswapped(buf.view(np.uint64))


def unpack_words(words: np.ndarray, k: int) -> np.ndarray:
    """Unpack plane pairs ``(n, 2, 3, W)`` into ternary codes ``(n, 3, K)``."""
    lane_bytes = np.ascontiguousarray(_byteswapped(words)).view(np.uint8)
    bits = np.unpackbits(lane_bytes, axis=-1, bitorder="little")  # (n, 2, 3, 64W)
    return _DECODE[2 * bits[:, 0, :, :k] + bits[:, 1, :, :k]]


def _lane_bools(plane: np.ndarray, k: int) -> np.ndarray:
    """First ``k`` lane bits of one plane's words ``(W,)`` as bool."""
    lane_bytes = np.ascontiguousarray(_byteswapped(plane)).view(np.uint8)
    return np.unpackbits(lane_bytes, bitorder="little")[:k].astype(bool)


def _xor_planes(sub: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pairwise ternary XOR over the arity axis of ``(n, A, 2, 3, W)``.

    Returns the ``(d1, p1)`` planes.  Padded operand columns hold
    constant 0, the XOR identity, so the loop safely runs over the full
    padded arity.
    """
    d1 = sub[:, 0, 0]
    p1 = sub[:, 0, 1]
    for operand in range(1, sub.shape[1]):
        bd = sub[:, operand, 0]
        bp = sub[:, operand, 1]
        anyx = (p1 & ~d1) | (bp & ~bd)
        v = d1 ^ bd
        d1 = v & ~anyx
        p1 = v | anyx
    return d1, p1


def _class_of(kind: str, inverted: bool) -> str:
    if kind == "min":
        return "nand" if inverted else "and"
    if kind == "max":
        return "nor" if inverted else "or"
    return "xnor" if inverted else "xor"


def _compile_plan(cone: "ConeSimulator") -> tuple[list[tuple], np.ndarray]:
    """Renumber the cone's rows level-block-contiguously and build plans.

    Returns ``(plans, new_of)`` where ``new_of[old_row] -> plan node row``
    for all ``n_nodes + 2`` rows (the two pad rows keep their indices;
    state rows are the *doubled* plan rows).  Each plan is the tuple
    ``(in_idx, n_and, n_reduce, out_row, inv_bounds, xors)``:

    * ``in_idx`` -- ``(n_level, A, 2)`` state-row gather, each operand a
      ``(d1, p1)`` pair (swapped for NAND/NOR rows), family-padded;
    * ``n_and`` / ``n_reduce`` -- the AND-reduce prefix and the total
      reduce rows (the OR-reduce covers ``[n_and, n_reduce)``);
    * ``out_row`` -- first *state* row of the level's output block;
    * ``inv_bounds`` -- state-row range to complement (NAND+NOR), or None;
    * ``xors`` -- ``(t_lo, t_hi, out_row, inverted)`` XOR/XNOR blocks.
    """
    n_nodes = cone.n_nodes
    pad_min = n_nodes
    pad_max = n_nodes + 1
    # (class, out_old, fanin_old, pad_row) per level, class-sorted.
    level_rows: list[list[tuple[str, int, list[int], int]]] = []
    written = np.zeros(n_nodes, dtype=bool)
    for fused_groups in cone._levels:
        rows: list[tuple[str, int, list[int], int]] = []
        for fused in fused_groups:
            inverted = np.zeros(len(fused.out_idx), dtype=bool)
            if fused.invert_all:
                inverted[:] = True
            elif fused.invert is not None:
                inverted[fused.invert] = True
            pad = pad_min if fused.kind == "min" else pad_max
            for row in range(len(fused.out_idx)):
                out = int(fused.out_idx[row])
                rows.append(
                    (
                        _class_of(fused.kind, bool(inverted[row])),
                        out,
                        [int(ref) for ref in fused.in_idx[row]],
                        pad,
                    )
                )
                written[out] = True
        rows.sort(key=lambda item: _CLASSES.index(item[0]))
        level_rows.append(rows)
    order = [row for row in range(n_nodes) if not written[row]]
    level_starts = []
    for rows in level_rows:
        level_starts.append(len(order))
        order.extend(out for _, out, _, _ in rows)
    new_of = np.empty(n_nodes + _N_PAD, dtype=np.int64)
    new_of[np.array(order, dtype=np.int64)] = np.arange(n_nodes)
    new_of[pad_min] = pad_min
    new_of[pad_max] = pad_max

    plans: list[tuple] = []
    for rows, start in zip(level_rows, level_starts):
        arity = max(len(fanin) for _, _, fanin, _ in rows)
        in_idx = np.empty((len(rows), arity, 2), dtype=np.int64)
        for index, (name, _, fanin, pad) in enumerate(rows):
            swap = name in _SWAPPED
            for slot, ref in enumerate(fanin + [pad] * (arity - len(fanin))):
                row2 = 2 * int(new_of[ref])
                in_idx[index, slot] = (row2 + 1, row2) if swap else (row2, row2 + 1)
        counts = {name: 0 for name in _CLASSES}
        for name, _, _, _ in rows:
            counts[name] += 1
        n_and = counts["and"] + counts["nand"]
        n_reduce = n_and + counts["nor"] + counts["or"]
        n_inv = counts["nand"] + counts["nor"]
        inv_bounds = None
        if n_inv:
            inv_lo = 2 * (start + counts["and"])
            inv_bounds = (inv_lo, inv_lo + 2 * n_inv)
        xors = []
        t_row = n_reduce
        for name in ("xor", "xnor"):
            if counts[name]:
                xors.append(
                    (
                        t_row,
                        t_row + counts[name],
                        2 * (start + t_row),
                        name == "xnor",
                    )
                )
                t_row += counts[name]
        plans.append((in_idx, n_and, n_reduce, 2 * start, inv_bounds, xors))
    return plans, new_of


def _propagate_plan(plans: list[tuple], vals: np.ndarray) -> None:
    """Evaluate all level plans in place on the packed state.

    ``vals`` has shape ``(2 * (n_rows + 2), 3, W)`` with the two pad row
    pairs already holding constant 1 / constant 0.  Reduces write straight
    into the state (``take`` copies, so there is no aliasing).
    """
    for in_idx, n_and, n_reduce, out_row, inv_bounds, xors in plans:
        t = vals.take(in_idx, axis=0)  # (n, A, 2, 3, W)
        if n_reduce:
            out = vals[out_row : out_row + 2 * n_reduce]
            out = out.reshape(n_reduce, 2, out.shape[1], out.shape[2])
            if n_and:
                np.bitwise_and.reduce(t[:n_and], axis=1, out=out[:n_and])
            if n_reduce > n_and:
                np.bitwise_or.reduce(t[n_and:n_reduce], axis=1, out=out[n_and:])
        if inv_bounds is not None:
            inv = vals[inv_bounds[0] : inv_bounds[1]]
            np.invert(inv, out=inv)
        for t_lo, t_hi, x_row, inverted in xors:
            d1, p1 = _xor_planes(t[t_lo:t_hi])
            block = np.empty((t_hi - t_lo, 2) + d1.shape[1:], dtype=np.uint64)
            if inverted:  # XNOR = NOT(XOR) = (~p1, ~d1)
                np.invert(p1, out=block[:, 0])
                np.invert(d1, out=block[:, 1])
            else:
                block[:, 0] = d1
                block[:, 1] = p1
            vals[x_row : x_row + 2 * (t_hi - t_lo)] = block.reshape(
                -1, *d1.shape[1:]
            )


class PackedConeSimulator:
    """Packed-word simulator of one :class:`~repro.sim.batch.ConeSimulator`.

    Recompiles the cone's level groups once into the packed plan and
    keeps the cone's metadata (``nodes``, ``n_nodes``, ``pi_index``,
    ``support``) plus :meth:`screen`, the justifier's trial kernel, and
    :meth:`run_codes`, which returns the same int8 codes as the cone's.
    Constructed by :meth:`repro.sim.batch.BatchSimulator.restricted` on a
    cone-cache miss, so plan compilation amortizes exactly like the cone
    LRU.  The int8 cone is not retained, and each simulation allocates
    its own packed state, so a cached cone holds only its plan.
    """

    def __init__(self, cone: "ConeSimulator") -> None:
        self._plans, row_of = _compile_plan(cone)
        self.stats = cone.stats
        self.nodes = cone.nodes
        self.n_nodes = cone.n_nodes
        self.pi_index = cone.pi_index
        #: The cone's primary inputs (ascending) -- row order of inputs.
        self.support = cone.support
        node_rows = row_of[: cone.n_nodes]
        #: Global dense index -> plan node row (-1 outside the cone), the
        #: requirement remap applied by :meth:`localize`.
        self._plan_row = np.full(len(cone.global_to_local), -1, dtype=np.int64)
        self._plan_row[cone.nodes] = node_rows
        self._pi_rows2 = self._doubled(row_of[cone._pi_local])
        self._node_rows2 = self._doubled(node_rows)
        self._const0_rows2 = self._doubled(row_of[cone._const0])
        self._const1_rows2 = self._doubled(row_of[cone._const1])

    @staticmethod
    def _doubled(rows: np.ndarray) -> np.ndarray:
        """Interleaved state rows ``[2r, 2r+1, ...]`` for plan node rows."""
        return np.stack([2 * rows, 2 * rows + 1], axis=1).reshape(-1)

    def localize(self, compiled: "CompiledRequirements") -> "CompiledRequirements":
        """Remap requirements into plan rows (what :meth:`screen` reads);
        every requirement node must lie inside the cone."""
        return compiled.remapped(self._plan_row)

    # -- Simulation -----------------------------------------------------

    def _state(self, w: int) -> np.ndarray:
        """A fresh packed state of ``w`` words with its pad/const rows set.

        Every other row is overwritten by the input store or a level
        reduce before it is read.
        """
        n2 = 2 * self.n_nodes
        vals = np.empty((n2 + 2 * _N_PAD, 3, w), dtype=np.uint64)
        vals[n2 : n2 + 2] = _ALL  # min-family pad: constant 1
        vals[n2 + 2 : n2 + 4] = 0  # max/xor-family pad: constant 0
        if self._const0_rows2.size:
            vals[self._const0_rows2] = 0
        if self._const1_rows2.size:
            vals[self._const1_rows2] = _ALL
        return vals

    def _simulate(self, pi_codes: np.ndarray) -> tuple[np.ndarray, int]:
        """Pack, propagate, and return ``(vals, K)`` in state row space."""
        n_pis, three, k = pi_codes.shape
        if three != 3 or n_pis != len(self.pi_index):
            raise ValueError(
                f"expected shape ({len(self.pi_index)}, 3, K), got {pi_codes.shape}"
            )
        stats = self.stats
        w = words_for(k)
        if stats is not None:
            stats.count("batch.runs")
            stats.count("batch.columns", k)
            stats.count("cone.runs")
            stats.count("cone.columns", k)
            stats.count("backend.packed.runs")
            stats.count("backend.packed.columns", k)
            stats.count("backend.packed.words", w)
        vals = self._state(w)
        if n_pis:
            vals[self._pi_rows2] = pack_codes(pi_codes).reshape(-1, 3, w)
        _propagate_plan(self._plans, vals)
        return vals, k

    def run_codes(self, pi_codes: np.ndarray) -> np.ndarray:
        """Simulate from raw ternary codes over the cone.

        Same contract as :meth:`repro.sim.batch.ConeSimulator.run_codes`:
        rows ordered as :attr:`pi_index` in, cone-local codes
        ``(n_cone_nodes, 3, K)`` out -- bit-identical to the int8 kernel.
        """
        vals, k = self._simulate(pi_codes)
        pairs = vals[self._node_rows2].reshape(self.n_nodes, 2, 3, -1)
        return unpack_words(pairs, k)

    def screen(
        self,
        pi_codes: np.ndarray,
        compiled: "CompiledRequirements | Sequence[CompiledRequirements]",
        segments: "Sequence[tuple[int, int]] | None" = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Simulate and check requirements without unpacking node codes.

        ``compiled`` must come from :meth:`localize` (plan row space).
        Returns ``(consistent, covered)`` boolean arrays over the ``K``
        columns, exactly equal to the int8 kernel's
        ``consistent_with`` / ``covered_by`` verdicts: a lane contradicts
        a required 1 iff its value is a definite 0 (``~p1``) and a
        required 0 iff definite 1 (``d1``); it covers iff the definite
        value matches.

        With ``segments``, the lanes carry several independent requirement
        sets side by side (the lockstep implication filter of
        :func:`repro.atpg.justify.implication_conflicts`): ``compiled`` is
        a sequence of localized sets and ``segments`` one ``(first_lane,
        width)`` pair per set.  Each segment starts on a word boundary and
        owns its words, so lanes ``first_lane .. first_lane + width`` are
        checked against their own set only.  Lanes outside every segment
        and the lanes of an empty set read as consistent and covered.
        """
        vals, k = self._simulate(pi_codes)
        stats = self.stats
        if stats is not None:
            stats.count("backend.packed.screens")
        if segments is not None:
            return self._screen_segments(vals, k, compiled, segments)
        if compiled.num_components == 0:
            verdict = np.ones(k, dtype=bool)
            return verdict, verdict
        rows2 = 2 * compiled.nodes
        d1 = vals[rows2, compiled.positions]  # (m, W)
        np1 = ~vals[rows2 + 1, compiled.positions]
        req_one = (compiled.values == ONE)[:, None]
        contradiction = np.where(req_one, np1, d1)
        satisfied = np.where(req_one, d1, np1)
        consistent = ~_lane_bools(np.bitwise_or.reduce(contradiction, axis=0), k)
        covered = _lane_bools(np.bitwise_and.reduce(satisfied, axis=0), k)
        if stats is not None:
            stats.count("backend.packed.rejected", int(k - consistent.sum()))
        return consistent, covered

    def _screen_segments(
        self,
        vals: np.ndarray,
        k: int,
        compiled: "Sequence[CompiledRequirements]",
        segments: "Sequence[tuple[int, int]]",
    ) -> tuple[np.ndarray, np.ndarray]:
        """Per-segment verdicts in one gather and one segmented reduce.

        All sets' components are stacked; ``reduceat`` folds each set's
        rows into one word row per set, and every word then reads the row
        of the set that owns it.
        """
        w = vals.shape[2]
        owner = np.full(w, -1, dtype=np.int64)
        starts: list[int] = []
        parts: list["CompiledRequirements"] = []
        stacked = 0
        for requirements, (first, width) in zip(compiled, segments):
            if first % LANES:
                raise ValueError(f"segment at lane {first} is not word-aligned")
            if requirements.num_components == 0:
                continue
            word = first // LANES
            owner[word : word + words_for(width)] = len(parts)
            starts.append(stacked)
            stacked += requirements.num_components
            parts.append(requirements)
        bad = np.zeros(w, dtype=np.uint64)
        good = np.full(w, _ALL, dtype=np.uint64)
        if parts:
            nodes = np.concatenate([part.nodes for part in parts])
            positions = np.concatenate([part.positions for part in parts])
            req_one = (np.concatenate([part.values for part in parts]) == ONE)[:, None]
            rows2 = 2 * nodes
            d1 = vals[rows2, positions]  # (M, W)
            np1 = ~vals[rows2 + 1, positions]
            contradiction = np.bitwise_or.reduceat(
                np.where(req_one, np1, d1), starts, axis=0
            )
            satisfied = np.bitwise_and.reduceat(
                np.where(req_one, d1, np1), starts, axis=0
            )
            words = np.flatnonzero(owner >= 0)
            bad[words] = contradiction[owner[words], words]
            good[words] = satisfied[owner[words], words]
        consistent = ~_lane_bools(bad, k)
        covered = _lane_bools(good, k)
        if self.stats is not None:
            rejected = sum(
                width - int(consistent[first : first + width].sum())
                for first, width in segments
            )
            self.stats.count("backend.packed.rejected", rejected)
        return consistent, covered

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PackedConeSimulator({self.n_nodes} nodes, "
            f"{len(self.pi_index)} PIs, {len(self._plans)} levels)"
        )
