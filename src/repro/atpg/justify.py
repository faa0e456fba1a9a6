"""Simulation-based justification (Section 2.1 of the paper).

Given a set of required line values (the union of ``A(p)`` over the faults
assigned to the test under construction), the justifier searches for a
fully specified two-pattern test:

1. every primary input starts as ``x x x``;
2. **necessary values**: for every unspecified input position ``beta_ij``
   (``j in {1, 3}``; the intermediate position is derived), both values are
   tried by trial simulation.  If each of 0 and 1 contradicts a required
   value, the search fails; if exactly one contradicts, the other is
   assigned permanently.  This repeats to a fixpoint;
3. **decisions**: when no necessary value exists, an input with exactly one
   specified endpoint is completed to a *stable* value if possible;
   otherwise a random unspecified position gets a random value.  Back to 2.

There is no backtracking -- a conflict after random decisions simply fails
the attempt, exactly as in the paper (which points out that a
branch-and-bound procedure would remove the resulting variance; see
:mod:`repro.atpg.bnb` for that extension).

Key properties used for efficiency:

* three-valued simulation is *monotone*: specifying more inputs only
  refines ``x`` components and never flips a specified one.  Hence once the
  requirements are **covered** by a partial assignment, any completion
  works, and the remaining inputs are filled with random stable values.
* all candidate values of one fixpoint round are simulated as a single
  batch (one column per candidate) on the **cone-restricted** packed
  simulator (:meth:`~repro.sim.batch.BatchSimulator.restricted`, kernel in
  :mod:`repro.sim.packed`): the requirements depend only on the
  transitive-fanin cone of the required lines, so only that cone is
  simulated, 64 candidates per uint64 word pair, and
  :meth:`~repro.sim.packed.PackedConeSimulator.screen` rejects the
  inconsistent ones in one pass without unpacking node codes.  The final
  verification below simulates the full netlist with the int8 kernel,
  because downstream consumers need codes on every node.
* the partial assignment is kept as one ``(n_support, 3)`` ternary-code
  array updated in place by :class:`_SearchState`, so fixpoint rounds
  build their candidate batch by array copy instead of re-walking dicts.
  :func:`_trial_batch` builds a round's trial columns from it and
  :func:`_settle_round` applies the necessary-value rule to their
  verdicts; both the justifier and the implication filter use the pair.

The paper's type-2 undetectability check (Section 3.1, step 5(b)) is the
necessary-value fixpoint alone: :func:`implication_conflicts` runs it for
all target faults of a circuit at once.  Those fixpoints use no random
decisions and do not depend on each other, so they run in lockstep on a
packed simulator of the whole netlist, each open requirement set in its
own word segment: one simulation of up to :data:`LOCKSTEP_WORDS` words
(1,024 trial columns) per round of all open sets, instead of one cone
simulation per set and round.
:func:`has_implication_conflict` is the one-set form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..algebra.ternary import ONE, X, ZERO
from ..algebra.triple import Triple
from ..circuit.analysis import input_support_masks
from ..circuit.netlist import Netlist
from ..robustness import Budget, InternalInvariantError
from ..sim.batch import BatchSimulator
from ..sim.packed import LANES, PackedConeSimulator, words_for
from ..sim.vectors import TwoPatternTest
from .requirements import RequirementSet

__all__ = [
    "Justifier",
    "JustifyResult",
    "JustifyStats",
    "has_implication_conflict",
    "implication_conflicts",
]


@dataclass
class JustifyStats:
    """Work counters for one justification attempt."""

    simulations: int = 0
    rounds: int = 0
    decisions: int = 0
    necessary_assignments: int = 0


@dataclass
class JustifyResult:
    """A successful justification: the test plus its simulated values."""

    test: TwoPatternTest
    #: Node codes of shape ``(n_nodes, 3)`` for the final test.
    sim_codes: np.ndarray
    stats: JustifyStats = field(default_factory=JustifyStats)


class _SearchState:
    """Endpoint assignments (pattern 1 / pattern 2) for the support inputs.

    The state *is* the base simulation column: ``base[row]`` holds the
    ``(v1, v2, v3)`` ternary codes of support input ``support[row]``, with
    ``x`` marking unassigned endpoints and the intermediate component kept
    derived (stable value when both endpoints agree, else ``x``).  Rows
    follow ``support`` order, which matches the cone simulator's input
    rows, so fixpoint rounds hand ``base`` to the simulator as-is.
    """

    def __init__(self, support: list[int]) -> None:
        self.support = support
        self.row_of = {pi: row for row, pi in enumerate(support)}
        self.base = np.full((len(support), 3), X, dtype=np.int8)

    def unresolved(self) -> list[tuple[int, int]]:
        """Unspecified (input, position) pairs; position is 1 or 3.

        Order is the scan order the random decisions rely on: support rows
        ascending, position 1 before 3 within a row -- exactly the
        row-major order of ``np.nonzero``.
        """
        rows, cols = np.nonzero(self.base[:, 0::2] == X)
        support = self.support
        return [
            (support[row], 1 if col == 0 else 3) for row, col in zip(rows, cols)
        ]

    def assign(self, pi: int, position: int, value: int) -> None:
        row = self.row_of[pi]
        self.base[row, 0 if position == 1 else 2] = value
        v1, v3 = self.base[row, 0], self.base[row, 2]
        self.base[row, 1] = v1 if (v1 == v3 and v1 != X) else X

    def endpoints(self, pi: int) -> tuple[int, int]:
        """The (pattern 1, pattern 2) codes of one input (``x`` = unset)."""
        row = self.row_of[pi]
        return int(self.base[row, 0]), int(self.base[row, 2])

    def triple_of(self, pi: int) -> Triple:
        row = self.row_of[pi]
        return Triple.of(*(int(v) for v in self.base[row]))

    def clone(self) -> "_SearchState":
        copy = _SearchState.__new__(_SearchState)
        copy.support = self.support
        copy.row_of = self.row_of
        copy.base = self.base.copy()
        return copy

    def half_specified_input(self) -> tuple[int, int, int] | None:
        """An input with exactly one endpoint set: (pi, open position, value).

        Implements the paper's preference for completing inputs to stable
        values before resorting to random decisions.  First match in
        support order, as before vectorization.
        """
        base = self.base
        open1 = base[:, 0] == X
        open3 = base[:, 2] == X
        rows = np.nonzero(open1 != open3)[0]
        if rows.size == 0:
            return None
        row = int(rows[0])
        pi = self.support[row]
        if open3[row]:  # endpoint 1 set, complete position 3 to it
            return (pi, 3, int(base[row, 0]))
        return (pi, 1, int(base[row, 2]))


def _trial_batch(base: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One fixpoint round's trial columns for the search state ``base``.

    Returns ``(rows, pos, batch)``: the unresolved (row, endpoint) pairs
    in scan order (row ascending, endpoint 1 before 3), their base-array
    columns (0 or 2), and the ``(n_rows, 3, 1 + 2 * len(rows))`` codes in
    which column 0 is the unmodified base, column ``1 + 2i`` tries ZERO at
    pair ``i`` and column ``2 + 2i`` tries ONE.
    """
    rows, endpoint_sel = np.nonzero(base[:, 0::2] == X)
    pos = endpoint_sel * 2  # base-array column: 0 or 2
    n_unresolved = rows.size
    k = 1 + 2 * n_unresolved
    batch = np.repeat(base[:, :, None], k, axis=2)  # (rows, 3, K)
    col_zero = 1 + 2 * np.arange(n_unresolved)
    col_one = col_zero + 1
    batch[rows, pos, col_zero] = ZERO
    batch[rows, pos, col_one] = ONE
    patched_rows = np.concatenate([rows, rows])
    patched_cols = np.concatenate([col_zero, col_one])
    v1 = batch[patched_rows, 0, patched_cols]
    v3 = batch[patched_rows, 2, patched_cols]
    batch[patched_rows, 1, patched_cols] = np.where((v1 == v3) & (v1 != X), v1, X)
    return rows, pos, batch


def _settle_round(
    base: np.ndarray,
    rows: np.ndarray,
    pos: np.ndarray,
    consistent: np.ndarray,
    covered: np.ndarray,
) -> tuple[str | None, int]:
    """The necessary-value rule applied to one round's screen verdicts.

    ``consistent`` / ``covered`` hold one verdict per column of
    :func:`_trial_batch`.  Returns ``(status, forced)``: ``status`` is
    ``"conflict"``, ``"covered"`` or ``"stuck"`` when the fixpoint ends,
    else ``None`` after ``forced`` necessary values were written into
    ``base`` (another round is due).
    """
    if not consistent[0]:
        return "conflict", 0
    if covered[0]:
        return "covered", 0
    zero_ok = consistent[1::2]
    one_ok = consistent[2::2]
    if (~zero_ok & ~one_ok).any():
        return "conflict", 0
    forced = zero_ok != one_ok
    if not forced.any():
        # With no unresolved position left, an uncovered base is final.
        return ("stuck" if rows.size else "conflict"), 0
    forced_rows = rows[forced]
    base[forced_rows, pos[forced]] = np.where(zero_ok[forced], ZERO, ONE)
    f1 = base[forced_rows, 0]
    f3 = base[forced_rows, 2]
    base[forced_rows, 1] = np.where((f1 == f3) & (f1 != X), f1, X)
    return None, int(forced.sum())


class Justifier:
    """Reusable justification engine bound to one netlist."""

    def __init__(
        self,
        netlist: Netlist,
        simulator: BatchSimulator | None = None,
        stats=None,
    ) -> None:
        """``stats`` is an optional EngineStats-compatible sink (``count``
        + ``timer``); when set, each :meth:`justify` call records
        ``justify.calls``, accumulates wall-clock time under ``justify``,
        and tracks the cone saving as ``justify.cone_nodes`` (node-columns
        actually simulated) vs ``justify.full_nodes`` (node-columns a full
        simulation would have cost)."""
        self.netlist = netlist
        self.simulator = simulator or BatchSimulator(netlist)
        self._stats = stats
        self._masks: list[int] | None = None

    # ------------------------------------------------------------------

    def _support_masks(self) -> list[int]:
        """Per-node input bitmasks (:func:`input_support_masks`), built once."""
        if self._masks is None:
            self._masks = input_support_masks(self.netlist)
        return self._masks

    def _make_state(
        self, requirements: RequirementSet
    ) -> tuple[_SearchState, PackedConeSimulator]:
        cone = self.simulator.restricted(requirements.values.keys())
        return _SearchState(cone.support), cone

    def _count_sim(self, columns: int, simulated_nodes: int) -> None:
        if self._stats is not None:
            self._stats.count("justify.cone_nodes", simulated_nodes * columns)
            self._stats.count("justify.full_nodes", self.simulator.n_nodes * columns)

    def _fixpoint(
        self,
        state: _SearchState,
        requirements: RequirementSet,
        stats: JustifyStats,
        cone: PackedConeSimulator,
        budget: Budget | None = None,
        phase: str = "justify",
    ) -> str:
        """Assign all necessary values.

        Returns ``"conflict"``, ``"covered"`` (requirements already
        satisfied) or ``"stuck"`` (a decision is needed).

        When ``budget`` is set, each fixpoint round checks the wall-clock
        deadline and counts against the justification ``node_limit``
        (rounds are this engine's unit of work; each one simulates a full
        candidate batch), raising
        :class:`~repro.robustness.BudgetExceeded` at the round boundary.
        """
        compiled = cone.localize(requirements.compiled())
        while True:
            if budget is not None:
                budget.check_deadline(phase, rounds=stats.rounds)
                budget.check_nodes(stats.rounds + 1, phase)
            stats.rounds += 1
            rows, pos, batch = _trial_batch(state.base)
            consistent, covered = cone.screen(batch, compiled)
            stats.simulations += 1
            self._count_sim(batch.shape[2], cone.n_nodes)
            status, forced = _settle_round(state.base, rows, pos, consistent, covered)
            if status is not None:
                return status
            stats.necessary_assignments += forced

    # ------------------------------------------------------------------

    def justify(
        self,
        requirements: RequirementSet,
        rng: random.Random,
        budget: Budget | None = None,
    ) -> JustifyResult | None:
        """Search for a fully specified test satisfying ``requirements``.

        Returns ``None`` when the (incomplete, randomized) search fails.
        A non-null ``budget`` is checked at every fixpoint round and
        raises :class:`~repro.robustness.BudgetExceeded` on a trip; the
        caller decides whether that aborts the fault or the run.
        """
        if self._stats is not None:
            self._stats.count("justify.calls")
            with self._stats.timer("justify"):
                return self._justify(requirements, rng, budget)
        return self._justify(requirements, rng, budget)

    def _justify(
        self,
        requirements: RequirementSet,
        rng: random.Random,
        budget: Budget | None = None,
    ) -> JustifyResult | None:
        if budget is not None and budget.is_null:
            budget = None
        stats = JustifyStats()
        state, cone = self._make_state(requirements)
        covered = False
        while True:
            status = self._fixpoint(state, requirements, stats, cone, budget)
            if status == "conflict":
                return None
            if status == "covered":
                covered = True
                break
            # status == "stuck": make a decision.
            half = state.half_specified_input()
            if half is not None:
                pi, position, value = half
                state.assign(pi, position, value)
            else:
                unresolved = state.unresolved()
                if not unresolved:
                    break  # fully specified but not covered -> verify below
                pi, position = rng.choice(unresolved)
                state.assign(pi, position, rng.randint(ZERO, ONE))
            stats.decisions += 1

        # Complete every input to a fully specified waveform.  Monotonicity
        # of three-valued simulation guarantees coverage is preserved.
        assignment: dict[int, Triple] = {}
        for pi in self.netlist.input_indices:
            if pi in state.row_of:
                v1, v3 = state.endpoints(pi)
                v1 = v1 if v1 != X else rng.randint(ZERO, ONE)
                v3 = v3 if v3 != X else rng.randint(ZERO, ONE)
            else:
                v1 = v3 = rng.randint(ZERO, ONE)  # outside the support cone
            assignment[pi] = Triple.transition(v1, v3)
        test = TwoPatternTest(assignment)

        # The final verification simulates the full netlist: downstream
        # consumers (secondary screening, fault simulation) need codes on
        # every node, not just the cone.
        sim = self.simulator.run_triples([assignment])
        stats.simulations += 1
        self._count_sim(1, self.simulator.n_nodes)
        if not requirements.compiled().covered_by(sim)[0]:
            if covered:  # pragma: no cover - would indicate a simulator bug
                raise InternalInvariantError(
                    "monotonicity violated: covered test regressed"
                )
            return None
        return JustifyResult(test=test, sim_codes=sim[:, :, 0], stats=stats)


#: Word cap of one lockstep batch (64 lanes per word).  Wider batches
#: save dispatch but hold larger simulation states (see DESIGN.md).
LOCKSTEP_WORDS = 16


class _Pending:
    """Lockstep state of one requirement set while its verdict is open."""

    __slots__ = ("index", "pi_rows", "base", "compiled", "trial")

    def __init__(self, index: int, pi_rows: np.ndarray, compiled) -> None:
        self.index = index
        #: Support inputs as rows of the whole-netlist simulator.
        self.pi_rows = pi_rows
        #: The search state over those rows, as in :class:`_SearchState`.
        self.base = np.full((len(pi_rows), 3), X, dtype=np.int8)
        self.compiled = compiled
        #: This round's :func:`_trial_batch` of ``base``.
        self.trial = _trial_batch(self.base)

    @property
    def words(self) -> int:
        return words_for(self.trial[2].shape[2])


def _set_bits(mask: int, n_bits: int) -> np.ndarray:
    """Positions of the set bits of ``mask`` (below ``n_bits``), ascending."""
    octets = np.frombuffer(mask.to_bytes((n_bits + 7) // 8, "little"), np.uint8)
    return np.flatnonzero(np.unpackbits(octets, bitorder="little"))


def implication_conflicts(
    justifier: Justifier,
    requirement_sets: Iterable[RequirementSet],
    budget: Budget | None = None,
) -> list[bool]:
    """Paper's type-2 undetectability check for many requirement sets.

    Entry ``i`` is True when the necessary-value fixpoint of the ``i``-th
    set (no random decisions) derives a hard conflict -- some input
    position where both values contradict the requirements, or a
    requirement already contradicted -- so that no test can exist.
    Verdicts equal :meth:`Justifier._fixpoint` run on each set alone.

    The fixpoints run in lockstep: each round is one
    :meth:`~repro.sim.packed.PackedConeSimulator.screen` of the
    whole-netlist packed simulator (:meth:`BatchSimulator.packed`), in
    which every open set's trial columns fill their own word segment and
    inputs outside its support stay ``x``.  A set's support rows come from
    per-node input bitmasks, and only unresolved positions on them become
    trial columns, exactly as in the cone path.  Sets join the batch in
    order while it has room (at most :data:`LOCKSTEP_WORDS` words, or one
    set wider than that alone), so a set's state exists only from the
    round it joins until its verdict is final.

    A non-null ``budget`` has its deadline checked between rounds.  On
    expiry the result is the longest prefix of ``requirement_sets`` whose
    verdicts are all decided, so it is shorter than the input.
    """
    if budget is not None and budget.is_null:
        budget = None
    counter = justifier._stats
    simulator = justifier.simulator
    masks = justifier._support_masks()
    n_pis = len(simulator.pi_index)
    verdicts: list[bool | None] = []

    def arrivals():
        for requirements in requirement_sets:
            compiled = requirements.compiled()
            if compiled.num_components == 0:
                verdicts.append(False)  # nothing can contradict
                continue
            mask = 0
            for node in requirements.values:
                mask |= masks[node]
            verdicts.append(None)
            yield _Pending(
                len(verdicts) - 1,
                _set_bits(mask, n_pis),
                simulator.packed().localize(compiled),
            )

    queue = arrivals()
    waiting = next(queue, None)
    active: list[_Pending] = []
    decided = 0
    while True:
        used = sum(state.words for state in active)
        while waiting is not None and (
            not active or used + waiting.words <= LOCKSTEP_WORDS
        ):
            active.append(waiting)
            used += waiting.words
            waiting = next(queue, None)
        while decided < len(verdicts) and verdicts[decided] is not None:
            decided += 1
        if not active or (budget is not None and budget.deadline_expired()):
            break
        codes = np.full((n_pis, 3, used * LANES), X, dtype=np.int8)
        segments = []
        first = 0
        for state in active:
            batch = state.trial[2]
            codes[state.pi_rows, :, first : first + batch.shape[2]] = batch
            segments.append((first, batch.shape[2]))
            first += state.words * LANES
        consistent, covered = simulator.packed().screen(
            codes, [state.compiled for state in active], segments
        )
        if counter is not None:
            counter.count("implication.runs")
            counter.count("implication.columns", codes.shape[2])
            counter.count("implication.rounds", len(active))
        still_open = []
        for state, (first, width) in zip(active, segments):
            rows, pos, _ = state.trial
            lanes = slice(first, first + width)
            status, _ = _settle_round(
                state.base, rows, pos, consistent[lanes], covered[lanes]
            )
            if status is None:
                state.trial = _trial_batch(state.base)
                still_open.append(state)
            else:
                verdicts[state.index] = status == "conflict"
        active = still_open
    if counter is not None:
        counter.count("implication.faults", decided)
    return verdicts[:decided]


def has_implication_conflict(
    netlist_or_justifier: Netlist | Justifier, requirements: RequirementSet
) -> bool:
    """:func:`implication_conflicts` for a single requirement set.

    Pass an existing :class:`Justifier` (e.g. a session-owned one) when
    screening several sets: a bare netlist compiles a throwaway simulator
    per call.
    """
    justifier = (
        netlist_or_justifier
        if isinstance(netlist_or_justifier, Justifier)
        else Justifier(netlist_or_justifier)
    )
    return implication_conflicts(justifier, [requirements])[0]
