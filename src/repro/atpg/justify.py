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
  call of the **cone-restricted** bit-parallel kernel
  (:meth:`~repro.sim.batch.BatchSimulator.restricted`, kernel in
  :mod:`repro.sim.packed`): the requirements depend only on the
  transitive-fanin cone of the required lines, so only that cone is
  simulated, one lane per trial, and
  :meth:`~repro.sim.packed.PackedConeSimulator.screen` returns the
  consistent / covered lanes as bit masks.  The final verification below
  simulates the full netlist with the int8 kernel, because downstream
  consumers need codes on every node.
* the search state (:class:`_SearchState`) keeps every support row's
  kernel input planes for fixed trial lanes -- the base, then a ZERO and
  a ONE trial per endpoint -- and rebuilds only the rows an assignment
  changed; the requirements become lane masks once per search.  A round
  is then one kernel call (:func:`_trial_batch`) plus
  :func:`_settle_round`, which applies the necessary-value rule to the
  verdict masks with shifts.  Both the justifier and the implication
  filter use the pair, and no numpy runs inside a round.

The paper's type-2 undetectability check (Section 3.1, step 5(b)) is the
necessary-value fixpoint alone: :func:`implication_conflicts` runs it for
all target faults of a circuit at once.  Those fixpoints use no random
decisions and do not depend on each other, so they run in lockstep on the
kernel of the whole netlist, each open requirement set in its own lane
segment: one simulation of up to :data:`LOCKSTEP_LANES` lanes per round
of all open sets, instead of one cone simulation per set and round.
:func:`has_implication_conflict` is the one-set form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np

from ..algebra.ternary import ONE, X, ZERO
from ..algebra.triple import Triple
from ..circuit.analysis import input_support_masks
from ..circuit.netlist import Netlist
from ..robustness import Budget, InternalInvariantError
from ..sim.batch import BatchSimulator
from ..sim.packed import LaneBatch, PackedConeSimulator, lane_masks
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

    ``v1[row]`` / ``v3[row]`` hold the endpoint codes of support input
    ``support[row]`` (``x`` = unassigned; the intermediate component is
    derived).  The state also keeps the kernel's input planes for its
    trial lanes, fixed for the whole search: lane 0 is the base, and row
    ``r`` owns lanes ``1 + 4r .. 4 + 4r``, which try ZERO / ONE at
    endpoint 1, then ZERO / ONE at endpoint 3, with every other input at
    its base value.  A row's planes depend only on ``(row, v1, v3)`` and
    are rebuilt when an assignment changes them.  ``open`` has the ZERO
    lane's bit set for every unassigned endpoint.
    """

    def __init__(self, support: list[int]) -> None:
        self.support = support
        self.row_of = {pi: row for row, pi in enumerate(support)}
        n = len(support)
        self.lanes = 1 + 4 * n
        self.segments = ((0, self.lanes),)
        self.v1 = [X] * n
        self.v3 = [X] * n
        # Row r's ZERO lanes are 1 + 4r (endpoint 1) and 3 + 4r (endpoint 3).
        every_row = ((1 << 4 * n) - 1) // 15  # bit 4r for every row
        self.open = 0b1010 * every_row
        self._endpoint1 = 0b0010 * every_row
        self.planes = list(_fresh_planes(n))
        #: Requirement lane masks (set by :meth:`Justifier._make_state`).
        self.masks: list = []

    def unresolved(self) -> list[tuple[int, int]]:
        """Unspecified (input, position) pairs; position is 1 or 3.

        Order is the scan order the random decisions rely on: support rows
        ascending, position 1 before 3 within a row.
        """
        pairs = []
        for pi, v1, v3 in zip(self.support, self.v1, self.v3):
            if v1 == X:
                pairs.append((pi, 1))
            if v3 == X:
                pairs.append((pi, 3))
        return pairs

    def assign(self, pi: int, position: int, value: int) -> None:
        self._set(self.row_of[pi], position == 1, value)

    def _set(self, row: int, endpoint1: bool, value: int) -> None:
        if endpoint1:
            self.v1[row] = value
        else:
            self.v3[row] = value
        self.open &= ~(2 << (4 * row + (0 if endpoint1 else 2)))
        d1, p1 = _row_planes(row, self.v1[row], self.v3[row], self.lanes)
        self.planes[2 * row] = d1
        self.planes[2 * row + 1] = p1

    def endpoints(self, pi: int) -> tuple[int, int]:
        """The (pattern 1, pattern 2) codes of one input (``x`` = unset)."""
        row = self.row_of[pi]
        return self.v1[row], self.v3[row]

    def triple_of(self, pi: int) -> Triple:
        v1, v3 = self.endpoints(pi)
        return Triple.of(v1, v1 if v1 == v3 else X, v3)

    def clone(self) -> "_SearchState":
        copy = _SearchState.__new__(_SearchState)
        copy.__dict__.update(self.__dict__)
        copy.v1 = self.v1.copy()
        copy.v3 = self.v3.copy()
        copy.planes = self.planes.copy()
        return copy

    def half_specified_input(self) -> tuple[int, int, int] | None:
        """An input with exactly one endpoint set: (pi, open position, value).

        Implements the paper's preference for completing inputs to stable
        values before resorting to random decisions.  First match in
        support order: the lowest row whose two ``open`` bits differ.
        """
        half = (self.open ^ self.open >> 2) & self._endpoint1
        if not half:
            return None
        lane = (half & -half).bit_length() - 1
        row = lane >> 2
        pi = self.support[row]
        if self.open >> lane & 1:  # endpoint 3 set, complete position 1 to it
            return (pi, 1, self.v3[row])
        return (pi, 3, self.v1[row])


def _bits(mask: int):
    """Positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _row_planes(row: int, v1: int, v3: int, lanes: int) -> tuple[int, int]:
    """The ``(d1, p1)`` input planes of one row of the trial lanes.

    Every lane holds the base value ``(v1, mid, v3)`` except the row's
    own four, which try ZERO / ONE at one endpoint (the intermediate
    position re-derived, stable only where both endpoints agree).
    """
    full = (1 << lanes) - 1
    z1 = 2 << (4 * row)
    o1 = z1 << 1
    z3 = z1 << 2
    o3 = z1 << 3
    rest1 = full ^ z1 ^ o1
    rest3 = full ^ z3 ^ o3
    rest2 = rest1 ^ z3 ^ o3
    mid = v1 if v1 == v3 else X
    # Position blocks v1 | v2 | v3; o1 / o3 try ONE, z1 / z3 ZERO.
    d1_v2 = (
        (rest2 if mid == ONE else 0)
        | (o1 if v3 == ONE else 0)
        | (o3 if v1 == ONE else 0)
    )
    p1_v2 = (
        (rest2 if mid != ZERO else 0)
        | o1 | o3
        | (z1 if v3 != ZERO else 0)
        | (z3 if v1 != ZERO else 0)
    )
    d1 = (
        (o1 | (rest1 if v1 == ONE else 0))
        | d1_v2 << lanes
        | (o3 | (rest3 if v3 == ONE else 0)) << 2 * lanes
    )
    p1 = (
        (o1 | (rest1 if v1 != ZERO else 0))
        | p1_v2 << lanes
        | (o3 | (rest3 if v3 != ZERO else 0)) << 2 * lanes
    )
    return d1, p1


@lru_cache(maxsize=64)
def _fresh_planes(n: int) -> tuple[int, ...]:
    """The input planes of ``n`` unassigned rows (shared, immutable)."""
    lanes = 1 + 4 * n
    return tuple(
        plane for row in range(n) for plane in _row_planes(row, X, X, lanes)
    )


def _trial_batch(state: _SearchState) -> LaneBatch:
    """One fixpoint round's kernel input: the state's trial lanes.

    The batch accounts for ``1 + 2 * unresolved`` columns: the base and
    the two trials of every unresolved endpoint, the lanes the round
    reads.
    """
    columns = 1 + 2 * state.open.bit_count()
    return LaneBatch(state.planes, state.segments, columns)


def _settle_round(
    state: _SearchState, consistent: int, covered: int
) -> tuple[str | None, int]:
    """The necessary-value rule applied to one round's lane verdicts.

    ``consistent`` / ``covered`` are lane masks over the state's trial
    lanes.  Returns ``(status, forced)``: ``status`` is ``"conflict"``,
    ``"covered"`` or ``"stuck"`` when the fixpoint ends, else ``None``
    after ``forced`` necessary values were assigned (another round is
    due).
    """
    if not consistent & 1:
        return "conflict", 0
    if covered & 1:
        return "covered", 0
    open_ = state.open
    zero_ok = consistent & open_
    one_ok = (consistent >> 1) & open_
    if zero_ok | one_ok != open_:
        return "conflict", 0  # both values of some endpoint contradict
    forced = zero_ok ^ one_ok
    if not forced:
        # With no unresolved position left, an uncovered base is final.
        return ("stuck" if open_ else "conflict"), 0
    for lane in _bits(forced):
        state._set((lane - 1) >> 2, not lane & 2, ZERO if zero_ok >> lane & 1 else ONE)
    return None, forced.bit_count()


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
        """A fresh search over the cone of ``requirements``, with the
        requirement lane masks compiled once for the whole search."""
        cone = self.simulator.restricted(requirements.values.keys())
        state = _SearchState(cone.support)
        state.masks = cone.localize(requirements.compiled(), state.lanes)
        return state, cone

    def _count_sim(self, columns: int, simulated_nodes: int) -> None:
        if self._stats is not None:
            self._stats.count("justify.cone_nodes", simulated_nodes * columns)
            self._stats.count("justify.full_nodes", self.simulator.n_nodes * columns)

    def _fixpoint(
        self,
        state: _SearchState,
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
        while True:
            if budget is not None:
                budget.check_deadline(phase, rounds=stats.rounds)
                budget.check_nodes(stats.rounds + 1, phase)
            stats.rounds += 1
            batch = _trial_batch(state)
            consistent, covered = cone.screen(batch, state.masks)
            stats.simulations += 1
            self._count_sim(batch.shape[2], cone.n_nodes)
            status, forced = _settle_round(state, consistent, covered)
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
            status = self._fixpoint(state, stats, cone, budget)
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


#: Lane cap of one lockstep batch.  Wider batches save dispatch but
#: simulate wider ints (see DESIGN.md).
LOCKSTEP_LANES = 1024


class _Pending:
    """Lockstep state of one requirement set while its verdict is open."""

    __slots__ = ("index", "pi_rows", "state", "patterns")

    def __init__(self, index: int, pi_rows: list[int], patterns: list) -> None:
        self.index = index
        #: Support inputs as rows of the whole-netlist simulator.
        self.pi_rows = pi_rows
        #: The search state over those rows, with its own trial lanes.
        self.state = _SearchState(pi_rows)
        #: Requirement patterns (:meth:`PackedConeSimulator.patterns`).
        self.patterns = patterns


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
    whole-netlist kernel (:meth:`BatchSimulator.packed`), in which every
    open set's trial lanes (``1 + 4 * |support|``, laid out as in the
    cone path) fill their own lane segment and inputs outside its support
    stay ``x``.  A set's support rows come from per-node input bitmasks.
    Sets join the batch in order while it has room (at most
    :data:`LOCKSTEP_LANES` lanes, or one set wider than that alone), so a
    set's state exists only from the round it joins until its verdict is
    final.

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
                list(_bits(mask)),
                simulator.packed().patterns(compiled),
            )

    queue = arrivals()
    waiting = next(queue, None)
    active: list[_Pending] = []
    decided = 0
    while True:
        used = sum(pending.state.lanes for pending in active)
        while waiting is not None and (
            not active or used + waiting.state.lanes <= LOCKSTEP_LANES
        ):
            active.append(waiting)
            used += waiting.state.lanes
            waiting = next(queue, None)
        while decided < len(verdicts) and verdicts[decided] is not None:
            decided += 1
        if not active or (budget is not None and budget.deadline_expired()):
            break
        # Each set's planes move into its segment with one shift; rows
        # outside its support keep the all-x default there.
        d1 = [0] * n_pis
        p1 = [(1 << 3 * used) - 1] * n_pis
        requirement_masks: list = []
        segments = []
        first = 0
        for pending in active:
            state = pending.state
            shift = 3 * first
            full = (1 << 3 * state.lanes) - 1
            planes = state.planes
            for row, pi_row in enumerate(pending.pi_rows):
                d1[pi_row] |= planes[2 * row] << shift
                p1[pi_row] ^= (full ^ planes[2 * row + 1]) << shift
            requirement_masks += lane_masks(pending.patterns, state.lanes, shift)
            segments.append((first, state.lanes))
            first += state.lanes
        batch = LaneBatch([plane for pair in zip(d1, p1) for plane in pair], segments)
        consistent, covered = simulator.packed().screen(batch, requirement_masks)
        if counter is not None:
            counter.count("implication.runs")
            counter.count("implication.columns", used)
            counter.count("implication.rounds", len(active))
        still_open = []
        for pending, (first, width) in zip(active, segments):
            lane = (1 << width) - 1
            status, _ = _settle_round(
                pending.state, consistent >> first & lane, covered >> first & lane
            )
            if status is None:
                still_open.append(pending)
            else:
                verdicts[pending.index] = status == "conflict"
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
