"""Branch-and-bound justification (the paper's suggested extension).

Section 4 of the paper notes that the run-to-run variations of the
simulation-based justifier "can be eliminated by using a branch-and-bound
procedure instead of a simulation-based procedure for justification".  This
module provides exactly that: a complete, deterministic search over the
endpoint assignments of the support inputs, with the same necessary-value
propagation as the simulation-based engine but full backtracking.

Being complete, it either finds a test or *proves* none exists -- subject
to the ``node_limit`` safety valve (the problem is NP-hard).  It is slower
than the randomized engine and is used mainly for:

* deterministic unit tests,
* deciding detectability of individual faults exactly,
* measuring how many faults the randomized engine misses (an ablation).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..algebra.ternary import X, ZERO
from ..algebra.triple import Triple
from ..circuit.netlist import Netlist
from ..robustness import NODE_LIMIT, Budget, BudgetExceeded
from ..sim.batch import BatchSimulator
from ..sim.packed import PackedConeSimulator
from ..sim.vectors import TwoPatternTest
from .justify import Justifier, JustifyStats, _SearchState
from .requirements import RequirementSet

__all__ = ["BranchAndBoundJustifier", "SearchExhausted"]


class SearchExhausted(BudgetExceeded):
    """Raised when the node limit is hit before the search completes.

    A :class:`~repro.robustness.BudgetExceeded` with reason
    ``node_limit`` and phase ``bnb``; kept as a distinct class for
    backwards compatibility with existing ``except SearchExhausted``
    call sites.
    """

    def __init__(self, message: str = "", progress: dict | None = None) -> None:
        super().__init__(NODE_LIMIT, "bnb", message, progress=progress)


@dataclass
class _NodeCounter:
    nodes: int


class BranchAndBoundJustifier:
    """Complete justification with backtracking."""

    def __init__(self, netlist: Netlist, simulator: BatchSimulator | None = None) -> None:
        self.netlist = netlist
        self._engine = Justifier(netlist, simulator)

    def justify(
        self,
        requirements: RequirementSet,
        node_limit: int = 20000,
        budget: Budget | None = None,
    ) -> TwoPatternTest | None:
        """Find a test satisfying ``requirements`` or prove none exists.

        Returns ``None`` only when the full search space was exhausted.
        Raises :class:`SearchExhausted` when the node limit was spent
        first.  A non-null ``budget`` overrides ``node_limit`` with its
        own ``node_limit`` cap (when set) and additionally checks the
        wall-clock deadline at every search node, raising
        :class:`~repro.robustness.BudgetExceeded` with reason
        ``deadline`` on expiry.
        """
        if budget is not None and budget.is_null:
            budget = None
        if budget is not None and budget.node_limit is not None:
            node_limit = budget.node_limit
        state, cone = self._engine._make_state(requirements)
        counter = _NodeCounter(nodes=node_limit)
        found = self._search(state, requirements, counter, cone, budget)
        if found is None:
            return None
        return self._complete(found)

    def is_satisfiable(
        self,
        requirements: RequirementSet,
        node_limit: int = 20000,
        budget: Budget | None = None,
    ) -> bool:
        """True when some two-pattern test satisfies ``requirements``."""
        return self.justify(requirements, node_limit=node_limit, budget=budget) is not None

    # ------------------------------------------------------------------

    def _search(
        self,
        state: _SearchState,
        requirements: RequirementSet,
        counter: _NodeCounter,
        cone: PackedConeSimulator,
        budget: Budget | None = None,
    ) -> _SearchState | None:
        if counter.nodes <= 0:
            raise SearchExhausted("branch-and-bound node limit exhausted")
        counter.nodes -= 1
        if budget is not None:
            budget.check_deadline("bnb", nodes_left=counter.nodes)

        status = self._engine._fixpoint(state, requirements, JustifyStats(), cone)
        if status == "conflict":
            return None
        if status == "covered":
            return state

        # Decision: prefer completing a half-specified input to a stable
        # value (same preference as the simulation-based engine), else the
        # first unresolved position; try the stable-friendly value first.
        half = state.half_specified_input()
        if half is not None:
            pi, position, preferred = half
        else:
            pi, position = state.unresolved()[0]
            preferred = ZERO
        for value in (preferred, 1 - preferred):
            child = state.clone()
            child.assign(pi, position, value)
            found = self._search(child, requirements, counter, cone, budget)
            if found is not None:
                return found
        return None

    def _complete(self, state: _SearchState) -> TwoPatternTest:
        """Deterministically complete a covered state to a full test."""
        assignment: dict[int, Triple] = {}
        for pi in self.netlist.input_indices:
            if pi in state.row_of:
                v1, v3 = state.endpoints(pi)
                v1 = v1 if v1 != X else ZERO
                v3 = v3 if v3 != X else v1
            else:
                v1 = v3 = ZERO
            assignment[pi] = Triple.transition(v1, v3)
        return TwoPatternTest(assignment)
