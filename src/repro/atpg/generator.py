"""Test generation with dynamic compaction (Section 2.2) and multiple
target-fault pools (Section 3.2).

One engine, :class:`TestGenerator`, implements both procedures of the
paper:

* **basic**: a single pool ``[P]``; primaries and secondaries come from it;
* **enrichment**: pools ``[P0, P1]``; primaries come only from ``P0``;
  secondary target faults are drawn from ``P0`` first and from ``P1`` only
  after every ``P0`` candidate has been considered, so detecting ``P1``
  faults never adds tests.

Per-test flow (compaction on):

1. pick the primary target fault (per the heuristic) and justify a test for
   ``A(p0)``; a failed primary is marked *tried* and stays eligible for
   accidental detection;
2. repeatedly pick a secondary candidate, merge its ``A(p_i)`` into the
   requirement union, and re-run the whole justification (the paper's
   variant of [8]: a fresh test is generated after every accepted fault, so
   earlier value choices never block later faults).  Rejected candidates
   are removed from ``P(t)`` and not retried for this test;
3. fault-simulate the finished test against every remaining fault and drop
   all detections.

Cheap exact filters prune the expensive re-justification: a candidate whose
requirements conflict with the union can never be added, and a candidate
already covered by the current test needs no targeting (the fault
simulation of step 3 will drop it).

Both filters -- and the ``n_delta`` computation of the ``values``
heuristic -- are *screened in batch*: each pool's compiled requirements are
stacked once (:class:`~repro.sim.cover.StackedRequirements`), so the
already-covered filter is one ``covered_single`` call per justified test,
the conflict/``n_delta`` screen is one ``delta_against`` call per
requirement union, and the closing fault simulation of step 3 is one call
per test.  The per-candidate decisions (selection order, tie-breaking,
``considered`` bookkeeping) run in pool order over the precomputed
arrays, so they are the choices a per-candidate loop would make.

Compaction heuristics (Section 2.2): ``uncomp`` (no secondaries),
``arbit`` (fault-list order), ``length`` (longest path first), ``values``
(minimum ``n_delta`` -- fewest new value components first).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from ..algebra.ternary import X
from ..circuit.netlist import Netlist
from ..faults.universe import FaultRecord
from ..robustness import (
    ABORT_LIMIT,
    ATTEMPT_LIMIT,
    DEADLINE,
    AbortedFault,
    Budget,
    BudgetExceeded,
)
from ..sim.batch import BatchSimulator
from ..sim.cover import CompiledRequirements, StackedRequirements
from .heuristics import order_pool
from .justify import Justifier, JustifyResult, JustifyStats
from .requirements import RequirementSet
from .result import GeneratedTest, GenerationResult

__all__ = [
    "Heuristic",
    "AtpgConfig",
    "TestGenerator",
    "generate_basic",
]

Heuristic = Literal["uncomp", "arbit", "length", "values"]

_HEURISTICS = ("uncomp", "arbit", "length", "values")


@dataclass(frozen=True)
class AtpgConfig:
    """Knobs of a generation run.

    Attributes
    ----------
    heuristic:
        Compaction heuristic (see module docstring).
    seed:
        Seed for all random decisions (fully deterministic runs).
    max_secondary_attempts:
        Budget of secondary *justification attempts* per test **per target
        pool**; ``None`` reproduces the paper exactly (every remaining
        fault is considered once per test).  The budget is per pool so the
        enrichment phase (secondaries from P1) always runs even when the
        P0 candidates exhaust their own budget.  The exact
        conflict/coverage filters do not count against the budget.
    retry_primaries:
        Number of justification attempts per primary target fault
        (the paper uses 1; more attempts trade run time for coverage).
    engine:
        ``"simulation"`` (the paper's randomized justifier) or ``"bnb"``
        (complete branch-and-bound).  The paper notes that the run-to-run
        variations of its results "can be eliminated by using a
        branch-and-bound procedure"; ``engine="bnb"`` is exactly that
        variant -- fully deterministic, independent of ``seed``, but
        slower.
    bnb_node_limit:
        Search budget per justification for the BnB engine; an exhausted
        search counts as a failed attempt.
    """

    heuristic: Heuristic = "values"
    seed: int = 1
    max_secondary_attempts: int | None = None
    retry_primaries: int = 1
    engine: str = "simulation"
    bnb_node_limit: int = 50_000

    def __post_init__(self) -> None:
        if self.heuristic not in _HEURISTICS:
            raise ValueError(
                f"unknown heuristic {self.heuristic!r}; pick one of {_HEURISTICS}"
            )
        if self.retry_primaries < 1:
            raise ValueError("retry_primaries must be >= 1")
        if self.engine not in ("simulation", "bnb"):
            raise ValueError(f"unknown engine {self.engine!r}")


class _PoolState:
    """Mutable view of one target pool during generation."""

    def __init__(self, records: Sequence[FaultRecord], order: str) -> None:
        # Stable ordering chosen once: list order for uncomp/arbit,
        # longest-path-first for length/values.
        self.records = order_pool(records, order)
        self.alive = [True] * len(self.records)
        self.tried_primary = [False] * len(self.records)

    def live_indices(self) -> list[int]:
        return [i for i, alive in enumerate(self.alive) if alive]

    def next_primary(self) -> int | None:
        """First alive record not yet tried as a primary (pool order)."""
        for i, record in enumerate(self.records):
            if self.alive[i] and not self.tried_primary[i]:
                return i
        return None

    @property
    def detected_count(self) -> int:
        return sum(1 for alive in self.alive if not alive)


def _stack(records: Sequence[FaultRecord]) -> StackedRequirements:
    """The batched-screen form of ``records``' requirement sets."""
    return StackedRequirements(
        [CompiledRequirements(record.sens.requirements) for record in records]
    )


class TestGenerator:
    """Dynamic-compaction path-delay-fault test generator.

    Each pool's requirements are stacked once and screened for
    coverage/conflicts/``n_delta`` with array ops (see module docstring).
    """

    def __init__(
        self,
        netlist: Netlist,
        config: AtpgConfig | None = None,
        simulator: BatchSimulator | None = None,
        justifier: Justifier | None = None,
        budget: Budget | None = None,
    ) -> None:
        self.netlist = netlist
        self.config = config or AtpgConfig()
        self.budget = budget
        self.simulator = simulator or BatchSimulator(netlist)
        self.justifier = justifier or Justifier(netlist, self.simulator)
        # Screening counters land in the same sink as the justifier's.
        self._stats = self.justifier._stats
        self._bnb = None
        if self.config.engine == "bnb":
            from .bnb import BranchAndBoundJustifier

            self._bnb = BranchAndBoundJustifier(netlist, self.simulator)

    def _count(self, name: str, value: int = 1) -> None:
        if self._stats is not None:
            self._stats.count(name, value)

    def _justify(
        self,
        requirements: RequirementSet,
        rng,
        budget: Budget | None = None,
    ) -> JustifyResult | None:
        """Dispatch to the configured justification engine.

        With a budget, a tripped cap propagates as
        :class:`~repro.robustness.BudgetExceeded` so the caller can record
        the fault as aborted; without one, an exhausted BnB search stays a
        failed attempt (legacy ``bnb_node_limit`` semantics).
        """
        if self._bnb is None:
            return self.justifier.justify(requirements, rng, budget)
        from .bnb import SearchExhausted

        try:
            test = self._bnb.justify(
                requirements, node_limit=self.config.bnb_node_limit, budget=budget
            )
        except SearchExhausted:
            if budget is not None and budget.node_limit is not None:
                raise  # the budget's cap, not the legacy safety valve
            return None
        if test is None:
            return None
        sim = self.simulator.run_triples([test.assignment])
        return JustifyResult(test=test, sim_codes=sim[:, :, 0])

    # ------------------------------------------------------------------

    def generate(
        self,
        pools: Sequence[Sequence[FaultRecord]],
        budget: Budget | None = None,
    ) -> GenerationResult:
        """Run test generation over target pools (primaries from pool 0).

        A non-null ``budget`` (argument, or the generator's own) makes the
        run degrade gracefully instead of running unbounded: a per-fault
        trip (``node_limit``, ``attempt_limit``) records that primary as
        aborted and moves on; a run-level trip (``deadline``,
        ``abort_limit``) stops targeting new primaries, marks the
        untried remainder of P0 aborted (deadline only) and returns the
        tests generated so far.  The result's ``aborted_faults`` lists
        every aborted fault with its machine-readable reason.
        """
        config = self.config
        budget = budget if budget is not None else self.budget
        if budget is not None:
            budget = None if budget.is_null else budget.start()
        rng = random.Random(config.seed)
        started = time.perf_counter()
        totals = JustifyStats()
        states = [_PoolState(pool, config.heuristic) for pool in pools]
        stacked = [_stack(state.records) for state in states]
        tests: list[GeneratedTest] = []
        aborted = 0
        aborted_faults: list[AbortedFault] = []
        budget_exhausted: str | None = None
        attempts_total = 0
        successes_total = 0

        def merge_stats(stats: JustifyStats) -> None:
            totals.simulations += stats.simulations
            totals.rounds += stats.rounds
            totals.decisions += stats.decisions
            totals.necessary_assignments += stats.necessary_assignments

        def record_abort(record: FaultRecord, reason: str, phase: str) -> None:
            aborted_faults.append(
                AbortedFault(
                    fault=record.fault.format(self.netlist),
                    pool=0,
                    reason=reason,
                    phase=phase,
                )
            )
            self._count("budget.aborted")
            self._count(f"budget.{reason}_trips")

        while True:
            if budget is not None:
                if budget.deadline_expired():
                    budget_exhausted = DEADLINE
                    break
                if budget.abort_limit_reached(len(aborted_faults)):
                    budget_exhausted = ABORT_LIMIT
                    break
            primary_pool = states[0]
            primary_index = primary_pool.next_primary()
            if primary_index is None:
                break
            primary_pool.tried_primary[primary_index] = True
            primary = primary_pool.records[primary_index]
            requirements = RequirementSet(primary.sens.requirements)
            attempts_allowed = config.retry_primaries
            if budget is not None:
                attempts_allowed = budget.attempts_allowed(attempts_allowed)
            result: JustifyResult | None = None
            try:
                for _attempt in range(attempts_allowed):
                    result = self._justify(requirements, rng, budget)
                    if result is not None:
                        merge_stats(result.stats)
                        break
                    # A failed attempt leaves no state behind; retry re-rolls
                    # the random decisions.
            except BudgetExceeded as exc:
                # The budget tripped mid-justification: this primary gets
                # no verdict.  Deadline expiry stops the run (checked at
                # the loop top); per-fault caps just abort this fault.
                aborted += 1
                record_abort(primary, exc.reason, exc.phase)
                continue
            if result is None:
                aborted += 1
                if attempts_allowed < config.retry_primaries:
                    # The attempt_limit truncated the retries this fault
                    # was entitled to, so its failure is a budget abort,
                    # not an exhausted search.
                    record_abort(primary, ATTEMPT_LIMIT, "justify")
                continue

            targeted = [primary]
            if config.heuristic != "uncomp":
                result, requirements, attempts, successes = self._compact(
                    result,
                    requirements,
                    targeted,
                    states,
                    stacked,
                    skip=(0, primary_index),
                    rng=rng,
                    merge_stats=merge_stats,
                    budget=budget,
                )
                attempts_total += attempts
                successes_total += successes

            detected = self._drop_detected(result.sim_codes, states, stacked)
            # The test was justified against U A(p_j) for P(t), so every
            # targeted fault must be among the detections.
            targeted_keys = {record.fault.key() for record in targeted}
            detected_keys = {record.fault.key() for record in detected}
            missing = targeted_keys - detected_keys
            if missing:  # pragma: no cover - core invariant
                raise AssertionError(
                    f"test fails to detect targeted fault(s): {sorted(missing)[:3]}"
                )
            tests.append(
                GeneratedTest(
                    test=result.test,
                    primary=primary,
                    targeted=targeted,
                    detected=detected,
                )
            )

        if budget_exhausted == DEADLINE:
            # Every alive P0 primary the run never got to try is aborted:
            # the deadline denied it a verdict (untried but *detected*
            # faults were already removed from the alive set).
            primary_pool = states[0]
            for i, record in enumerate(primary_pool.records):
                if primary_pool.alive[i] and not primary_pool.tried_primary[i]:
                    record_abort(record, DEADLINE, "generate")
        if budget_exhausted is not None:
            self._count("budget.run_stops")

        return GenerationResult(
            netlist=self.netlist,
            heuristic=config.heuristic,
            tests=tests,
            pools=[list(state.records) for state in states],
            detected_by_pool=[state.detected_count for state in states],
            aborted_primaries=aborted,
            runtime_seconds=time.perf_counter() - started,
            justify_stats=totals,
            secondary_attempts=attempts_total,
            secondary_successes=successes_total,
            aborted_faults=aborted_faults,
            budget_exhausted=budget_exhausted,
        )

    def _dense_union(self, requirements: RequirementSet) -> np.ndarray:
        """The requirement union as an ``(n_nodes, 3)`` code array (x = free)."""
        dense = np.full((len(self.netlist), 3), X, dtype=np.int8)
        for node, triple in requirements.values.items():
            dense[node, 0] = triple.v1
            dense[node, 1] = triple.v2
            dense[node, 2] = triple.v3
        return dense

    def _compact(
        self,
        result: JustifyResult,
        requirements: RequirementSet,
        targeted: list[FaultRecord],
        states: list[_PoolState],
        stacked: list[StackedRequirements],
        skip: tuple[int, int],
        rng: random.Random,
        merge_stats,
        budget: Budget | None = None,
    ) -> tuple[JustifyResult, RequirementSet, int, int]:
        """Fold secondary target faults into the test, pool by pool.

        Returns the final justification result, the final requirement
        union, and the (attempted, accepted) counters.

        Budget trips during a *secondary* justification never lose the
        test in hand: a per-fault cap makes the candidate a failed
        attempt (it stays eligible elsewhere), while deadline expiry
        stops compaction and salvages the current test as-is.
        """
        config = self.config
        attempts = 0
        successes = 0
        for pool_index, state in enumerate(states):
            # The attempt budget is per pool: the paper's enrichment relies
            # on every P1 fault being considered after P0 is exhausted, so
            # a shared budget would silently skip the enrichment phase.
            pool_attempts = 0
            attempt_cap = config.max_secondary_attempts
            if budget is not None:
                if attempt_cap is None:
                    attempt_cap = budget.attempt_limit
                else:
                    attempt_cap = budget.attempts_allowed(attempt_cap)
            candidates = [
                i
                for i in state.live_indices()
                if (pool_index, i) != skip
            ]
            considered = [False] * len(state.records)
            stack = stacked[pool_index]
            # Batched screens, recomputed only when their input changes
            # (identity comparison on objects we keep alive): coverage
            # depends on the justified test, conflicts/n_delta on the
            # requirement union.
            covered_for = None
            covered_vec: np.ndarray | None = None
            screen_for = None
            delta_vec: np.ndarray | None = None
            conflict_vec: np.ndarray | None = None
            while candidates:
                if attempt_cap is not None and pool_attempts >= attempt_cap:
                    break
                if budget is not None and budget.deadline_expired():
                    return result, requirements, attempts, successes
                # Drop candidates the current test already covers: the
                # closing fault simulation will detect them for free.
                if covered_for is not result:
                    covered_vec = stack.covered_single(result.sim_codes)
                    covered_for = result
                    self._count("compact.screen_calls")
                    self._count("compact.screen_columns", stack.n_faults)
                keep: list[int] = []
                for i in candidates:
                    if considered[i]:
                        continue
                    if covered_vec[i]:
                        considered[i] = True
                        continue
                    keep.append(i)
                candidates = keep
                if not candidates:
                    break

                if screen_for is not requirements:
                    delta_vec, conflict_vec = stack.delta_against(
                        self._dense_union(requirements)
                    )
                    screen_for = requirements
                    self._count("compact.screen_calls")
                    self._count("compact.screen_columns", stack.n_faults)

                pick: int | None = None
                if config.heuristic == "values":
                    best_delta: int | None = None
                    for i in candidates:
                        if conflict_vec[i]:
                            considered[i] = True
                            continue
                        delta = int(delta_vec[i])
                        if best_delta is None or delta < best_delta:
                            best_delta = delta
                            pick = i
                else:  # arbit / length: fixed pool order
                    for i in candidates:
                        if not conflict_vec[i]:
                            pick = i
                            break
                        considered[i] = True
                if pick is None:
                    candidates = [i for i in candidates if not considered[i]]
                    continue

                considered[pick] = True
                candidates = [i for i in candidates if i != pick]
                candidate = state.records[pick]
                trial = requirements.try_add(candidate.sens.requirements)
                assert trial is not None  # conflict-filtered above
                attempts += 1
                pool_attempts += 1
                try:
                    attempt = self._justify(trial, rng, budget)
                except BudgetExceeded as exc:
                    self._count(f"budget.{exc.reason}_trips")
                    if exc.reason == DEADLINE:
                        return result, requirements, attempts, successes
                    continue
                if attempt is None:
                    continue
                merge_stats(attempt.stats)
                result = attempt
                requirements = trial
                targeted.append(candidate)
                successes += 1
        return result, requirements, attempts, successes

    def _drop_detected(
        self,
        sim_codes: np.ndarray,
        states: list[_PoolState],
        stacked: list[StackedRequirements],
    ) -> list[FaultRecord]:
        """Fault-simulate one finished test; drop and return detections."""
        detected: list[FaultRecord] = []
        for state, stack in zip(states, stacked):
            covered = stack.covered_single(sim_codes)
            self._count("compact.screen_calls")
            self._count("compact.screen_columns", stack.n_faults)
            for i in state.live_indices():
                if covered[i]:
                    state.alive[i] = False
                    detected.append(state.records[i])
        return detected


def generate_basic(
    netlist: Netlist,
    records: Sequence[FaultRecord],
    config: AtpgConfig | None = None,
    simulator: BatchSimulator | None = None,
    justifier: Justifier | None = None,
    budget: Budget | None = None,
) -> GenerationResult:
    """Basic test generation for a single target set (Section 2)."""
    generator = TestGenerator(netlist, config, simulator, justifier, budget=budget)
    return generator.generate([records])
