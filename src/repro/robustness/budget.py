"""Resource budgets and the fault-status taxonomy.

Real ATPG flows never assume every fault either gets a test or is proven
untestable: on large circuits justification and path enumeration can blow
past any practical limit, so production tools classify every fault as
*detected*, *untestable* or *aborted* and still emit a usable test set.
This module is the single place that expresses those limits:

* :class:`Budget` -- one object holding every cap (wall-clock deadline,
  justification node/attempt limits, path-enumeration expansion cap,
  aborted-fault limit), threaded through the enumeration, justification,
  generation, engine-session and parallel layers.  An unset cap means
  unlimited; the default ``Budget()`` is a no-op and the budget-free code
  paths are byte-identical to the pre-budget behaviour.
* :class:`~repro.robustness.errors.BudgetExceeded` -- the structured
  signal a tripped cap raises at a checked seam.  Per-fault trips are
  caught by the generator and recorded as :class:`AbortedFault`; run-level
  trips (deadline, abort limit) stop targeting new faults but the run
  still finishes and reports what it has.
* the fault-status taxonomy (:data:`FAULT_STATUSES`) used by result
  containers and table formatters to report per-fault outcomes
  explicitly, following the n-detection analysis literature: coverage
  claims only mean something when the aborted faults are listed.

Determinism: every cap except the wall-clock deadline is a pure function
of the work performed, so ``same seed + same budget`` implies an identical
aborted-fault set and identical ``canonical_json`` output.  Deadline trips
depend on the host's speed and are the one intentionally nondeterministic
reason (that is what a deadline *is*); tests that need reproducible aborts
use the node/attempt/enumeration/abort caps.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

from .errors import BudgetExceeded

__all__ = [
    "Budget",
    "AbortedFault",
    "ABORT_REASONS",
    "FAULT_STATUSES",
    "DEADLINE",
    "NODE_LIMIT",
    "ATTEMPT_LIMIT",
    "ENUMERATION_CAP",
    "ABORT_LIMIT",
    "BUDGET_PROFILES",
    "budget_from_profile",
]

# -- abort reasons (machine-readable, stable: serialized in results) ------

DEADLINE = "deadline"
NODE_LIMIT = "node_limit"
ATTEMPT_LIMIT = "attempt_limit"
ENUMERATION_CAP = "enumeration_cap"
ABORT_LIMIT = "abort_limit"

#: Every reason an :class:`AbortedFault` / ``budget_exhausted`` field can carry.
ABORT_REASONS = (DEADLINE, NODE_LIMIT, ATTEMPT_LIMIT, ENUMERATION_CAP, ABORT_LIMIT)

#: Per-fault outcome taxonomy reported by result containers:
#: ``detected`` (a test covers it), ``untestable`` (proven unsensitizable
#: by the type-1/type-2 filters), ``aborted`` (a budget tripped before a
#: verdict) and ``undetected`` (considered, no test found, no proof).
FAULT_STATUSES = ("detected", "untestable", "aborted", "undetected")

#: Spec fields of a :class:`Budget` (runtime clock state excluded).
_SPEC_FIELDS = (
    "deadline_seconds",
    "node_limit",
    "attempt_limit",
    "enumeration_cap",
    "abort_limit",
)


@dataclass
class Budget:
    """Resource caps for one run, plus the running wall clock.

    Attributes
    ----------
    deadline_seconds:
        Wall-clock budget for the whole run.  The clock starts at
        :meth:`start`; expiry degrades the run (faults not yet decided
        are recorded as aborted) instead of killing it.
    node_limit:
        Per-justification work cap: fixpoint rounds for the simulation
        engine, search nodes for branch-and-bound.  Replaces the old
        ad-hoc ``bnb_node_limit``-style knobs when set.
    attempt_limit:
        Justification attempts per target fault (caps
        ``AtpgConfig.retry_primaries`` and the per-candidate secondary
        attempts).
    enumeration_cap:
        Path-enumeration expansion cap.  Unlike the legacy
        ``max_expansions`` safety valve (which raises
        ``EnumerationOverflow``), hitting this cap keeps the complete
        paths found so far.
    abort_limit:
        Maximum number of aborted faults before the run stops targeting
        new primaries (the classic "too many aborts, give up" policy).

    The runtime clock fields are process-local; a budget shipped to a
    worker process carries its remaining allowance via :meth:`forked`.
    """

    deadline_seconds: float | None = None
    node_limit: int | None = None
    attempt_limit: int | None = None
    enumeration_cap: int | None = None
    abort_limit: int | None = None
    # Runtime state (not part of the spec / equality is fine to include:
    # two budgets compare equal only when in the same clock state).
    _deadline_at: float | None = field(default=None, repr=False)
    _cancelled: bool = field(default=False, repr=False)

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds <= 0:
            raise ValueError(
                f"deadline_seconds must be > 0, got {self.deadline_seconds}"
            )
        for name in ("node_limit", "attempt_limit", "enumeration_cap", "abort_limit"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    # -- spec ----------------------------------------------------------

    @property
    def is_null(self) -> bool:
        """True when no cap is set (the budget can never trip)."""
        return all(getattr(self, name) is None for name in _SPEC_FIELDS)

    def spec(self) -> dict:
        """The caps as a plain dict (stable; excludes clock state).

        Used as the checkpoint parameter envelope: two runs with equal
        specs produce comparable results (up to deadline nondeterminism).
        """
        return {name: getattr(self, name) for name in _SPEC_FIELDS}

    @classmethod
    def from_spec(cls, payload: dict) -> "Budget":
        """Rebuild a (not yet started) budget from :meth:`spec`."""
        return cls(**{name: payload.get(name) for name in _SPEC_FIELDS})

    # -- clock ---------------------------------------------------------

    def start(self) -> "Budget":
        """Start the deadline clock (idempotent); returns ``self``."""
        if self.deadline_seconds is not None and self._deadline_at is None:
            self._deadline_at = time.monotonic() + self.deadline_seconds
        return self

    def cancel(self) -> None:
        """Cooperatively expire the budget now (e.g. from a SIGTERM
        handler); every subsequent deadline check trips."""
        self._cancelled = True

    def remaining_seconds(self) -> float | None:
        """Seconds left on the deadline (``None`` = no deadline)."""
        if self._cancelled:
            return 0.0
        if self._deadline_at is not None:
            return max(0.0, self._deadline_at - time.monotonic())
        return self.deadline_seconds

    def deadline_expired(self) -> bool:
        """True once the started deadline has passed (or on cancel)."""
        if self._cancelled:
            return True
        return self._deadline_at is not None and time.monotonic() > self._deadline_at

    def check_deadline(self, phase: str, **progress) -> None:
        """Raise :class:`BudgetExceeded` when the deadline has expired."""
        if self.deadline_expired():
            raise BudgetExceeded(DEADLINE, phase, progress=progress)

    # -- derived budgets -----------------------------------------------

    def forked(self) -> "Budget":
        """A fresh (unstarted) budget carrying the *remaining* allowance.

        Used when handing work to another process: monotonic clocks are
        not portable across processes, so the child re-anchors the
        remaining wall-clock budget on its own clock at :meth:`start`.
        """
        remaining = self.remaining_seconds()
        if remaining is not None and remaining <= 0:
            remaining = 1e-6  # already expired: trip on the child's first check
        return replace(
            self, deadline_seconds=remaining, _deadline_at=None, _cancelled=False
        )

    def limited(self, seconds: float | None) -> "Budget":
        """A copy whose deadline is tightened to at most ``seconds``.

        The per-job ``--timeout`` of the parallel runner is expressed this
        way: the worker's effective budget is the run budget limited to
        the job timeout.  ``None`` leaves the deadline unchanged.
        """
        if seconds is None:
            return self
        current = self.remaining_seconds()
        tightened = seconds if current is None else min(current, seconds)
        if tightened <= 0:
            tightened = 1e-6
        return replace(
            self, deadline_seconds=tightened, _deadline_at=None, _cancelled=False
        )

    # -- caps ----------------------------------------------------------

    def check_nodes(self, nodes: int, phase: str, **progress) -> None:
        """Raise when ``nodes`` work units exceed :attr:`node_limit`."""
        if self.node_limit is not None and nodes > self.node_limit:
            raise BudgetExceeded(NODE_LIMIT, phase, progress={"nodes": nodes, **progress})

    def attempts_allowed(self, requested: int) -> int:
        """Cap a per-fault attempt count at :attr:`attempt_limit`."""
        if self.attempt_limit is None:
            return requested
        return min(requested, self.attempt_limit)

    def abort_limit_reached(self, aborted_count: int) -> bool:
        """True once ``aborted_count`` faults hit :attr:`abort_limit`."""
        return self.abort_limit is not None and aborted_count >= self.abort_limit


@dataclass(frozen=True)
class AbortedFault:
    """One fault the run gave up on, with the machine-readable why.

    ``fault`` is the stable human-readable identity (path node names plus
    transition), ``pool`` the target-pool index it came from (0 = P0),
    ``reason`` one of :data:`ABORT_REASONS` and ``phase`` the pipeline
    stage that tripped.
    """

    fault: str
    pool: int
    reason: str
    phase: str = "justify"

    def as_row(self) -> list:
        """JSON-ready ``[fault, pool, reason, phase]`` row."""
        return [self.fault, self.pool, self.reason, self.phase]

    @classmethod
    def from_row(cls, row) -> "AbortedFault":
        fault, pool, reason, phase = row
        return cls(fault=fault, pool=int(pool), reason=reason, phase=phase)


#: Named cap presets for ``--budget-profile``.  Deliberately deadline-free
#: so profile-driven runs stay deterministic; combine with ``--deadline``
#: for a wall-clock ceiling on top.
BUDGET_PROFILES: dict[str, dict] = {
    "lenient": {
        "node_limit": 200_000,
        "attempt_limit": 8,
        "enumeration_cap": 2_000_000,
        "abort_limit": 10_000,
    },
    "strict": {
        "node_limit": 20_000,
        "attempt_limit": 2,
        "enumeration_cap": 200_000,
        "abort_limit": 500,
    },
}


def budget_from_profile(name: str) -> Budget:
    """A fresh :class:`Budget` for a profile name (see ``--budget-profile``)."""
    try:
        caps = BUDGET_PROFILES[name]
    except KeyError:
        raise KeyError(
            f"unknown budget profile {name!r}; presets: {sorted(BUDGET_PROFILES)}"
        ) from None
    return Budget(**caps)
