"""Unit tests for the resource-budget primitives."""

import time

import pytest

from repro.robustness import (
    ABORT_REASONS,
    BUDGET_PROFILES,
    DEADLINE,
    FAULT_STATUSES,
    NODE_LIMIT,
    AbortedFault,
    Budget,
    BudgetExceeded,
    InternalInvariantError,
    ReproError,
    budget_from_profile,
)


class TestBudgetSpec:
    def test_default_is_null(self):
        assert Budget().is_null

    def test_any_cap_makes_it_non_null(self):
        assert not Budget(node_limit=5).is_null
        assert not Budget(deadline_seconds=1.0).is_null

    def test_spec_roundtrip(self):
        budget = Budget(deadline_seconds=2.5, node_limit=10, abort_limit=3)
        assert Budget.from_spec(budget.spec()).spec() == budget.spec()

    def test_spec_excludes_clock_state(self):
        budget = Budget(deadline_seconds=100.0).start()
        assert set(budget.spec()) == {
            "deadline_seconds",
            "node_limit",
            "attempt_limit",
            "enumeration_cap",
            "abort_limit",
        }

    def test_validation(self):
        with pytest.raises(ValueError):
            Budget(deadline_seconds=0)
        with pytest.raises(ValueError):
            Budget(node_limit=0)
        with pytest.raises(ValueError):
            Budget(abort_limit=-1)


class TestDeadline:
    def test_unstarted_deadline_never_expires(self):
        assert not Budget(deadline_seconds=1e-9).deadline_expired()

    def test_started_tiny_deadline_expires(self):
        budget = Budget(deadline_seconds=1e-9).start()
        time.sleep(0.01)
        assert budget.deadline_expired()
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.check_deadline("generate", faults_done=3)
        assert excinfo.value.reason == DEADLINE
        assert excinfo.value.phase == "generate"
        assert excinfo.value.progress == {"faults_done": 3}

    def test_start_is_idempotent(self):
        budget = Budget(deadline_seconds=100.0).start()
        anchor = budget._deadline_at
        budget.start()
        assert budget._deadline_at == anchor

    def test_cancel_expires_immediately(self):
        budget = Budget(deadline_seconds=1000.0).start()
        assert not budget.deadline_expired()
        budget.cancel()
        assert budget.deadline_expired()
        assert budget.remaining_seconds() == 0.0

    def test_cancel_works_without_deadline(self):
        budget = Budget(node_limit=5)
        budget.cancel()
        assert budget.deadline_expired()

    def test_no_deadline_never_expires(self):
        assert not Budget(node_limit=5).start().deadline_expired()


class TestDerivedBudgets:
    def test_forked_carries_remaining_unstarted(self):
        budget = Budget(deadline_seconds=1000.0, node_limit=7).start()
        child = budget.forked()
        assert child._deadline_at is None  # child re-anchors on its clock
        assert child.node_limit == 7
        assert 0 < child.deadline_seconds <= 1000.0

    def test_forked_expired_budget_trips_on_first_check(self):
        budget = Budget(deadline_seconds=1e-9).start()
        time.sleep(0.01)
        child = budget.forked().start()
        time.sleep(0.01)
        assert child.deadline_expired()

    def test_limited_tightens_deadline(self):
        budget = Budget(deadline_seconds=1000.0, node_limit=7)
        tight = budget.limited(5.0)
        assert tight.deadline_seconds == 5.0
        assert tight.node_limit == 7

    def test_limited_keeps_tighter_existing_deadline(self):
        assert Budget(deadline_seconds=2.0).limited(50.0).deadline_seconds == 2.0

    def test_limited_none_is_identity(self):
        budget = Budget(deadline_seconds=3.0)
        assert budget.limited(None) is budget

    def test_limited_sets_deadline_on_deadline_free_budget(self):
        assert Budget(node_limit=5).limited(4.0).deadline_seconds == 4.0


class TestCaps:
    def test_check_nodes(self):
        budget = Budget(node_limit=10)
        budget.check_nodes(10, "bnb")  # at the limit: fine
        with pytest.raises(BudgetExceeded) as excinfo:
            budget.check_nodes(11, "bnb")
        assert excinfo.value.reason == NODE_LIMIT
        assert excinfo.value.progress["nodes"] == 11

    def test_check_nodes_unlimited(self):
        Budget().check_nodes(10**9, "bnb")

    def test_attempts_allowed(self):
        assert Budget(attempt_limit=2).attempts_allowed(5) == 2
        assert Budget(attempt_limit=9).attempts_allowed(5) == 5
        assert Budget().attempts_allowed(5) == 5

    def test_abort_limit_reached(self):
        budget = Budget(abort_limit=3)
        assert not budget.abort_limit_reached(2)
        assert budget.abort_limit_reached(3)
        assert not Budget().abort_limit_reached(10**6)


class TestErrors:
    def test_budget_exceeded_message_and_fields(self):
        exc = BudgetExceeded("node_limit", "bnb", progress={"nodes": 42})
        assert exc.reason == "node_limit"
        assert exc.phase == "bnb"
        assert "bnb" in str(exc)
        assert "nodes=42" in str(exc)

    def test_hierarchy(self):
        assert issubclass(BudgetExceeded, ReproError)
        assert issubclass(BudgetExceeded, RuntimeError)
        assert issubclass(InternalInvariantError, ReproError)
        # callers catching the historical AssertionError still work
        assert issubclass(InternalInvariantError, AssertionError)

    def test_reasons_and_statuses_are_stable(self):
        assert "deadline" in ABORT_REASONS
        assert "node_limit" in ABORT_REASONS
        assert FAULT_STATUSES == ("detected", "untestable", "aborted", "undetected")


class TestAbortedFault:
    def test_row_roundtrip(self):
        fault = AbortedFault("(G1, G2) slow-to-rise", 1, "node_limit", "bnb")
        assert fault.as_row() == ["(G1, G2) slow-to-rise", 1, "node_limit", "bnb"]
        assert AbortedFault.from_row(fault.as_row()) == fault


class TestProfiles:
    def test_known_profiles_build(self):
        for name in BUDGET_PROFILES:
            budget = budget_from_profile(name)
            assert not budget.is_null
            # profiles are deliberately deadline-free (determinism)
            assert budget.deadline_seconds is None

    def test_unknown_profile_raises(self):
        with pytest.raises(KeyError, match="unknown budget profile"):
            budget_from_profile("nope")
