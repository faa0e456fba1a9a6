"""Graceful degradation end to end: budgets trip, runs still finish.

Covers the cross-layer contract of :mod:`repro.robustness`:

* byte-identity -- a null budget changes nothing anywhere;
* per-fault degradation -- node/attempt caps record aborted faults with
  machine-readable reasons instead of raising;
* run-level degradation -- deadline/abort-limit stops keep partial
  results and the run exits normally;
* determinism -- same seed + same (deadline-free) budget means an
  identical aborted-fault set and identical ``canonical_json``;
* the parallel runner and checkpoint store honour the budget.

Deadline tests only use *pre-expired* deadlines (started, then checked
after the allowance passed) so they cannot flake on slow hosts.
"""

import json
import time

import pytest

from repro.engine import Engine
from repro.experiments import ExperimentScale, run_all
from repro.parallel import CircuitJob, ParallelRunner, RunCheckpoint
from repro.robustness import (
    ABORT_REASONS,
    AbortedFault,
    Budget,
    budget_from_profile,
)

TINY = ExperimentScale(
    name="tiny", max_faults=120, p0_min_faults=30, max_secondary_attempts=4, seed=1
)
CIRCUITS = ("s27", "b03_proxy")


def _expired_budget(**caps) -> Budget:
    budget = Budget(deadline_seconds=1e-9, **caps).start()
    time.sleep(0.01)
    return budget


@pytest.fixture(scope="module")
def baseline():
    """Unbudgeted reference run shared by the identity tests."""
    return run_all(TINY, circuits=CIRCUITS, table6_circuits=CIRCUITS, jobs=1)


class TestNullBudgetIdentity:
    def test_null_budget_output_is_byte_identical(self, baseline):
        nulled = run_all(
            TINY,
            circuits=CIRCUITS,
            table6_circuits=CIRCUITS,
            jobs=1,
            budget=Budget(),
        )
        assert nulled.canonical_json() == baseline.canonical_json()

    def test_unbudgeted_json_has_no_taxonomy_keys(self, baseline):
        payload = json.loads(baseline.to_json())
        for row in payload["table6"]:
            assert "aborted" not in row
            assert "aborted_faults" not in row
        for entry in payload["basic"].values():
            for outcome in entry["outcomes"].values():
                assert "aborted" not in outcome

    def test_unbudgeted_tables_have_no_aborted_column(self, baseline):
        text = baseline.format_all()
        assert "aborted" not in text


class TestPerFaultDegradation:
    def test_node_limit_records_aborted_faults(self):
        engine = Engine(budget=Budget(node_limit=1))
        session = engine.session("s27")
        targets = session.target_sets(max_faults=120, p0_min_faults=30)
        result = session.generate_basic(targets.p0)
        assert result.num_aborted > 0
        for fault in result.aborted_faults:
            assert isinstance(fault, AbortedFault)
            assert fault.reason in ABORT_REASONS
            assert fault.pool == 0
        assert engine.stats.counter("budget.aborted") == result.num_aborted

    def test_enrichment_reports_aborted_faults(self):
        engine = Engine(budget=Budget(node_limit=1))
        session = engine.session("s27")
        targets = session.target_sets(max_faults=120, p0_min_faults=30)
        report = session.generate_enriched(targets)
        assert report.aborted == len(report.aborted_faults)
        assert report.num_tests >= 0  # partial test set survives

    def test_abort_limit_stops_the_run(self):
        engine = Engine(budget=Budget(node_limit=1, abort_limit=2))
        session = engine.session("s27")
        targets = session.target_sets(max_faults=120, p0_min_faults=30)
        result = session.generate_basic(targets.p0)
        assert result.num_aborted == 2
        assert result.budget_exhausted == "abort_limit"
        assert engine.stats.counter("budget.run_stops") == 1


class TestDeadlineDegradation:
    def test_expired_deadline_aborts_everything_but_finishes(self):
        # Budget only the generation call: target sets are built normally,
        # then the expired deadline denies every P0 fault a verdict.
        engine = Engine()
        session = engine.session("s27")
        targets = session.target_sets(max_faults=120, p0_min_faults=30)
        result = session.generate_basic(targets.p0, budget=_expired_budget())
        assert result.budget_exhausted == "deadline"
        assert result.num_aborted == len(targets.p0) > 0
        assert all(f.reason == "deadline" for f in result.aborted_faults)
        assert all(f.phase == "generate" for f in result.aborted_faults)
        assert result.num_tests == 0  # nothing got generated, nothing crashed

    def test_expired_deadline_during_target_sets_degrades_to_empty(self):
        engine = Engine(budget=_expired_budget())
        targets = engine.session("s27").target_sets(max_faults=120, p0_min_faults=30)
        assert targets.budget_exhausted in ("deadline", "enumeration_cap")
        assert targets.p0 == []  # cut before any fault was enumerated


class TestBudgetDeterminism:
    """Same seed + same (deadline-free) budget => identical output."""

    BUDGET_CAPS = dict(node_limit=1, attempt_limit=1)

    def _run(self):
        return run_all(
            TINY,
            circuits=CIRCUITS,
            table6_circuits=CIRCUITS,
            jobs=1,
            budget=Budget(**self.BUDGET_CAPS),
        )

    def test_two_runs_are_byte_identical(self):
        first, second = self._run(), self._run()
        assert first.canonical_json() == second.canonical_json()

    def test_aborted_fault_set_is_identical_and_serialized(self):
        first, second = self._run(), self._run()
        rows_first = [row.aborted_faults for row in first.table6]
        rows_second = [row.aborted_faults for row in second.table6]
        assert rows_first == rows_second
        assert any(rows_first)  # the budget actually tripped
        payload = json.loads(first.to_json())
        for row, expected in zip(payload["table6"], rows_first):
            if expected:
                assert row["aborted_faults"] == expected
            else:
                assert "aborted_faults" not in row

    def test_degraded_tables_render_the_taxonomy(self):
        text = self._run().format_all()
        assert "aborted" in text
        assert "Aborted faults" in text

    def test_budgeted_json_roundtrips(self):
        from repro.experiments import ExperimentResults

        first = self._run()
        again = ExperimentResults.from_json(first.to_json())
        assert again.canonical_json() == first.canonical_json()
        assert again.format_all() == first.format_all()


class TestParallelBudget:
    def test_pool_workers_degrade_and_salvage(self):
        """The run budget forks to every pool worker; jobs degrade (abort
        faults) but still return results instead of failing."""
        engine = Engine()
        runner = ParallelRunner(
            jobs=2, engine=engine, budget=Budget(node_limit=1)
        )
        results = runner.run(
            [CircuitJob(name, TINY, ("values",), run_basic=True) for name in CIRCUITS]
        )
        assert [r.circuit for r in results] == list(CIRCUITS)
        for result in results:
            assert result.basic.outcomes["values"].aborted > 0
        # worker budget counters merged back into the parent engine
        assert engine.stats.counter("budget.aborted") > 0

    def test_abort_limit_caps_each_pool_job(self):
        """Every pool job gets the whole run budget's ``abort_limit``: each
        circuit's generation stops at the cap, and the stops are counted
        on the parent engine."""
        engine = Engine()
        runner = ParallelRunner(
            jobs=2, engine=engine, budget=Budget(node_limit=1, abort_limit=2)
        )
        results = runner.run(
            [CircuitJob(name, TINY, ("values",), run_basic=True) for name in CIRCUITS]
        )
        assert [r.circuit for r in results] == list(CIRCUITS)
        for result in results:
            outcome = result.basic.outcomes["values"]
            assert outcome.aborted == 2
        assert engine.stats.counter("budget.run_stops") == len(CIRCUITS)

    def test_engine_budget_is_the_runner_default(self):
        engine = Engine(budget=Budget(node_limit=1))
        runner = ParallelRunner(jobs=1, engine=engine)
        results = runner.run(
            [CircuitJob("s27", TINY, ("values",), run_basic=True)]
        )
        assert results[0].basic.outcomes["values"].aborted > 0

    def test_expired_run_budget_still_salvages_results(self):
        """Fully expired wall clock: every job comes back (degraded to
        zero work) rather than raising or hanging."""
        engine = Engine()
        runner = ParallelRunner(jobs=2, engine=engine, budget=_expired_budget())
        results = runner.run(
            [CircuitJob(name, TINY, ("values",), run_basic=True) for name in CIRCUITS]
        )
        assert [r.circuit for r in results] == list(CIRCUITS)
        for result in results:
            outcome = result.basic.outcomes["values"]
            assert outcome.detected_p0 == 0
            assert outcome.tests == 0


class TestCheckpointBudgetEnvelope:
    JOB = CircuitJob("s27", TINY, ("values",), run_basic=True)

    def _result(self):
        engine = Engine()
        runner = ParallelRunner(jobs=1, engine=engine)
        return runner.run([self.JOB])[0]

    def test_budget_mismatch_reads_as_stale(self, tmp_path):
        result = self._result()
        unbudgeted = RunCheckpoint(tmp_path)
        unbudgeted.save(result, self.JOB)
        budgeted = RunCheckpoint(tmp_path, budget=Budget(node_limit=1))
        assert budgeted.load(self.JOB) is None  # different envelope
        assert unbudgeted.load(self.JOB) is not None

    def test_matching_budget_envelope_roundtrips(self, tmp_path):
        result = self._result()
        budget = budget_from_profile("strict")
        checkpoint = RunCheckpoint(tmp_path, budget=budget, timeout=9.0)
        checkpoint.save(result, self.JOB)
        assert checkpoint.load(self.JOB) is not None
        payload = json.loads(checkpoint.path_for("s27").read_text())
        assert payload["budget"] == budget.spec()
        assert payload["timeout"] == 9.0

    def test_timeout_mismatch_reads_as_stale(self, tmp_path):
        result = self._result()
        RunCheckpoint(tmp_path, timeout=5.0).save(result, self.JOB)
        assert RunCheckpoint(tmp_path, timeout=6.0).load(self.JOB) is None

    def test_corrupt_checkpoint_is_counted(self, tmp_path):
        from repro.engine import EngineStats

        stats = EngineStats()
        checkpoint = RunCheckpoint(tmp_path, stats=stats)
        checkpoint.path_for("s27").write_text('{"version": 1, "circ')  # truncated
        assert checkpoint.load(self.JOB) is None
        assert stats.counter("checkpoint.corrupt") == 1

    def test_missing_checkpoint_is_not_counted(self, tmp_path):
        from repro.engine import EngineStats

        stats = EngineStats()
        checkpoint = RunCheckpoint(tmp_path, stats=stats)
        assert checkpoint.load(self.JOB) is None
        assert stats.counter("checkpoint.corrupt") == 0


class TestCli:
    def test_budget_profile_run_exits_zero(self, capsys):
        from repro.cli import main

        code = main(
            [
                "atpg",
                "s27",
                "--max-faults",
                "120",
                "--p0-min-faults",
                "30",
                "--budget-profile",
                "strict",
            ]
        )
        assert code == 0

    def test_degraded_run_exits_zero_and_reports_aborts(self, capsys):
        from repro.cli import main

        code = main(
            [
                "enrich",
                "s27",
                "--max-faults",
                "120",
                "--p0-min-faults",
                "30",
                "--node-limit",
                "1",
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "aborted" in captured.err
        assert "node_limit" in captured.err

    def test_deadline_validation(self):
        from repro.cli import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "--deadline", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "--abort-limit", "-3"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "--node-limit", "0"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "--budget-profile", "nope"])
