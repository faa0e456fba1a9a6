"""Tests for the table drivers (tiny scale for speed)."""

import pytest

from repro.experiments import (
    ExperimentResults,
    ExperimentScale,
    format_table1,
    format_table2,
    format_table3,
    format_table4,
    format_table5,
    format_table6,
    format_table7,
    run_all,
    run_basic_experiments,
    run_table1,
    run_table2,
)

TINY = ExperimentScale(
    name="tiny", max_faults=120, p0_min_faults=30, max_secondary_attempts=4, seed=1
)
CIRCUITS = ("b03_proxy",)


@pytest.fixture(scope="module")
def results():
    return run_all(TINY, circuits=CIRCUITS, table6_circuits=CIRCUITS)


class TestTable1:
    def test_run(self):
        result = run_table1(max_paths=20)
        assert result.circuit == "s27"
        assert 0 < len(result.kept_paths) <= 20
        assert result.max_length == 7

    def test_format(self):
        text = format_table1(run_table1(max_paths=20))
        assert "Table 1" in text
        assert "G17" in text or "G10" in text


class TestTable2:
    def test_run(self):
        result = run_table2(TINY, circuit="s1423_proxy", max_rows=10)
        assert len(result.rows) <= 10
        indices = [row[0] for row in result.rows]
        assert indices == sorted(indices)
        cumulative = [row[2] for row in result.rows]
        assert cumulative == sorted(cumulative)

    def test_format(self):
        text = format_table2(run_table2(TINY, max_rows=5))
        assert "N_p(L_i)" in text


class TestBasicExperiments:
    def test_all_heuristics_present(self, results):
        entry = results.basic[CIRCUITS[0]]
        assert set(entry.outcomes) == {"uncomp", "arbit", "length", "values"}

    def test_detected_within_totals(self, results):
        entry = results.basic[CIRCUITS[0]]
        for outcome in entry.outcomes.values():
            assert 0 <= outcome.detected_p0 <= entry.p0_total
            assert outcome.detected_p0 <= outcome.detected_p01 <= entry.p01_total
            assert outcome.tests > 0
            assert outcome.runtime_seconds > 0

    def test_formatters(self, results):
        assert "Table 3" in format_table3(results.basic)
        assert "Table 4" in format_table4(results.basic)
        assert "Table 5" in format_table5(results.basic)

    def test_subset_of_heuristics(self):
        partial = run_basic_experiments(
            TINY, circuits=CIRCUITS, heuristics=("uncomp",)
        )
        assert set(partial[CIRCUITS[0]].outcomes) == {"uncomp"}


class TestTable6:
    def test_rows(self, results):
        assert len(results.table6) == 1
        row = results.table6[0]
        assert row.p0_detected <= row.p0_total
        assert row.p01_detected <= row.p01_total
        assert row.tests > 0

    def test_format(self, results):
        text = format_table6(results.table6)
        assert "Table 6" in text and CIRCUITS[0] in text


class TestTable7:
    def test_format(self, results):
        text = format_table7(results.basic, results.table6)
        assert "Table 7" in text
        assert CIRCUITS[0] in text


class TestSerialization:
    def test_json_roundtrip(self, results):
        text = results.to_json()
        back = ExperimentResults.from_json(text)
        assert back.scale == results.scale
        assert back.basic.keys() == results.basic.keys()
        entry = back.basic[CIRCUITS[0]]
        original = results.basic[CIRCUITS[0]]
        assert entry.outcomes["values"].tests == original.outcomes["values"].tests
        assert back.table6[0].tests == results.table6[0].tests
        # Formatting the round-tripped data reproduces the same tables.
        assert back.format_all() == results.format_all()

    def test_format_all_contains_every_table(self, results):
        text = results.format_all()
        for n in range(1, 8):
            assert f"Table {n}" in text
