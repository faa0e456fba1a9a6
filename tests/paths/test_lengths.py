"""Tests for the length table (Table 2 machinery)."""

from repro.faults import build_target_sets, faults_of_paths
from repro.paths import (
    enumerate_paths,
    length_table_for_faults,
    length_table_for_paths,
)


def make_table(lengths_with_counts):
    """Build a table from {length: n_paths} via synthetic fault lists."""

    class FakeFault:
        def __init__(self, length):
            self.length = length

    faults = []
    for length, count in lengths_with_counts.items():
        faults.extend(FakeFault(length) for _ in range(count))
    return length_table_for_faults(faults)


class TestTableShape:
    def test_rows_sorted_descending(self):
        table = make_table({5: 4, 9: 2, 7: 6})
        assert [row.length for row in table] == [9, 7, 5]
        assert [row.index for row in table] == [0, 1, 2]

    def test_cumulative_counts(self):
        table = make_table({9: 4, 8: 8, 7: 10})
        assert [row.faults for row in table] == [4, 8, 10]
        assert [row.cumulative for row in table] == [4, 12, 22]
        assert table.total_faults == 22

    def test_paper_table2_shape(self):
        # The paper's Table 2 for s1423: N_p grows monotonically as the
        # length bound decreases; mirror the first rows qualitatively.
        table = make_table({96: 4, 95: 8, 94: 10, 93: 14})
        assert [row.cumulative for row in table] == [4, 12, 22, 36]

    def test_empty_table(self):
        table = make_table({})
        assert len(table) == 0
        assert table.total_faults == 0
        assert table.select_index(10) == 0

    def test_format(self):
        table = make_table({9: 4, 8: 8})
        text = table.format()
        assert "L_i" in text and "N_p" in text
        assert "9" in text and "12" in text

    def test_format_truncates(self):
        table = make_table({length: 1 for length in range(1, 40)})
        assert len(table.format(max_rows=5).splitlines()) == 6


class TestSelectIndex:
    def test_paper_selection_rule(self):
        # First index whose cumulative reaches the bound.
        table = make_table({9: 4, 8: 8, 7: 10, 6: 30})
        assert table.select_index(1) == 0
        assert table.select_index(5) == 1
        assert table.select_index(12) == 1
        assert table.select_index(13) == 2
        assert table.select_index(23) == 3

    def test_bound_beyond_population_selects_last(self):
        table = make_table({9: 4, 8: 8})
        assert table.select_index(1000) == 1

    def test_length_at(self):
        table = make_table({9: 4, 8: 8})
        assert table.length_at(0) == 9
        assert table.length_at(1) == 8


class TestFromRealCircuits:
    def test_two_faults_per_path(self, s27):
        result = enumerate_paths(s27, max_faults=10_000)
        by_paths = length_table_for_paths(result.paths)
        by_faults = length_table_for_faults(faults_of_paths(result.paths))
        assert [(r.length, r.cumulative) for r in by_paths] == [
            (r.length, r.cumulative) for r in by_faults
        ]
        assert by_paths.total_faults == 2 * len(result.paths)

    def test_matches_target_sets_i0(self, s27):
        targets = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
        assert targets.length_table.select_index(20) == targets.i0
