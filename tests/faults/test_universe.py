"""Tests for target-set construction (P, P0, P1)."""

import dataclasses

import pytest

from repro.faults import build_target_sets, partition_by_lengths
from repro.faults.universe import check_target_sets
from repro.paths import enumerate_paths, length_table_for_faults
from repro.robustness import InternalInvariantError


class TestBuildTargetSets:
    def test_s27_split(self, s27):
        targets = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
        # i0 is the first index whose cumulative count reaches 20.
        table = targets.length_table
        assert table[targets.i0].cumulative >= 20
        if targets.i0 > 0:
            assert table[targets.i0 - 1].cumulative < 20
        boundary = targets.boundary_length
        assert all(r.length >= boundary for r in targets.p0)
        assert all(r.length < boundary for r in targets.p1)

    def test_p0_contains_all_longest(self, s27):
        targets = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
        longest = targets.length_table[0].length
        longest_records = [r for r in targets.all_records if r.length == longest]
        assert longest_records
        assert all(r in targets.p0 for r in longest_records)

    def test_p0_at_least_min_when_available(self, s27):
        targets = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
        assert len(targets.p0) >= 20

    def test_whole_population_smaller_than_min(self, s27):
        targets = build_target_sets(s27, max_faults=1000, p0_min_faults=10_000)
        assert targets.p1 == []
        assert len(targets.p0) == len(targets.all_records)

    def test_conflicting_faults_dropped(self, s27):
        targets = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
        assert targets.dropped_conflict > 0
        assert all(record.sens is not None for record in targets.all_records)

    def test_implication_filter_applied(self, s27):
        from repro.atpg import Justifier, RequirementSet, has_implication_conflict

        justifier = Justifier(s27)
        unfiltered = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
        filtered = build_target_sets(
            s27, max_faults=1000, p0_min_faults=20, justifier=justifier
        )
        total_f = len(filtered.all_records)
        total_u = len(unfiltered.all_records)
        assert total_f + filtered.dropped_implication == total_u
        kept = {record.fault.key() for record in filtered.all_records}
        for record in unfiltered.all_records:
            conflict = has_implication_conflict(
                justifier, RequirementSet(record.sens.requirements)
            )
            assert (record.fault.key() not in kept) == conflict

    def test_filter_cut_keeps_the_decided_prefix(self, s27, monkeypatch):
        import repro.atpg.justify as justify
        from repro.faults import faults_of_paths, sensitize

        real = justify.implication_conflicts

        def cut_after_ten(justifier, requirement_sets, budget=None):
            return real(justifier, requirement_sets, budget)[:10]

        monkeypatch.setattr(justify, "implication_conflicts", cut_after_ten)
        targets = build_target_sets(
            s27, max_faults=1000, p0_min_faults=20, justifier=justify.Justifier(s27)
        )
        assert targets.budget_exhausted == "deadline"
        order, type1 = [], 0
        for fault in faults_of_paths(enumerate_paths(s27, max_faults=1000).paths):
            if len(order) == 10:
                break
            if sensitize(s27, fault) is None:
                type1 += 1
            else:
                order.append(fault.key())
        # s27 has no type-2 drops, so the first ten sensitized faults stay.
        assert {record.fault.key() for record in targets.all_records} == set(order)
        assert targets.dropped_implication == 0
        assert targets.dropped_conflict == type1

    def test_non_robust_mode_keeps_more_faults(self, tiny_chain):
        robust = build_target_sets(tiny_chain, max_faults=400, p0_min_faults=50)
        non_robust = build_target_sets(
            tiny_chain, max_faults=400, p0_min_faults=50, mode="non_robust"
        )
        assert non_robust.dropped_conflict <= robust.dropped_conflict

    def test_summary_mentions_sizes(self, s27):
        targets = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
        text = targets.summary()
        assert "P0" in text and "s27" in text

    def test_length_table_matches_records(self, s27):
        targets = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
        rebuilt = length_table_for_faults(r.fault for r in targets.all_records)
        assert [(row.length, row.cumulative) for row in rebuilt] == [
            (row.length, row.cumulative) for row in targets.length_table
        ]


class TestSection31Invariants:
    @pytest.fixture
    def targets(self, s27):
        return build_target_sets(s27, max_faults=1000, p0_min_faults=20)

    def test_built_sets_pass(self, targets):
        assert check_target_sets(targets, 1000, 20) == []

    def test_duplicate_enumeration_raises(self, s27):
        enumeration = enumerate_paths(s27, max_faults=1000)
        doubled = dataclasses.replace(
            enumeration, paths=enumeration.paths + enumeration.paths[:1]
        )
        with pytest.raises(InternalInvariantError, match="duplicate"):
            build_target_sets(
                s27, max_faults=1000, p0_min_faults=20, enumeration=doubled
            )

    def test_too_many_faults(self, targets):
        problems = check_target_sets(targets, len(targets.all_records) - 1, 20)
        assert any("exceeds N_P" in problem for problem in problems)

    def test_p0_and_p1_must_split_at_the_boundary(self, targets):
        swapped = dataclasses.replace(
            targets, p0=targets.p0 + targets.p1[:1], p1=targets.p1[1:] + targets.p0[:1]
        )
        problems = check_target_sets(swapped, 1000, 20)
        assert any("shorter than L_i0" in problem for problem in problems)
        assert any("at least L_i0" in problem for problem in problems)

    def test_boundary_must_be_minimal(self, targets):
        longer = sum(r.length > targets.boundary_length for r in targets.p0)
        problems = check_target_sets(targets, 1000, longer)
        assert any("longer boundary" in problem for problem in problems)

    def test_p0_size_skipped_after_a_budget_cut(self, targets):
        assert check_target_sets(targets, 1000, len(targets.p0) + 1)
        cut = dataclasses.replace(targets, budget_exhausted="deadline")
        assert not any(
            "below N_P0" in problem
            for problem in check_target_sets(cut, 1000, len(targets.p0) + 1)
        )


class TestPartitionByLengths:
    def test_three_way_split(self, s27):
        targets = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
        records = targets.all_records
        lengths = sorted({r.length for r in records}, reverse=True)
        assert len(lengths) >= 3
        subsets = partition_by_lengths(records, [lengths[0], lengths[2]])
        assert len(subsets) == 3
        assert sum(len(s) for s in subsets) == len(records)
        assert all(r.length >= lengths[0] for r in subsets[0])
        assert all(lengths[2] <= r.length < lengths[0] for r in subsets[1])
        assert all(r.length < lengths[2] for r in subsets[2])

    def test_empty_boundaries(self, s27):
        targets = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
        subsets = partition_by_lengths(targets.all_records, [])
        assert len(subsets) == 1
        assert len(subsets[0]) == len(targets.all_records)
