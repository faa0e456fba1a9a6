"""Tests for generation result containers."""

import pytest

from repro.atpg import AtpgConfig, generate_basic
from repro.atpg.justify import JustifyStats
from repro.faults import build_target_sets
from repro.sim import TwoPatternTest


@pytest.fixture(scope="module")
def result(s27):
    targets = build_target_sets(s27, max_faults=1000, p0_min_faults=20)
    return generate_basic(
        s27, targets.p0, AtpgConfig(heuristic="values", seed=9)
    )


class TestGeneratedTest:
    def test_counts(self, result):
        generated = result.tests[0]
        assert generated.num_targeted == len(generated.targeted)
        assert generated.num_detected == len(generated.detected)
        assert generated.num_targeted >= 1
        assert generated.primary in generated.targeted


class TestGenerationResult:
    def test_totals(self, result):
        assert result.total_faults == len(result.pools[0])
        assert result.total_detected == result.detected_by_pool[0]
        assert result.detected_in_pool(0) == result.detected_by_pool[0]

    def test_test_vectors_order(self, result):
        vectors = result.test_vectors
        assert len(vectors) == result.num_tests
        assert all(isinstance(v, TwoPatternTest) for v in vectors)
        assert vectors == [t.test for t in result.tests]

    def test_runtime_and_stats(self, result):
        assert result.runtime_seconds > 0
        assert isinstance(result.justify_stats, JustifyStats)
        assert result.justify_stats.simulations > 0

    def test_aborted_plus_primaries_bounded(self, result):
        # Every test has a distinct primary; aborted primaries were tried
        # but failed, so (tests + aborted) <= |P0|.
        assert result.num_tests + result.aborted_primaries <= result.total_faults

    def test_secondary_counters(self, result):
        assert result.secondary_successes <= result.secondary_attempts
