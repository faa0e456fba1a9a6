"""Tests for sampling-based coverage estimation."""

from repro import enrich_circuit, prepare_targets
from repro.experiments import CoverageEstimate, estimate_coverage


class TestCoverageEstimate:
    def test_empty_test_set_detects_nothing(self, s27):
        estimate = estimate_coverage(s27, [], samples=50, seed=1)
        assert estimate.detected == 0
        assert estimate.detected_fraction == 0.0
        assert estimate.sampled_faults == 100

    def test_fractions_bounded(self, s27):
        targets = prepare_targets(s27, max_faults=1000, p0_min_faults=20)
        report = enrich_circuit(s27, targets=targets, seed=2)
        estimate = estimate_coverage(
            s27, report.result.test_vectors, samples=100, seed=1
        )
        assert 0.0 <= estimate.detected_fraction <= 1.0
        assert 0.0 <= estimate.undetectable_fraction <= 1.0
        assert estimate.detectable_coverage >= estimate.detected_fraction
        assert estimate.total_paths == 28

    def test_enrichment_improves_population_estimate(self, s27):
        """The enriched test set's whole-population coverage estimate must
        be at least the basic set's (same sampled faults, superset-ish
        detection)."""
        from repro import basic_atpg_circuit

        targets = prepare_targets(s27, max_faults=1000, p0_min_faults=20)
        basic = basic_atpg_circuit(s27, heuristic="values", targets=targets, seed=2)
        enriched = enrich_circuit(s27, targets=targets, seed=2)
        base = estimate_coverage(s27, basic.test_vectors, samples=150, seed=9)
        enr = estimate_coverage(
            s27, enriched.result.test_vectors, samples=150, seed=9
        )
        assert enr.detected >= base.detected - 5  # same sample, small slack

    def test_confidence_interval(self):
        estimate = CoverageEstimate(
            sampled_faults=400, detected=100, undetectable=40, total_paths=1000
        )
        low, high = estimate.confidence_interval()
        assert low < 0.25 < high
        assert 0.0 <= low and high <= 1.0

    def test_str_mentions_population(self, s27):
        estimate = estimate_coverage(s27, [], samples=20, seed=0)
        assert "28 paths" in str(estimate)

    def test_zero_samples(self, s27):
        estimate = estimate_coverage(s27, [], samples=0, seed=0)
        assert estimate.detected_fraction == 0.0
        assert estimate.confidence_interval() == (0.0, 0.0)
