"""RetryPolicy: exponential backoff, deterministic jitter, caps, specs."""

import pytest

from repro.robustness import RetryPolicy


class TestValidation:
    def test_defaults_are_valid(self):
        policy = RetryPolicy()
        assert policy.max_retries == 1
        assert policy.base_delay > 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_retries": -1},
            {"base_delay": -0.1},
            {"multiplier": 0.5},
            {"max_delay": -1.0},
            {"jitter": 1.5},
            {"jitter": -0.1},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            RetryPolicy(**kwargs)


class TestDelays:
    def test_first_attempt_never_waits(self):
        assert RetryPolicy().delay(0) == 0.0

    def test_exponential_growth(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=2.0, jitter=0.0, max_delay=100.0)
        assert policy.delay(1) == 1.0
        assert policy.delay(2) == 2.0
        assert policy.delay(3) == 4.0

    def test_cap_bounds_every_delay(self):
        policy = RetryPolicy(
            max_retries=20, base_delay=1.0, multiplier=3.0, max_delay=5.0, jitter=0.1
        )
        for attempt in range(1, 21):
            assert policy.delay(attempt, "job") <= 5.0

    def test_jitter_is_deterministic_per_key_and_attempt(self):
        policy = RetryPolicy(base_delay=1.0, jitter=0.5)
        assert policy.delay(1, "a") == policy.delay(1, "a")
        # Different keys decorrelate (thundering-herd avoidance).
        assert policy.delay(1, "a") != policy.delay(1, "b")

    def test_jitter_stays_within_fraction(self):
        policy = RetryPolicy(base_delay=1.0, multiplier=1.0, jitter=0.1, max_delay=10.0)
        for key in ("s27", "b03_proxy#0", "x"):
            assert 0.9 <= policy.delay(1, key) <= 1.1


class TestSpecRoundTrip:
    def test_spec_round_trips(self):
        policy = RetryPolicy(
            max_retries=4, base_delay=0.5, multiplier=1.5, max_delay=9.0, jitter=0.2
        )
        assert RetryPolicy.from_spec(policy.spec()) == policy

    def test_from_spec_ignores_unknown_keys(self):
        assert RetryPolicy.from_spec(
            {"max_retries": 2, "someday": True}
        ) == RetryPolicy(max_retries=2)
