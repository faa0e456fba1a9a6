"""Retry policy with exponential backoff, deterministic jitter and a cap.

The ``repro serve`` supervisor is the one retry owner: the parallel
runner runs each circuit once, and a pass with a failed circuit is
retried whole, resuming from the job's checkpoints.
:class:`RetryPolicy` says how often and how soon:

* **exponential backoff** -- the ``k``-th retry waits
  ``base_delay * multiplier**(k-1)`` seconds;
* **cap** -- the wait never exceeds ``max_delay``, so a deep retry
  budget cannot stall the daemon for hours;
* **jitter** -- the wait is perturbed by up to ``+-jitter`` (fraction),
  decorrelating retries of different jobs.  The perturbation is
  *deterministic* -- derived by hashing the job key and attempt number
  -- so tests (and reruns of the same failing job) see reproducible
  waits without any RNG state;
* **retry budget** -- ``max_retries`` extra attempts after the first,
  after which the failure is final and the job degrades.

The policy is a frozen value object, and ``spec()``/``from_spec()``
round-trip it through JSON envelopes (the ``retry`` params of queued
service jobs).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

__all__ = ["RetryPolicy"]


def _jitter_fraction(key: str, attempt: int) -> float:
    """Deterministic pseudo-random fraction in ``[-1, 1)`` per (key, attempt)."""
    digest = hashlib.blake2b(
        f"{key}#{attempt}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big") / float(1 << 64) * 2.0 - 1.0


@dataclass(frozen=True)
class RetryPolicy:
    """How failed work is retried: budget, backoff curve, jitter.

    ``max_retries`` is the retry *budget*: extra attempts after the
    first (0 = never retry).  ``delay(attempt)`` is the wait before
    retry number ``attempt`` (1-based); attempt 0 -- the first try --
    never waits.
    """

    max_retries: int = 1
    base_delay: float = 0.25
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.multiplier < 1:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if self.max_delay < 0:
            raise ValueError(f"max_delay must be >= 0, got {self.max_delay}")
        if not 0 <= self.jitter <= 1:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt: int, key: str = "") -> float:
        """Seconds to wait before retry ``attempt`` (1-based) of ``key``.

        Exponential in ``attempt``, capped at :attr:`max_delay`, then
        jittered by the deterministic per-``(key, attempt)`` fraction.
        ``attempt <= 0`` (the first try) waits nothing.
        """
        if attempt <= 0 or self.base_delay <= 0:
            return 0.0
        raw = min(
            self.base_delay * self.multiplier ** (attempt - 1), self.max_delay
        )
        if self.jitter:
            raw *= 1.0 + self.jitter * _jitter_fraction(key, attempt)
        return max(0.0, min(raw, self.max_delay))

    def spec(self) -> dict:
        """JSON-ready parameter envelope (see :meth:`from_spec`)."""
        return {
            "max_retries": self.max_retries,
            "base_delay": self.base_delay,
            "multiplier": self.multiplier,
            "max_delay": self.max_delay,
            "jitter": self.jitter,
        }

    @classmethod
    def from_spec(cls, payload: dict) -> "RetryPolicy":
        """Rebuild a policy from :meth:`spec` (unknown keys ignored)."""
        fields = ("max_retries", "base_delay", "multiplier", "max_delay", "jitter")
        return cls(**{name: payload[name] for name in fields if name in payload})
