"""The recovery policies the injected faults exercise.

Four small, independently testable pieces:

* :class:`RetryPolicy` — capped exponential backoff for per-shard and
  per-batch retries;
* :class:`HedgePolicy` — hedged duplicate dispatch for stragglers past a
  latency quantile of their sibling shards;
* :class:`CircuitBreaker` — trip the result cache after repeated
  corruption, bypass it for a cooldown, then probe half-open;
* :func:`recall_bound` — the degraded-result contract: the recall
  guarantee a lossy shard merge reports alongside its answer.

All time arithmetic is in the repository's simulated-seconds domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..approx.recall import hoeffding_floor


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to re-attempt a failed operation, and how long to
    wait (in virtual time) before each retry."""

    retries: int = 2
    backoff_base_s: float = 1e-4
    backoff_cap_s: float = 1e-2

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries must be >= 0, got {self.retries}")

    @property
    def attempts(self) -> int:
        return 1 + self.retries

    def backoff(self, attempt: int) -> float:
        """Delay before re-running after failed attempt ``attempt`` (0-based)."""
        return min(self.backoff_cap_s, self.backoff_base_s * (2.0**attempt))


@dataclass(frozen=True)
class HedgePolicy:
    """Duplicate-dispatch policy for stragglers.

    A shard whose completion time exceeds ``factor`` times the
    ``quantile`` of its sibling shards' times gets a hedge: a duplicate
    dispatched at that threshold, racing the original.  The shard's
    effective time is ``min(original, threshold + duplicate)``.  Hedging
    never changes results — the duplicate computes the same pure
    function — and is a provable no-op when nothing is inflated:
    ``min(t, threshold + t) == t``.
    """

    quantile: float = 0.5
    factor: float = 3.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.quantile <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {self.quantile}")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")

    def threshold(self, times_s: list[float]) -> float:
        """Dispatch a hedge for anything slower than this, seconds."""
        if not times_s:
            return math.inf
        ordered = sorted(times_s)
        pos = self.quantile * (len(ordered) - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        q = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
        return q * self.factor


class CircuitBreaker:
    """Trip after ``threshold`` consecutive failures; bypass for
    ``cooldown_s`` of virtual time; then allow one half-open probe.

    A success in closed or half-open state resets the failure count and
    closes the breaker.  ``allow(now_s)`` says whether the protected
    resource may be used at virtual time ``now_s``.
    """

    def __init__(self, *, threshold: int = 3, cooldown_s: float = 0.25) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown_s < 0:
            raise ValueError(f"cooldown_s must be >= 0, got {cooldown_s}")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self.failures = 0
        self.opened_at_s: float | None = None
        #: lifetime trip count, for metrics
        self.trips = 0

    @property
    def state(self) -> str:
        return "open" if self.opened_at_s is not None else "closed"

    def allow(self, now_s: float) -> bool:
        if self.opened_at_s is None:
            return True
        if now_s - self.opened_at_s >= self.cooldown_s:
            return True  # half-open: let one probe through
        return False

    def record_success(self) -> None:
        self.failures = 0
        self.opened_at_s = None

    def record_failure(self, now_s: float) -> bool:
        """Count one failure; returns True when this failure trips the
        breaker open (or re-opens it from half-open)."""
        self.failures += 1
        if self.opened_at_s is not None:
            # failed half-open probe: restart the cooldown
            self.opened_at_s = now_s
            return True
        if self.failures >= self.threshold:
            self.opened_at_s = now_s
            self.trips += 1
            return True
        return False


def recall_bound(
    k: int, n_total: int, n_lost: int, *, delta: float = 1e-6
) -> tuple[float, float]:
    """The degraded-result contract: ``(coverage, bound)``.

    When a shard merge loses ``n_lost`` of ``n_total`` candidate
    elements, each of the true top-k elements survives with probability
    ``coverage = 1 - n_lost / n_total`` under the exchangeability
    assumption (element values independent of their shard placement — the
    bounded-error regime of Key et al.'s approximate top-k).  Recall over
    the k slots then concentrates around ``coverage``; Hoeffding gives
    the reported high-probability floor::

        recall >= coverage - sqrt(ln(1/delta) / (2 k))   w.p. >= 1 - delta

    clamped to [0, coverage].  Adversarially placed data can break any
    nonzero deterministic bound (all of the top-k may sit in the lost
    shard), which is why the contract is probabilistic and why degraded
    results are flagged rather than silently returned.
    """
    if not 1 <= k:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0 <= n_lost <= n_total:
        raise ValueError(f"n_lost must be in [0, n_total], got {n_lost}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    coverage = 1.0 - (n_lost / n_total if n_total else 0.0)
    return coverage, hoeffding_floor(coverage, k, delta)
