"""Analytic recall model of partition-based approximate top-k.

Both approximate algorithms in this repo share one structure: scatter the
``n`` inputs across ``parts`` disjoint partitions, keep the best ``keep``
of each partition, and select the final ``k`` from the ``parts * keep``
survivors.  A true top-k element is *lost* exactly when it lands in a
partition together with ``keep`` or more better top-k elements — every
survivor that is a true top-k element beats every non-top-k survivor, so
it always makes the final cut.

Under a random assignment of elements to partitions, the number of true
top-k elements in a partition of size ``s`` is hypergeometric
(``N = n`` items, ``K = k`` marked, ``s`` drawn without replacement), and
by linearity of expectation the dependence *between* partitions is
irrelevant:

``E[recall] = (1/k) * sum_i E[min(X_i, keep)]``,
``X_i ~ Hypergeom(n, k, s_i)``.

This is the bucket-occupancy model of Key et al. ("Approximate Top-k for
Increased Parallelism") generalized to ``keep >= 1`` per partition, which
also covers the two-stage construction of Samaga et al. ("A Faster
Generalized Two-Stage Approximate Top-K").

:func:`recall_floor` turns the expectation into the same
high-probability floor the degraded-serving path attaches
(:func:`repro.faults.recall_bound`), both through
:func:`hoeffding_floor`: recall is a mean of ``k`` bounded indicator-like
terms, so Hoeffding gives ``P[recall < E - t] <= exp(-2 k t^2)``.
"""

from __future__ import annotations

import math
from functools import lru_cache

__all__ = [
    "expected_recall",
    "hoeffding_floor",
    "partition_sizes",
    "plan_buckets",
    "plan_twostage",
    "recall_floor",
]

#: default failure probability of the high-probability recall floor —
#: matches the degraded-result contract in :mod:`repro.faults`
RECALL_DELTA = 1e-6


def _log_comb(a: int, b: int) -> float:
    """log C(a, b); ``-inf`` outside the support."""
    if b < 0 or b > a:
        return -math.inf
    return (
        math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)
    )


@lru_cache(maxsize=65536)
def _expected_min_hyper(n: int, k: int, size: int, keep: int) -> float:
    """E[min(X, keep)] with X ~ Hypergeom(N=n, K=k, draws=size).

    Uses ``min(x, c) = c - max(c - x, 0)`` so only the ``x < keep`` head
    of the pmf is ever evaluated::

        E[min(X, keep)] = keep - sum_{x < keep} (keep - x) P[X = x]
    """
    if size <= 0 or k <= 0 or keep <= 0:
        return 0.0
    log_total = _log_comb(n, size)
    head = 0.0
    for x in range(min(keep, k + 1, size + 1)):
        log_p = _log_comb(k, x) + _log_comb(n - k, size - x) - log_total
        if log_p == -math.inf:
            continue
        head += (keep - x) * math.exp(log_p)
    return keep - head


def partition_sizes(n: int, parts: int) -> list[tuple[int, int]]:
    """Partition sizes of a strided ``n``-into-``parts`` split.

    Returns ``[(size, count), ...]`` runs: the first ``n % parts``
    partitions hold ``ceil(n / parts)`` elements, the rest hold
    ``floor(n / parts)``.
    """
    if not 1 <= parts <= n:
        raise ValueError(f"parts must be in [1, n={n}], got {parts}")
    big, rem = divmod(n, parts)
    out = []
    if rem:
        out.append((big + 1, rem))
    if parts - rem:
        out.append((big, parts - rem))
    return out


def expected_recall(n: int, k: int, parts: int, keep: int) -> float:
    """Analytic E[recall] of keep-``keep``-per-partition approximate top-k.

    Assumes the positions of the true top-k are exchangeable with respect
    to the partition assignment (the algorithms randomise the assignment
    with a seeded affine permutation to make this hold for structured
    inputs).
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, n={n}], got {k}")
    total = 0.0
    for size, count in partition_sizes(n, parts):
        total += count * _expected_min_hyper(n, k, size, keep)
    return min(1.0, total / k)


def recall_floor(
    n: int, k: int, parts: int, keep: int, *, delta: float = RECALL_DELTA
) -> float:
    """High-probability recall floor: ``P[recall < floor] <= delta``.

    Hoeffding over the ``k`` per-element hit indicators:
    ``floor = max(0, E[recall] - sqrt(ln(1/delta) / (2k)))``.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    expected = expected_recall(n, k, parts, keep)
    if expected >= 1.0:
        return 1.0
    return hoeffding_floor(expected, k, delta)


def hoeffding_floor(expected: float, k: int, delta: float) -> float:
    """``max(0, expected - sqrt(ln(1/delta) / (2k)))``: the recall a mean
    of ``k`` indicators of mean ``expected`` stays above with probability
    at least ``1 - delta``.  Callers check their arguments."""
    return max(0.0, expected - math.sqrt(math.log(1.0 / delta) / (2.0 * k)))


def plan_buckets(n: int, k: int, buckets: int) -> tuple[int, int]:
    """Clamp a bucketed-approximate config to a valid ``(parts, keep)``.

    ``keep = ceil(k / parts)`` (the minimal per-bucket quota that still
    yields ``k`` candidates); the bucket count is halved until every
    bucket is large enough to honour its quota.  ``parts = 1`` always
    degenerates to the exact selection.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, n={n}], got {k}")
    parts = max(1, min(int(buckets), n))
    while True:
        keep = -(-k // parts)
        if parts == 1 or n // parts >= keep:
            return parts, keep
        parts = max(1, parts // 2)


def plan_twostage(
    n: int, k: int, partitions: int, stage_k: int | None
) -> tuple[int, int]:
    """Clamp a two-stage config to a valid ``(parts, keep)``.

    ``keep`` defaults to ``ceil(2k / parts)`` (2x oversampling versus the
    minimal quota, the knob Samaga et al. generalize beyond ``keep = 1``)
    and is never allowed below ``ceil(k / parts)``; the partition count
    is halved until every partition can honour its quota.
    """
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, n={n}], got {k}")
    parts = max(1, min(int(partitions), n))
    while True:
        keep = int(stage_k) if stage_k else -(-2 * k // parts)
        keep = max(keep, -(-k // parts))
        if parts == 1:
            return 1, min(max(keep, k), n)
        if n // parts >= keep:
            return parts, keep
        parts = max(1, parts // 2)
