"""Bucketed approximate top-k (Key et al., "Approximate Top-k for
Increased Parallelism").

Split the input into ``b`` buckets, take the exact top-``k'`` of each
bucket fully in parallel (``k' = ceil(k / b)``, usually 1), and merge
the ``b * k'`` survivors.  A true top-k element is missed only when it
shares a bucket with ``k'`` or more better top-k elements, so recall is
governed by the hypergeometric bucket-occupancy model: with ``b`` a
multiple of ``k``, roughly ``E[1 - recall] ~= k / (2b)``.  The default
``b = 16k`` sits at ~0.97 expected recall while reading the input
exactly once — the cheap, parallelism-maximising end of the approximate
Pareto front.
"""

from __future__ import annotations

from ..approx import plan_buckets
from .approx_base import PartitionApproxTopK

#: default bucket-to-k ratio (recall ~0.97 under the occupancy model)
DEFAULT_BUCKET_RATIO = 16


class BucketApproxTopK(PartitionApproxTopK):
    """Approximate top-k via per-bucket exact top-``k'`` and a merge."""

    name = "bucket_approx"
    library = "approx-top-k (Key et al.)"
    kernel_stage1 = "ApproxBucketTopK"
    kernel_stage2 = "ApproxBucketMerge"

    def __init__(self, *, buckets: int | None = None) -> None:
        if buckets is not None and int(buckets) < 1:
            raise ValueError(f"buckets must be >= 1, got {buckets}")
        self.buckets = None if buckets is None else int(buckets)

    def plan(self, n: int, k: int) -> tuple[int, int]:
        requested = self.buckets or DEFAULT_BUCKET_RATIO * k
        return plan_buckets(n, k, requested)
