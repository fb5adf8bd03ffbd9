"""Generalized two-stage approximate top-k (Samaga et al., "A Faster
Generalized Two-Stage Approximate Top-K").

Stage 1 takes the exact top-``k''`` of each of ``p`` partitions
(generalizing the classic two-stage scheme beyond ``k'' = 1``); stage 2
runs an exact top-k over the ``p * k''`` survivors.  Keeping more than
one element per partition is what buys recall: a top-k element is lost
only when ``k''`` *better* top-k elements share its partition, which is
quadratically (and beyond) less likely than a single collision.  The
default ``p = 4k, k'' = 2`` (8x survivor oversampling) sits at ~0.99
expected recall — the high-fidelity end of the approximate Pareto
front, paying a slightly larger stage-2 merge than ``bucket_approx``
for measurably fewer misses.
"""

from __future__ import annotations

from ..approx import plan_twostage
from .approx_base import PartitionApproxTopK

#: default partition-to-k ratio
DEFAULT_PARTITION_RATIO = 4
#: default per-partition quota (the k'' > 1 generalization)
DEFAULT_STAGE_K = 2


class TwoStageApproxTopK(PartitionApproxTopK):
    """Approximate top-k via per-partition top-``k''`` + exact reduce."""

    name = "twostage_approx"
    library = "approx-top-k (Samaga et al.)"
    kernel_stage1 = "TwoStagePartialTopK"
    kernel_stage2 = "TwoStageReduce"

    def __init__(
        self,
        *,
        partitions: int | None = None,
        stage_k: int | None = DEFAULT_STAGE_K,
    ) -> None:
        if partitions is not None and int(partitions) < 1:
            raise ValueError(f"partitions must be >= 1, got {partitions}")
        if stage_k is not None and int(stage_k) < 1:
            raise ValueError(f"stage_k must be >= 1, got {stage_k}")
        self.partitions = None if partitions is None else int(partitions)
        self.stage_k = None if stage_k is None else int(stage_k)

    def plan(self, n: int, k: int) -> tuple[int, int]:
        requested = self.partitions or DEFAULT_PARTITION_RATIO * k
        return plan_twostage(n, k, requested, self.stage_k)
