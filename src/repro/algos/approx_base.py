"""Shared engine of the partition-based approximate top-k algorithms.

Both approximate methods — the bucketed top-k of Key et al. and the
generalized two-stage top-k of Samaga et al. — are instances of one
scheme: scatter the input across ``parts`` partitions with a seeded
affine permutation, keep the best ``keep`` per partition in registers
during a *single* streaming pass, then run an exact top-k over the
``parts * keep`` survivors.  They differ only in how ``(parts, keep)``
is planned (and therefore where they sit on the recall/time Pareto
front), so the execution, the fused batching, and the recall annotation
live here.

A batch runs fused: one stage-1 launch streams the concatenated rows and
one stage-2 launch merges every row's survivors.  The scatter depends only
on ``(n, parts, seed)``, so each row of a batch selects exactly as a
single-shot run of that row would.  A single read of the input is the
whole point — the exact baselines are ≥2-pass — and is what the
recall-bench Pareto sweep measures.

The recall annotation is the hypergeometric occupancy model of
:mod:`repro.approx.recall`; results carry ``exact=False``, the
high-probability ``recall_bound`` floor, and the analytic
``expected_recall`` in ``meta`` — the same contract degraded sharded
results attach (docs/faults.md), so the serving layer reasons about
both uniformly.
"""

from __future__ import annotations

import numpy as np

from ..approx import (
    APPROX_WARP_EFFICIENCY,
    expected_recall,
    partition_sizes,
    recall_floor,
    stage1_workload,
    stage2_workload,
)
from ..device import Step, streaming_grid
from ..perf import calibration as cal
from ..primitives import affine_partitions, partition_topc
from .base import RunContext, RunShape, TopKAlgorithm, TopKResult


class PartitionApproxTopK(TopKAlgorithm):
    """Base class of the partitioned approximate top-k methods."""

    category = "approximate"
    exact = False
    recall_model = "hypergeometric-occupancy"
    on_the_fly = True
    #: kernel names charged for the two stages (per-method narrative)
    kernel_stage1 = "ApproxPartitionTopK"
    kernel_stage2 = "ApproxMerge"

    # ------------------------------------------------------------------ #
    # planning and recall
    # ------------------------------------------------------------------ #
    def plan(self, n: int, k: int) -> tuple[int, int]:
        """Validated ``(parts, keep)`` config for an (n, k) problem."""
        raise NotImplementedError

    def plan_is_exact(self, n: int, k: int) -> bool:
        """True when the planned config degenerates to exact selection."""
        parts, keep = self.plan(n, k)
        max_size = max(size for size, _ in partition_sizes(n, parts))
        return parts == 1 or keep >= max_size

    def expected_recall(self, n: int, k: int) -> float:
        """Analytic E[recall] of this method's planned config."""
        parts, keep = self.plan(n, k)
        return expected_recall(n, k, parts, keep)

    def recall_floor(self, n: int, k: int) -> float:
        """High-probability recall floor of this method's planned config."""
        if self.plan_is_exact(n, k):
            return 1.0
        parts, keep = self.plan(n, k)
        return recall_floor(n, k, parts, keep)

    def _finalize(self, result: TopKResult, *, n: int, k: int) -> TopKResult:
        parts, keep = self.plan(n, k)
        exact = self.plan_is_exact(n, k)
        result.exact = exact
        result.recall_bound = 1.0 if exact else recall_floor(n, k, parts, keep)
        result.meta.update(
            expected_recall=1.0 if exact else expected_recall(n, k, parts, keep),
            partitions=parts,
            keep=keep,
            recall_model=self.recall_model,
        )
        return result

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def schedule(self, spec, run: RunShape, counts=None) -> list[Step]:
        """Both stages' launches, from the shape alone: one streaming pass
        keeping each partition's best ``keep``, then one merge of every
        row's survivors.  Stage 2 consumes stage 1's device buffers on the
        same stream: no host round trip between the stages (the
        single-sync shape is the entire point of both approximate
        schemes); only the final result sync in select() is paid."""
        parts, keep = self.plan(run.n, run.k)
        batch, m = run.batch, parts * keep

        def grid(elems: int) -> int:
            return streaming_grid(
                spec, max(1, int(elems * run.scale)),
                items_per_thread=cal.STREAM_ITEMS_PER_THREAD,
            )

        return [
            Step.launch(
                self.kernel_stage1, grid_blocks=grid(batch * run.n),
                block_threads=256, warp_efficiency=APPROX_WARP_EFFICIENCY,
                **stage1_workload(run.n, parts, keep, batch),
            ),
            Step.launch(
                self.kernel_stage2, grid_blocks=grid(m * batch),
                block_threads=256, **stage2_workload(m, run.k, batch),
            ),
        ]

    def _select(self, ctx: RunContext) -> tuple[np.ndarray, np.ndarray, None]:
        parts, keep = self.plan(ctx.n, ctx.k)
        # the scatter depends only on (n, parts, seed): batched and
        # single-shot runs of the same row select identically
        order, sizes = affine_partitions(ctx.n, parts, seed=ctx.seed)
        # stage 1: one streaming pass; best-`keep` register queue per
        # partition, survivors scattered to a (batch, parts*keep) buffer
        cand_keys, cand_idx = partition_topc(ctx.keys, order, sizes, keep)
        # stage 2 is stage 1's selection over one partition of every
        # candidate: ties break toward the lower candidate column
        m = cand_keys.shape[1]
        keys, sel = partition_topc(cand_keys, np.arange(m), [m], ctx.k)
        return keys, np.take_along_axis(cand_idx, sel, axis=1), None
