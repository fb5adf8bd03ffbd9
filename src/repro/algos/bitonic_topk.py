"""Bitonic Top-K (Shanbhag, Pirk, Madden) — partial sorting by halving.

The input is cut into runs of ``k`` elements, each locally sorted; pairs of
sorted runs are then repeatedly reduced to the k smaller of their union
(one butterfly stage over the concatenation of one run with the reverse of
the other, then a bitonic merge to re-sort), halving the data every phase
until one run remains.  Workload per phase is half the previous one, giving
the ~2N total the paper quotes, but every comparator depends on ``log^2 k``
network stages, which is why the method's running time climbs steeply with
k in Fig. 6 and why the published implementation caps k at 256.
"""

from __future__ import annotations

import numpy as np

from .base import RunContext, RunShape, TopKAlgorithm
from .queue_common import sentinel_for
from ..device import Step, next_pow2, streaming_grid
from ..perf import calibration as cal
from ..primitives import (
    comparator_count_merge,
    comparator_count_sort,
    merge_select_lower_with_payload,
    stable_sort,
)


class BitonicTopK(TopKAlgorithm):
    """DrTopK-library Bitonic Top-K (k <= 256)."""

    name = "bitonic_topk"
    library = "DrTopK"
    category = "partial sorting"
    max_k = 256
    batched_execution = False  # the reference kernel handles one problem

    def _select(self, ctx: RunContext) -> tuple[np.ndarray, np.ndarray, None]:
        batch, n = ctx.keys.shape
        kp = next_pow2(ctx.k)  # the network works on power-of-two runs
        runs = -(-n // kp)
        padded_len = runs * kp

        sentinel = sentinel_for(ctx.keys.dtype)
        keys = np.full((batch, padded_len), sentinel, dtype=ctx.keys.dtype)
        keys[:, :n] = ctx.keys

        # phase 0: locally sort every run of kp elements; the argsort is
        # each key's position in its run, so its index is run * kp + that
        keys, idx = stable_sort(keys.reshape(batch, runs, kp))
        idx += np.arange(0, padded_len, kp)[:, None]
        idx[idx >= n] = -1

        # merge-reduce phases: pair runs, keep the k smaller, re-sort
        while keys.shape[1] > 1:
            m = keys.shape[1]
            if m % 2:
                pad_k = np.full((batch, 1, kp), sentinel, dtype=keys.dtype)
                pad_i = np.full((batch, 1, kp), -1, dtype=np.int64)
                keys = np.concatenate([keys, pad_k], axis=1)
                idx = np.concatenate([idx, pad_i], axis=1)
                m += 1
            a_k = keys[:, 0::2].reshape(-1, kp)
            a_i = idx[:, 0::2].reshape(-1, kp)
            b_k = keys[:, 1::2].reshape(-1, kp)
            b_i = idx[:, 1::2].reshape(-1, kp)
            low_k, low_i, _ = merge_select_lower_with_payload(a_k, a_i, b_k, b_i)
            # ties stay in run position order, which is not index order
            low_k, order = stable_sort(low_k)
            low_i = np.take_along_axis(low_i, order, axis=1)
            keys = low_k.reshape(batch, m // 2, kp)
            idx = low_i.reshape(batch, m // 2, kp)

        return keys[:, 0, : ctx.k], idx[:, 0, : ctx.k], None

    def schedule(self, spec, run: RunShape, counts=None) -> list[Step]:
        """Every launch of a run: the local sort, then a merge-reduce per
        phase until one run is left, each launched once per row (the
        reference kernel handles one row), phase by phase."""
        kp = next_pow2(run.k)  # the network works on power-of-two runs
        runs = -(-run.n // kp)
        work = dict(
            block_threads=256, fixed_dependent_cycles=cal.BITONIC_KERNEL_FIXED_CYCLES
        )
        launches = [Step.launch(
            "BitonicLocalSort", **work,
            grid_blocks=streaming_grid(spec, run.nominal_n, items_per_thread=4),
            bytes_read=4.0 * run.n, bytes_written=8.0 * run.n,
            flops=cal.BITONIC_OPS_PER_COMPARATOR * (runs * comparator_count_sort(kp)),
        )] * run.batch
        # each phase pairs the runs (an odd one with padding), halving them
        phase = 0
        while runs > 1:
            pairs, phase = (runs + 1) // 2, phase + 1
            elems = pairs * 2 * kp
            nominal = max(1, int(elems * run.scale))  # nominal phase size
            launches += [Step.launch(
                f"BitonicMergeReduce({phase})", **work,
                grid_blocks=streaming_grid(spec, nominal, items_per_thread=4),
                bytes_read=8.0 * elems, bytes_written=8.0 * elems / 2,
                flops=cal.BITONIC_OPS_PER_COMPARATOR
                * (pairs * (kp + comparator_count_merge(kp))),
            )] * run.batch
            runs = pairs
        return launches
