"""Full-sort baseline: CUB-style device radix sort, then take the first k.

The paper's "Sort" baseline (Table 1) is ``cub::DeviceRadixSort`` — the
straightforward but wasteful approach of Sec. 1: sort all N pairs, keep k.
The simulated cost follows CUB's onesweep structure: one global histogram
pass over the keys plus one rank-and-scatter pass per 8-bit digit, each
moving the full key+index payload.

``cub::DeviceRadixSort::SortPairs`` is a single-problem API, so a batch is
solved with one call per problem — the same serialisation the reference
benchmark exhibits at batch size 100.
"""

from __future__ import annotations

import numpy as np

from .base import RunContext, RunShape, TopKAlgorithm
from ..device import Step, streaming_grid
from ..perf import calibration as cal
from ..primitives import stable_topk_order


class SortTopK(TopKAlgorithm):
    """Sort the whole list with radix sort and emit the first k pairs."""

    name = "sort"
    library = "CUB"
    category = "sorting"
    max_k = None
    batched_execution = False  # one DeviceRadixSort call per problem

    #: radix-sort digit width (CUB uses 8-bit digits for 32-bit keys)
    digit_bits = 8

    def _select(self, ctx: RunContext) -> tuple[np.ndarray, np.ndarray, None]:
        keys = ctx.keys
        n = keys.shape[1]
        device = ctx.device

        # functional result: the first k of a stable argsort are exactly
        # what an LSD radix sort of (key, index) pairs leaves at the front
        idx = stable_topk_order(keys, ctx.k).astype(np.int64, copy=False)
        key_out = np.take_along_axis(keys, idx, axis=1)

        device.allocate_workspace(8.0 * n)  # double buffer, reused per problem
        device.free_workspace(8.0 * n)
        return key_out, idx, None

    def schedule(self, spec, run: RunShape, counts=None) -> list[Step]:
        """Every launch of a run: one sort of ``run.key_bits``-wide keys
        per problem."""
        n, k = run.n, run.k
        passes = -(-run.key_bits // self.digit_bits)
        grid = streaming_grid(
            spec, run.nominal_n, items_per_thread=cal.STREAM_ITEMS_PER_THREAD
        )
        stream = dict(grid_blocks=grid, block_threads=256)
        # upfront histogram pass over all digits (onesweep)
        sort = [Step.launch(
            "DeviceRadixSortHistogram", **stream, bytes_read=4.0 * n,
            bytes_written=passes * 256 * 4.0, flops=cal.HISTOGRAM_OPS_PER_ELEM * n,
        )]
        # one rank-and-scatter pass per digit, ping-ponging the pairs
        sort += [
            Step.launch(
                f"DeviceRadixSortOnesweep({p + 1})", **stream,
                bytes_read=8.0 * n, bytes_written=8.0 * n,
                flops=cal.SORT_PASS_OPS_PER_ELEM * n,
            )
            for p in range(passes)
        ]
        # gather the first k pairs
        copy_grid = streaming_grid(
            spec, run.nominal_k, items_per_thread=cal.STREAM_ITEMS_PER_THREAD
        )
        sort.append(Step.launch(
            "CopyTopK", grid_blocks=copy_grid, block_threads=256,
            bytes_read=8.0 * k, bytes_written=8.0 * k, flops=2.0 * k,
        ))
        return sort * run.batch
