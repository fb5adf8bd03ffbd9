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

from .base import RunContext, TopKAlgorithm
from ..device import streaming_grid
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

    def _run(self, ctx: RunContext) -> tuple[np.ndarray, np.ndarray]:
        keys = ctx.keys
        batch, n = keys.shape
        device = ctx.device
        passes = -(-(keys.dtype.itemsize * 8) // self.digit_bits)
        grid = streaming_grid(
            device.spec,
            ctx.nominal_n,
            items_per_thread=cal.STREAM_ITEMS_PER_THREAD,
        )

        # functional result: the first k of a stable argsort are exactly
        # what an LSD radix sort of (key, index) pairs leaves at the front
        idx = stable_topk_order(keys, ctx.k).astype(np.int64, copy=False)
        key_out = np.take_along_axis(keys, idx, axis=1)

        copy_grid = streaming_grid(
            device.spec,
            ctx.nominal_k,
            items_per_thread=cal.STREAM_ITEMS_PER_THREAD,
        )
        device.allocate_workspace(8.0 * n)  # double buffer, reused per problem
        for _ in range(batch):
            # upfront histogram pass over all digits (onesweep)
            device.launch_kernel(
                "DeviceRadixSortHistogram",
                grid_blocks=grid,
                block_threads=256,
                bytes_read=4.0 * n,
                bytes_written=passes * 256 * 4.0,
                flops=cal.HISTOGRAM_OPS_PER_ELEM * n,
            )
            # one rank-and-scatter pass per digit, ping-ponging the pairs
            for p in range(passes):
                device.launch_kernel(
                    f"DeviceRadixSortOnesweep({p + 1})",
                    grid_blocks=grid,
                    block_threads=256,
                    bytes_read=8.0 * n,
                    bytes_written=8.0 * n,
                    flops=cal.SORT_PASS_OPS_PER_ELEM * n,
                )
            # gather the first k pairs
            device.launch_kernel(
                "CopyTopK",
                grid_blocks=copy_grid,
                block_threads=256,
                bytes_read=8.0 * ctx.k,
                bytes_written=8.0 * ctx.k,
                flops=2.0 * ctx.k,
            )
        device.free_workspace(8.0 * n)
        return key_out, idx
