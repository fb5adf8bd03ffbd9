"""Host-coordinated RadixSelect — the baseline AIR Top-K improves on.

This models the DrTopK-library RadixSelect the paper benchmarks (Table 1):
MSD radix selection with 8-bit digits where, after every device-side
histogram, the host copies the histogram down over PCIe, scans it, finds the
target digit and launches the filtering kernel with the result.  That
per-iteration host round trip — PCIe copies, CPU processing, stream
synchronisation — is precisely the overhead shown as white space in the
paper's Fig. 8 timeline and removed by AIR's iteration-fused design.

Each problem in a batch is solved serially, as the reference single-problem
implementation does; this is the source of AIR's up-to-574x batch-100
speedup (Table 2).

Host emulation.  The digit the host's search picks in every pass is that
digit of the row's k-th smallest key (the argument is in
:mod:`repro.core.air_topk`), so the emulation finds that key once per row
with ``np.partition`` and reads each pass's target from it.  The device's
histogram kernel, the copies and the host scan are still charged.
"""

from __future__ import annotations

import numpy as np

from .base import RunContext, TopKAlgorithm
from ..device import streaming_grid
from ..perf import calibration as cal
from ..primitives import digit_layout, partition_three_way


class RadixSelect(TopKAlgorithm):
    """DrTopK-style host-coordinated radix top-k (8-bit digits)."""

    name = "radix_select"
    library = "DrTopK"
    category = "partition-based"
    max_k = None
    batched_execution = False  # reference code solves one problem at a time

    digit_bits = 8

    def _run(self, ctx: RunContext) -> tuple[np.ndarray, np.ndarray]:
        batch, n = ctx.keys.shape
        out_keys = np.empty((batch, ctx.k), dtype=ctx.keys.dtype)
        out_idx = np.empty((batch, ctx.k), dtype=np.int64)
        for row in range(batch):
            rk, ri = self._select_row(ctx, ctx.keys[row])
            out_keys[row] = rk
            out_idx[row] = ri
        return out_keys, out_idx

    def _select_row(
        self, ctx: RunContext, row_keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        device = ctx.device
        scale = device.scale
        n = row_keys.shape[0]
        kth = np.partition(row_keys, ctx.k - 1)[ctx.k - 1]
        cand_keys = row_keys
        cand_idx = np.arange(n, dtype=np.int64)
        k_rem = ctx.k
        won_keys: list[np.ndarray] = []
        won_idx: list[np.ndarray] = []

        # per-problem workspace allocation (cudaMalloc/cudaFree pair)
        device.host_compute("cudaMalloc", cal.HOST_ALLOC_SECONDS)
        # the reference code materialises the index array up front and
        # carries (value, index) pairs through every iteration
        device.launch_kernel(
            "IndexInit",
            grid_blocks=streaming_grid(
                device.spec,
                max(1, int(n * scale)),
                items_per_thread=cal.STREAM_ITEMS_PER_THREAD,
            ),
            block_threads=256,
            bytes_written=4.0 * n,
            flops=1.0 * n,
        )
        device.allocate_workspace(4.0 * n)

        key_width = row_keys.dtype.itemsize * 8
        for dpass in digit_layout(key_width, self.digit_bits):
            count = cand_keys.shape[0]
            if k_rem == 0:
                break
            # histograms only touch the values; the filter moves the pairs
            elem_bytes = 8.0
            grid = streaming_grid(
                device.spec,
                max(1, int(count * scale)),
                items_per_thread=cal.STREAM_ITEMS_PER_THREAD,
            )
            digits = dpass.extract(cand_keys)
            device.launch_kernel(
                "CalculateOccurrence",
                grid_blocks=grid,
                block_threads=256,
                bytes_read=4.0 * count,
                bytes_written=dpass.num_buckets * 4.0,
                flops=cal.HISTOGRAM_OPS_PER_ELEM * count,
            )
            device.synchronize("sync_hist")
            device.memcpy_d2h("MemcpyDtoH(hist)", dpass.num_buckets * 4.0)
            # host scans the histogram and finds the target digit
            device.host_compute("host_scan", cal.HOST_RADIX_ITER_SECONDS)
            target = int(dpass.extract(kth))
            device.memcpy_h2d("MemcpyHtoD(params)", 64.0)

            winners, survivors = partition_three_way(
                cand_keys, cand_idx, digits, target
            )
            if not winners.count < k_rem <= winners.count + survivors.count:
                raise AssertionError(
                    f"pass {dpass.index}: target digit {target} holds ranks "
                    f"{winners.count + 1}..{winners.count + survivors.count}, "
                    f"not rank {k_rem}"
                )
            if winners.count == 0 and survivors.count == count:
                # the target bucket holds everything: filtering would copy
                # the list onto itself, so the reference code skips it
                continue
            device.launch_kernel(
                "Filter",
                grid_blocks=grid,
                block_threads=256,
                bytes_read=elem_bytes * count,
                bytes_written=cal.SCATTER_WRITE_PENALTY
                * (winners.bytes_written + survivors.bytes_written),
                flops=cal.FILTER_OPS_PER_ELEM * count,
            )
            device.allocate_workspace(8.0 * survivors.count)
            device.synchronize("sync_filter")

            won_keys.append(winners.keys)
            won_idx.append(winners.indices)
            k_rem -= winners.count
            cand_keys = survivors.keys
            cand_idx = survivors.indices

        if k_rem > 0:
            # remaining candidates share every examined digit: any k_rem do
            won_keys.append(cand_keys[:k_rem])
            won_idx.append(cand_idx[:k_rem])
            device.launch_kernel(
                "LastGather",
                grid_blocks=max(
                    1,
                    streaming_grid(device.spec, max(1, int(k_rem * scale))),
                ),
                block_threads=256,
                bytes_read=8.0 * k_rem,
                bytes_written=8.0 * k_rem,
                flops=2.0 * k_rem,
            )
            device.synchronize("sync_final")
        keys = (
            np.concatenate(won_keys)
            if won_keys
            else np.empty(0, row_keys.dtype)
        )
        idx = np.concatenate(won_idx) if won_idx else np.empty(0, np.int64)
        return keys[: ctx.k], idx[: ctx.k]
