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
with ``np.partition`` and reads each pass's target from it.  Each row
records what its steps read (:class:`RadixRow`); the run charges their
:meth:`RadixSelect.schedule` once, the predictor replays it.
"""

from __future__ import annotations

from functools import cache
from typing import NamedTuple

import numpy as np

from .base import RunContext, RunShape, TopKAlgorithm
from .partition_common import stream_grid
from ..device import Step
from ..perf import calibration as cal
from ..primitives import digit_layout, partition_three_way


class RadixRow(NamedTuple):
    """What one row's steps read of a run (:meth:`RadixSelect.schedule`)."""

    #: the row's length
    n: float
    #: per digit pass: its candidates, and the winners + survivors its
    #: filter scatters (None when the pass skips the filter)
    passes: tuple[tuple[float, float | None], ...]
    #: results the row still owes at the final gather
    owed: float


class RadixSelect(TopKAlgorithm):
    """DrTopK-style host-coordinated radix top-k (8-bit digits)."""

    name = "radix_select"
    library = "DrTopK"
    category = "partition-based"
    max_k = None
    batched_execution = False  # reference code solves one problem at a time

    digit_bits = 8

    def schedule(
        self, spec, run: RunShape, counts: tuple[RadixRow, ...]
    ) -> list[Step]:
        """Every step of a run, row by row: the workspace allocation and
        index init, each digit pass's histogram, host round trip and
        filter, then the gather of the results still owed.  Rows repeat
        each other's steps, so each distinct step list is built once."""
        layout = digit_layout(run.key_bits, self.digit_bits)
        # the host scans each histogram and finds the target digit
        round_trip = [
            Step.host("host_scan", cal.HOST_RADIX_ITER_SECONDS),
            Step.h2d("MemcpyHtoD(params)", 64.0),
        ]
        sync_hist, sync_filter = Step.sync("sync_hist"), Step.sync("sync_filter")

        def launch(name: str, count: float, **work) -> Step:
            grid = stream_grid(spec, run, count)
            return Step.launch(name, grid_blocks=grid, block_threads=256, **work)

        @cache
        def head(n: float) -> list[Step]:
            # per-problem workspace allocation (cudaMalloc/cudaFree pair); the
            # reference code materialises the index array up front and
            # carries (value, index) pairs through every iteration
            return [
                Step.host("cudaMalloc", cal.HOST_ALLOC_SECONDS),
                launch("IndexInit", n, bytes_written=4.0 * n, flops=1.0 * n),
            ]

        @cache
        def histogram(p: int, count: float) -> list[Step]:
            # histograms only touch the values; the filter moves the pairs
            hist_bytes = layout[p].num_buckets * 4.0
            return [
                launch(
                    "CalculateOccurrence", count, bytes_read=4.0 * count,
                    bytes_written=hist_bytes, flops=cal.HISTOGRAM_OPS_PER_ELEM * count,
                ),
                sync_hist,
                Step.d2h("MemcpyDtoH(hist)", hist_bytes),
                *round_trip,
            ]

        @cache
        def filter_(count: float, scattered: float) -> list[Step]:
            return [
                launch(
                    "Filter", count, bytes_read=8.0 * count,
                    bytes_written=cal.SCATTER_WRITE_PENALTY * 8.0 * scattered,
                    flops=cal.FILTER_OPS_PER_ELEM * count,
                ),
                sync_filter,
            ]

        @cache
        def gather(owed: float) -> list[Step]:
            return [
                launch(
                    "LastGather", owed, bytes_read=8.0 * owed,
                    bytes_written=8.0 * owed, flops=2.0 * owed,
                ),
                Step.sync("sync_final"),
            ]

        steps = []
        for row in counts:
            steps += head(row.n)
            for p, (count, scattered) in enumerate(row.passes):
                steps += histogram(p, count)
                if scattered is not None:
                    steps += filter_(count, scattered)
            steps += gather(row.owed)
        return steps

    def _select(
        self, ctx: RunContext
    ) -> tuple[np.ndarray, np.ndarray, tuple[RadixRow, ...]]:
        keys, idx, rows = zip(*(self._select_row(ctx, row) for row in ctx.keys))
        return np.stack(keys), np.stack(idx), rows

    def _select_row(
        self, ctx: RunContext, row_keys: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, RadixRow]:
        device = ctx.device
        n = row_keys.shape[0]
        kth = np.partition(row_keys, ctx.k - 1)[ctx.k - 1]
        cand_keys = row_keys
        cand_idx = np.arange(n, dtype=np.int64)
        k_rem = ctx.k
        won_keys, won_idx, passes = [], [], []
        device.allocate_workspace(4.0 * n)
        for dpass in digit_layout(row_keys.dtype.itemsize * 8, self.digit_bits):
            count = cand_keys.shape[0]
            digits = dpass.extract(cand_keys)
            target = int(dpass.extract(kth))
            winners, survivors = partition_three_way(
                cand_keys, cand_idx, digits, target
            )
            # k_rem stays >= 1: the winners always leave rank k_rem out
            if not winners.count < k_rem <= winners.count + survivors.count:
                raise AssertionError(
                    f"pass {dpass.index}: target digit {target} holds ranks "
                    f"{winners.count + 1}..{winners.count + survivors.count}, "
                    f"not rank {k_rem}"
                )
            if winners.count == 0 and survivors.count == count:
                # the target bucket holds everything: filtering would copy
                # the list onto itself, so the reference code skips it
                passes.append((count, None))
                continue
            passes.append((count, winners.count + survivors.count))
            device.allocate_workspace(8.0 * survivors.count)
            won_keys.append(winners.keys)
            won_idx.append(winners.indices)
            k_rem -= winners.count
            cand_keys, cand_idx = survivors.keys, survivors.indices

        # remaining candidates share every examined digit: any k_rem do
        won_keys.append(cand_keys[:k_rem])
        won_idx.append(cand_idx[:k_rem])
        row = RadixRow(n, tuple(passes), k_rem)
        return np.concatenate(won_keys), np.concatenate(won_idx), row

