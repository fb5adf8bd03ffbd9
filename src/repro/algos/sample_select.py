"""SampleSelect — splitter-based partitioning (Ribizel & Anzt).

Each iteration sorts a small random sample of the candidates on the device,
picks evenly spaced splitters from it, assigns every candidate to a bucket
by binary-searching the splitters, and recurses into the bucket containing
the k-th element.  Sampling buys well-balanced buckets at the price of the
extra sample-sort kernel and the per-element binary search (Sec. 2.2).

A batch runs fused (see :mod:`repro.algos.partition_common`): every
iteration runs one launch set — SampleGatherSort, SplitterHistogram,
ScanBucketOffsets, SampleFilter — over all still-active rows.  Splitters
stay per-row, each drawn from the row's own identically seeded stream.
A row whose candidates all land in one bucket (all equal) cannot be split
and retires to the terminal sort.
"""

from __future__ import annotations

import numpy as np

from .base import RunContext
from .partition_common import BucketPartition, Flat, Frontier, Rect
from ..device import next_pow2
from ..perf import calibration as cal
from ..primitives import comparator_count_sort


class SampleSelect(BucketPartition):
    """GpuSelection-style SampleSelect with 256 sampled splitters."""

    name = "sample_select"
    kernel_prefix = "Sample"
    histogram_kernel = "SplitterHistogram"
    histogram_ops = cal.SPLITTER_SEARCH_OPS_PER_ELEM
    sample_size = cal.SAMPLE_SIZE

    def _row_splitters(
        self, rng: np.random.Generator, cand: np.ndarray
    ) -> tuple[np.ndarray, int]:
        """Evenly spaced splitters from a sorted random sample of one row's
        candidates, drawn from that row's own ``rng``; also returns the
        sample size."""
        s = min(self.sample_size, cand.shape[0])
        sample = np.sort(cand[rng.integers(0, cand.shape[0], size=s)])
        picks = np.linspace(0, s - 1, self.num_buckets + 1)[1:-1]
        return sample[picks.astype(np.int64)], s

    def _step(self, ctx: RunContext, f: Frontier, view: Rect | Flat) -> None:
        device = ctx.device
        rows = view.rows
        nb = self.num_buckets
        buckets = np.empty(view.keys.shape, dtype=np.int64)
        sample_bytes = 0.0
        sample_comparators = 0.0
        for r, seg, out in zip(
            rows, view.per_row(view.keys), view.per_row(buckets)
        ):
            spl, s = self._row_splitters(f.rng(r), seg)
            out[...] = np.searchsorted(spl, seg, side="right")
            sample_bytes += 4.0 * s
            sample_comparators += comparator_count_sort(next_pow2(max(2, s)))
        # one fused sample-sort launch (one block per row) covers the batch
        device.launch_kernel(
            "SampleGatherSort",
            grid_blocks=rows.size,
            block_threads=256,
            bytes_read=sample_bytes,
            bytes_written=4.0 * (nb - 1) * rows.size,
            flops=cal.OPS_PER_COMPARATOR * sample_comparators,
            scalable=False,  # the sample size is fixed, not O(N)
        )
        stuck = self._split(device, f, view, buckets)
        if stuck.any():  # all candidates identical: splitters cannot split
            f.retire(f.mask(rows[stuck]))
