"""BucketSelect — partition by linear value buckets (Alabi et al.).

Each iteration computes the candidate min/max on the device, splits the
value range into 256 equal-width buckets, histograms the candidates, and
keeps only the bucket containing the k-th element.  The bucket boundaries
are derived from data statistics (unlike RadixSelect's data-independent
digits, Sec. 2.2), which costs an extra reduction kernel and PCIe round
trip per iteration.

A batch runs fused (see :mod:`repro.algos.partition_common`): every
iteration runs one launch set — MinMaxReduce, BucketHistogram,
ScanBucketOffsets, BucketFilter — over all still-active rows.
"""

from __future__ import annotations

import numpy as np

from .base import RunContext, RunShape
from .partition_common import BucketPartition, Flat, Frontier, Level, Rect, stream_grid
from ..device import Step
from ..perf import calibration as cal
from ..primitives import inclusive_scan


class BucketSelect(BucketPartition):
    """GpuSelection-style BucketSelect with 256 linear buckets."""

    name = "bucket_select"
    kernel_prefix = "Bucket"
    histogram_kernel = "BucketHistogram"
    histogram_ops = cal.HISTOGRAM_OPS_PER_ELEM

    def _bucket_of(
        self, keys: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> np.ndarray:
        """Linear bucket index of each key within [lo, hi], in [0, 256).

        ``lo``/``hi`` are per-key bounds, or per-row columns broadcasting
        against 2-d ``keys``.  Computed in float64 — the
        multiply by ``num_buckets / span`` is monotone non-decreasing and
        truncation keeps it so, which is all a splitting rule needs (the
        GPU reference uses the same float bucket function); integer
        division would cost ~8x more host time for identical selections.
        """
        lo64 = np.asarray(lo, dtype=np.uint64)
        span = (np.uint64(1) + np.asarray(hi, dtype=np.uint64) - lo64).astype(
            np.float64
        )
        # a row spanning the whole uint64 range wraps its span to 0: 2^64
        scale = np.float64(self.num_buckets) / np.where(span > 0.0, span, 2.0**64)
        rel = (keys.astype(np.uint64) - lo64).astype(np.float64)
        raw = (rel * scale).astype(np.uint32)
        return np.minimum(raw, np.uint32(self.num_buckets - 1))

    def _step(self, ctx: RunContext, f: Frontier, view: Rect | Flat) -> Level:
        # one fused min/max pass over every active row, flat ones included
        minmax = dict(minmax_rows=view.rows.size, minmax_total=view.total)
        lo, hi = view.min_max()
        flat = lo == hi  # all candidates equal: any k_rem of them are results
        if flat.any():
            view = view.drop(f, flat)
            if not view.rows.size:
                return Level(0, 0, **minmax)
            lo, hi = lo[~flat], hi[~flat]
        buckets = self._bucket_of(view.keys, view.spread(lo), view.spread(hi))
        psum = inclusive_scan(view.histogram(buckets, self.num_buckets), axis=1)

        def split(target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            t = view.spread(target)
            return buckets < t, buckets == t

        self._split(f, view, psum, split)
        return Level(view.rows.size, view.total, **minmax)

    def _level(self, spec, run: RunShape, level: Level) -> list[Step]:
        """The min/max pass and its round trip, then the bucket split of
        the rows that are not flat."""
        total = level.minmax_total
        steps = [
            Step.launch(
                "MinMaxReduce",
                grid_blocks=stream_grid(spec, run, total),
                block_threads=256,
                bytes_read=4.0 * total,
                bytes_written=8.0 * level.minmax_rows,
                flops=2.0 * total,
            ),
            Step.sync("sync_minmax"),
            Step.d2h("MemcpyDtoH(minmax)", 8.0 * level.minmax_rows),
        ]
        if level.rows:
            steps += self._split_steps(spec, run, level.rows, level.total)
        return steps
