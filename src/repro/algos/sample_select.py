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

The modelled kernel binary-searches the splitters per candidate and is
charged so; the host emulation computes no bucket ids.  A candidate's
bucket is the number of splitters at or below it, so the candidates in
buckets ``0..j`` are those below splitter ``j``: one sort of the row and
one search per splitter give its cumulative histogram, and once the
target bucket ``t`` is known, the winners are the keys below splitter
``t - 1`` and the survivors those in ``[spl[t-1], spl[t])``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .base import RunContext, RunShape
from .partition_common import BucketPartition, Flat, Frontier, Level, Rect
from ..device import Step, next_pow2
from ..perf import calibration as cal
from ..primitives import comparator_count_sort


@lru_cache(maxsize=8)
def _splitter_picks(s: int, num_buckets: int) -> np.ndarray:
    """Positions of the ``num_buckets - 1`` evenly spaced splitters in a
    sorted sample of ``s`` (read-only: every caller shares it)."""
    picks = np.linspace(0, s - 1, num_buckets + 1)[1:-1].astype(np.int64)
    picks.setflags(write=False)
    return picks


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
        sample = cand[rng.integers(0, cand.shape[0], size=s)]
        sample.sort()
        return sample[_splitter_picks(s, self.num_buckets)], s

    def _step(self, ctx: RunContext, f: Frontier, view: Rect | Flat) -> Level:
        rows = view.rows
        nb = self.num_buckets
        # the cumulative histogram from each sorted row (module docstring)
        spl = np.empty((rows.size, nb - 1), dtype=view.keys.dtype)
        psum = np.empty((rows.size, nb), dtype=np.int64)
        sample_bytes = 0.0
        sample_comparators = 0.0
        for i, (r, seg) in enumerate(zip(rows, view.per_row(view.keys))):
            spl[i], s = self._row_splitters(f.rng(r), seg)
            psum[i, :-1] = np.sort(seg).searchsorted(spl[i], side="left")
            psum[i, -1] = seg.shape[0]
            sample_bytes += 4.0 * s
            sample_comparators += comparator_count_sort(next_pow2(max(2, s)))

        def split(target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            # bucket t holds [spl[t-1], spl[t]); bucket 0 has no lower
            # bound and bucket nb-1 no upper one (keys are unsigned, so 0
            # bounds nothing from below, but no key bounds from above)
            at = np.arange(rows.size)
            lo = np.where(target > 0, spl[at, target - 1], 0)
            hi = spl[at, np.minimum(target, nb - 2)]
            win = view.keys < view.spread(lo)
            keep = view.keys < view.spread(hi)
            top = target == nb - 1
            if top.any():
                keep |= view.spread(top)
            keep &= ~win
            return win, keep

        stuck = self._split(f, view, psum, split)
        if stuck.any():  # all candidates identical: splitters cannot split
            f.retire(f.mask(rows[stuck]))
        return Level(
            rows.size, view.total,
            sample_bytes=sample_bytes, sample_comparators=sample_comparators,
        )

    def _level(self, spec, run: RunShape, level: Level) -> list[Step]:
        """One fused sample-sort launch (one block per row), then the
        bucket split."""
        sort = Step.launch(
            "SampleGatherSort",
            grid_blocks=level.rows,
            block_threads=256,
            bytes_read=level.sample_bytes,
            bytes_written=4.0 * (self.num_buckets - 1) * level.rows,
            flops=cal.OPS_PER_COMPARATOR * level.sample_comparators,
            scalable=False,  # the sample size is fixed, not O(N)
        )
        return [sort] + self._split_steps(spec, run, level.rows, level.total)
