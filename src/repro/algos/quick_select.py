"""QuickSelect — single-pivot partition-based selection (GpuSelection library).

Each iteration partitions the candidates around one pivot and recurses into
the side containing the k-th element.  The host inspects the partition
counts after every iteration (a PCIe round trip, like all GpuSelection
methods) and stops when the candidate set fits a single-block terminal sort.
Worst-case O(N^2) if pivots are unlucky (Sec. 2.2); median-of-3 sampling
makes that astronomically unlikely on the benchmark's distributions.

A batch runs fused (see :mod:`repro.algos.partition_common`): every
recursion level runs one launch set — QuickSelectCount,
QuickSelectScatter — over all still-active rows.  Pivots stay per-row,
each drawn from the row's own identically seeded stream.
"""

from __future__ import annotations

import numpy as np

from .base import RunContext, RunShape
from .partition_common import Flat, Frontier, Level, PartitionSelect, Rect, stream_grid
from ..device import Step
from ..perf import calibration as cal


class QuickSelect(PartitionSelect):
    """GpuSelection-style QuickSelect with host-side pivot control."""

    name = "quick_select"
    kernel_prefix = "QuickSelect"
    max_iterations = 128  # pathological pivot sequences

    def _level(self, spec, run: RunShape, level: Level) -> list[Step]:
        """One fused recursion level: the reference code runs a counting
        pass, fetches the counts, then launches the scatter pass; then one
        batch-sized PCIe round trip, host pivots."""
        total, rows = level.total, level.rows
        stream = dict(grid_blocks=stream_grid(spec, run, total), block_threads=256)
        return [
            Step.launch(
                "QuickSelectCount",
                **stream,
                bytes_read=4.0 * total,
                bytes_written=8.0 * rows,
                flops=2.0 * total,
            ),
            Step.sync("sync_count"),
            Step.launch(
                "QuickSelectScatter",
                **stream,
                bytes_read=8.0 * total,
                bytes_written=cal.SCATTER_WRITE_PENALTY * 8.0 * total,
                flops=cal.PARTITION_OPS_PER_ELEM * total,
            ),
            Step.sync("sync_partition"),
            Step.d2h("MemcpyDtoH(counts)", 8.0 * rows),
            Step.host("host_pivot", cal.HOST_PIVOT_SECONDS * rows),
        ]

    def _step(self, ctx: RunContext, f: Frontier, view: Rect | Flat) -> Level:
        rows = view.rows
        level = Level(rows.size, view.total)
        # per-row median-of-3 pivots, each drawn host-side from its row's
        # own stream
        pivots = np.empty(rows.size, dtype=view.keys.dtype)
        for i, (r, seg) in enumerate(zip(rows, view.per_row(view.keys))):
            picks = seg[f.rng(r).integers(0, seg.shape[0], size=3)]
            pivots[i] = np.sort(picks)[1]
        pivot = view.spread(pivots)
        lt = view.keys < pivot
        n_lt = view.row_sum(lt)

        kr = f.k_rem[rows]
        case_a = kr <= n_lt  # recurse into the < side
        if case_a.all():
            # common regime (small k): every row recurses into the < side;
            # the tie masks are never needed
            f.rows, f.keys, f.idx = view.take(lt)
            f.count[rows] = n_lt
            return level
        eq = view.keys == pivot
        n_eq = view.row_sum(eq)
        case_b = ~case_a & (kr <= n_lt + n_eq)  # pivot ties finish the row
        case_c = ~case_a & ~case_b  # recurse into the > side
        # winners: the < side of B/C rows, then the tie elements each row
        # still needs (all of them for C, the first ``take`` for B)
        win_lt = lt & view.spread(case_b | case_c)
        if win_lt.any():
            f.emit(*view.take(win_lt))
        take = np.where(case_b, kr - n_lt, np.where(case_c, n_eq, 0))
        win_eq = view.first(eq, take)
        if win_eq.any():
            f.emit(*view.take(win_eq))
        f.k_rem[rows[case_b]] = 0
        f.k_rem[rows[case_c]] -= (n_lt + n_eq)[case_c]
        keep = (view.spread(case_a) & lt) | (view.spread(case_c) & ~(lt | eq))
        f.rows, f.keys, f.idx = view.take(keep)
        rest = f.count[rows] - n_lt - n_eq
        f.count[rows[case_a]] = n_lt[case_a]
        f.count[rows[case_b]] = 0
        f.count[rows[case_c]] = rest[case_c]
        return level
