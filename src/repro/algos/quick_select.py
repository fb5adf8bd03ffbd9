"""QuickSelect — single-pivot partition-based selection (GpuSelection library).

Each iteration partitions the candidates around one pivot and recurses into
the side containing the k-th element.  The host inspects the partition
counts after every iteration (a PCIe round trip, like all GpuSelection
methods) and stops when the candidate set fits a single-block terminal sort.
Worst-case O(N^2) if pivots are unlucky (Sec. 2.2); median-of-3 sampling
makes that astronomically unlikely on the benchmark's distributions.

A batch runs fused: every recursion level runs one launch set
(QuickSelectCount, QuickSelectScatter) over the flat concatenation of all
still-active rows' candidates, pays one synchronisation and one
(batch-sized) PCIe round trip per level instead of one per row, and a
single terminal sort covers every row that drops to the terminal regime —
the RadiK-style batched scheduling.  Pivots stay per-row: each row owns an
identically-seeded generator, so every row of a batch selects exactly as a
single-shot run of that row would.  At ``batch=1`` this is the
host-serialised GpuSelection schedule; above it, the reference code's
per-row launches, syncs and PCIe round trips are not charged.
"""

from __future__ import annotations

import numpy as np

from .base import RunContext, TopKAlgorithm
from ..device import next_pow2, streaming_grid
from ..perf import calibration as cal
from ..primitives import (
    comparator_count_sort,
    head_mask,
    segment_offsets,
    stable_topk_order,
)


class QuickSelect(TopKAlgorithm):
    """GpuSelection-style QuickSelect with host-side pivot control."""

    name = "quick_select"
    library = "GpuSelection"
    category = "partition-based"
    max_k = None
    batched_execution = True  # fused batched scheduling (see module docstring)

    #: candidate count below which a single-block sort finishes the job
    terminal_size = 1024
    #: hard iteration cap (pathological pivot sequences)
    max_iterations = 128

    # ------------------------------------------------------------------ #
    # fused batched execution: one launch set per recursion level
    # ------------------------------------------------------------------ #
    def _run(self, ctx: RunContext) -> tuple[np.ndarray, np.ndarray]:
        device = ctx.device
        batch, n = ctx.keys.shape
        keys2d = ctx.keys

        # ---- terminal fast path: the whole batch is already below the
        # terminal threshold, so one fused sort finishes every row
        if n <= max(self.terminal_size, ctx.k):
            order = stable_topk_order(keys2d, ctx.k)
            device.launch_kernel(
                "QuickSelectTerminalSort",
                grid_blocks=batch,
                block_threads=256,
                bytes_read=8.0 * batch * n,
                bytes_written=8.0 * batch * ctx.k,
                flops=cal.OPS_PER_COMPARATOR
                * comparator_count_sort(next_pow2(max(2, n)))
                * batch,
            )
            device.synchronize("sync_final")
            return np.take_along_axis(keys2d, order, axis=1), order.astype(
                np.int64
            )

        k_rem = np.full(batch, ctx.k, dtype=np.int64)
        count = np.full(batch, n, dtype=np.int64)
        active = np.ones(batch, dtype=bool)
        # one identically-seeded pivot stream per row, so each row draws
        # the pivots a single-shot run of it would draw
        rngs = [np.random.default_rng(ctx.seed) for _ in range(batch)]

        # flat row-major candidate state with per-row counts; built lazily
        # after the rectangular iteration 0 (see below)
        cand_rows = np.empty(0, dtype=np.int64)
        cand_keys = np.empty(0, dtype=keys2d.dtype)
        cand_idx = np.empty(0, dtype=np.int64)

        # output chunks, chronological; stable-sorted by row at the end
        out_rows: list[np.ndarray] = []
        out_keys: list[np.ndarray] = []
        out_idx: list[np.ndarray] = []
        # rows that fell to the terminal regime, with their candidates
        term_rows: list[np.ndarray] = []
        term_keys: list[np.ndarray] = []
        term_idx: list[np.ndarray] = []
        term_k: np.ndarray = np.zeros(batch, dtype=np.int64)

        def charge_level(total: int, nrows: int) -> None:
            """Device accounting of one fused recursion level: count pass,
            scatter pass, one (batch-sized) PCIe round trip, host pivots."""
            grid = streaming_grid(
                device.spec,
                max(1, int(total * device.scale)),
                items_per_thread=cal.STREAM_ITEMS_PER_THREAD,
            )
            # the reference code runs a counting pass, fetches the counts,
            # then launches the scatter pass — one fused set for all rows
            device.launch_kernel(
                "QuickSelectCount",
                grid_blocks=grid,
                block_threads=256,
                bytes_read=4.0 * total,
                bytes_written=8.0 * nrows,
                flops=2.0 * total,
            )
            device.synchronize("sync_count")
            device.launch_kernel(
                "QuickSelectScatter",
                grid_blocks=grid,
                block_threads=256,
                bytes_read=8.0 * total,
                bytes_written=cal.SCATTER_WRITE_PENALTY * 8.0 * total,
                flops=cal.PARTITION_OPS_PER_ELEM * total,
            )
            device.synchronize("sync_partition")
            device.memcpy_d2h("MemcpyDtoH(counts)", 8.0 * nrows)
            device.host_compute("host_pivot", cal.HOST_PIVOT_SECONDS * nrows)

        # ---- iteration 0 on the rectangle: every row is active with the
        # same candidate count, so the partition masks stay 2-d and the
        # flat state (with its repeat/gather overhead) is built only for
        # the candidates that survive the first partition
        pivots = np.empty(batch, dtype=np.uint32)
        for r in range(batch):
            picks = keys2d[r][rngs[r].integers(0, n, size=3)]
            pivots[r] = np.uint32(np.sort(picks)[1])
        lt2 = keys2d < pivots[:, None]
        n_lt = lt2.sum(axis=1)
        charge_level(batch * n, batch)

        kr = k_rem
        case_a = kr <= n_lt  # recurse into the < side
        if case_a.all():
            # common regime (small k): every row recurses into the < side;
            # the tie masks are never needed
            kr_, kc_ = np.nonzero(lt2)
            cand_rows = kr_.astype(np.int64)
            cand_keys = keys2d[lt2]
            cand_idx = kc_.astype(np.int64)
            count[:] = n_lt
        else:
            eq2 = keys2d == pivots[:, None]
            n_eq = eq2.sum(axis=1)
            case_b = ~case_a & (kr <= n_lt + n_eq)  # pivot ties finish it
            case_c = ~case_a & ~case_b  # recurse into the > side
            # winners: the < side of B/C rows, then the tie elements each
            # row still needs (all of them for C, the first take for B)
            win_lt2 = lt2 & (case_b | case_c)[:, None]
            if win_lt2.any():
                wr, wc = np.nonzero(win_lt2)
                out_rows.append(wr.astype(np.int64))
                out_keys.append(keys2d[win_lt2])
                out_idx.append(wc.astype(np.int64))
            take = np.where(case_b, kr - n_lt, np.where(case_c, n_eq, 0))
            ord2 = np.cumsum(eq2, axis=1) - 1
            win_eq2 = eq2 & (ord2 < take[:, None])
            if win_eq2.any():
                wr, wc = np.nonzero(win_eq2)
                out_rows.append(wr.astype(np.int64))
                out_keys.append(keys2d[win_eq2])
                out_idx.append(wc.astype(np.int64))
            k_rem[case_b] = 0
            k_rem[case_c] -= (n_lt + n_eq)[case_c]
            keep2 = (case_a[:, None] & lt2) | (case_c[:, None] & ~(lt2 | eq2))
            if keep2.any():
                kr_, kc_ = np.nonzero(keep2)
                cand_rows = kr_.astype(np.int64)
                cand_keys = keys2d[keep2]
                cand_idx = kc_.astype(np.int64)
            count[case_a] = n_lt[case_a]
            count[case_b] = 0
            count[case_c] = (count - n_lt - n_eq)[case_c]

        def retire(rows_mask: np.ndarray) -> None:
            """Move ``rows_mask`` rows out of the iteration; rows with
            results still owed go to the shared terminal sort."""
            nonlocal cand_rows, cand_keys, cand_idx
            owed = rows_mask & (k_rem > 0)
            if owed.any():
                sel = owed[cand_rows]
                term_rows.append(cand_rows[sel])
                term_keys.append(cand_keys[sel])
                term_idx.append(cand_idx[sel])
                term_k[owed] = k_rem[owed]
            keep = ~rows_mask[cand_rows]
            cand_rows, cand_keys, cand_idx = (
                cand_rows[keep],
                cand_keys[keep],
                cand_idx[keep],
            )
            active[rows_mask] = False

        # ---- iterations 1+: the surviving candidates are ragged across
        # rows, so the state is flat (row-major) with per-row counts
        for _ in range(1, self.max_iterations):
            # rows small enough (or finished) leave the device loop
            settled = active & (
                (k_rem == 0) | (count <= np.maximum(self.terminal_size, k_rem))
            )
            if settled.any():
                retire(settled)
            rows = np.flatnonzero(active)
            if not rows.size:
                break
            seg_counts = count[rows]
            total = int(seg_counts.sum())
            # per-row median-of-3 pivots, each drawn host-side from its
            # row's own stream
            offsets = segment_offsets(seg_counts)
            pivots = np.empty(rows.size, dtype=np.uint32)
            for i, r in enumerate(rows):
                seg = cand_keys[offsets[i] : offsets[i + 1]]
                picks = seg[rngs[r].integers(0, seg.shape[0], size=3)]
                pivots[i] = np.uint32(np.sort(picks)[1])
            # the flat state is grouped by ascending row, so each
            # element's local row index is a plain repeat of the counts
            local = np.repeat(np.arange(rows.size, dtype=np.int64), seg_counts)
            pivot_elem = pivots[local]
            lt = cand_keys < pivot_elem
            n_lt = np.bincount(local[lt], minlength=rows.size)
            charge_level(total, rows.size)

            kr = k_rem[rows]
            case_a = kr <= n_lt
            if case_a.all():
                # common regime (small k): every row recurses into the <
                # side; the tie masks are never needed
                cand_rows, cand_keys, cand_idx = (
                    cand_rows[lt],
                    cand_keys[lt],
                    cand_idx[lt],
                )
                count[rows] = n_lt
                continue
            eq = cand_keys == pivot_elem
            n_eq = np.bincount(local[eq], minlength=rows.size)
            case_b = ~case_a & (kr <= n_lt + n_eq)
            case_c = ~case_a & ~case_b
            win_lt = lt & (case_b | case_c)[local]
            if win_lt.any():
                out_rows.append(cand_rows[win_lt])
                out_keys.append(cand_keys[win_lt])
                out_idx.append(cand_idx[win_lt])
            take = np.where(case_b, kr - n_lt, np.where(case_c, n_eq, 0))
            eq_pos = np.flatnonzero(eq)
            if eq_pos.size:
                eq_local = local[eq_pos]
                starts = np.searchsorted(eq_local, np.arange(rows.size))
                ordinal = np.arange(
                    eq_pos.size, dtype=np.int64
                ) - starts[eq_local]
                win_eq = eq_pos[ordinal < take[eq_local]]
                if win_eq.size:
                    out_rows.append(cand_rows[win_eq])
                    out_keys.append(cand_keys[win_eq])
                    out_idx.append(cand_idx[win_eq])
            k_rem[rows[case_b]] = 0
            k_rem[rows[case_c]] -= (n_lt + n_eq)[case_c]
            keep = (case_a[local] & lt) | (case_c[local] & ~(lt | eq))
            cand_rows, cand_keys, cand_idx = (
                cand_rows[keep],
                cand_keys[keep],
                cand_idx[keep],
            )
            count[rows[case_a]] = n_lt[case_a]
            count[rows[case_b]] = 0
            count[rows[case_c]] = (seg_counts - n_lt - n_eq)[case_c]
        else:  # iteration cap: remaining rows owe results to the terminal
            retire(active.copy())

        # one shared terminal sort covers every row that still owes results
        if term_rows:
            t_rows = np.concatenate(term_rows)
            t_keys = np.concatenate(term_keys)
            t_idx = np.concatenate(term_idx)
            # stable (row, key) order == per-row stable argsort by key
            order = np.lexsort((t_keys, t_rows))
            t_rows, t_keys, t_idx = t_rows[order], t_keys[order], t_idx[order]
            seg = np.bincount(t_rows, minlength=batch)
            mask = head_mask(seg, term_k)
            out_rows.append(t_rows[mask])
            out_keys.append(t_keys[mask])
            out_idx.append(t_idx[mask])
            counts_sorted = seg[seg > 0]
            comparators = sum(
                comparator_count_sort(next_pow2(max(2, int(c))))
                for c in counts_sorted
            )
            device.launch_kernel(
                "QuickSelectTerminalSort",
                grid_blocks=int(counts_sorted.size),
                block_threads=256,
                bytes_read=8.0 * float(counts_sorted.sum()),
                bytes_written=8.0 * float(term_k.sum()),
                flops=cal.OPS_PER_COMPARATOR * comparators,
            )
            device.synchronize("sync_final")

        all_rows = np.concatenate(out_rows)
        totals = np.bincount(all_rows, minlength=batch)
        if not (totals == ctx.k).all():
            bad = int(np.flatnonzero(totals != ctx.k)[0])
            raise AssertionError(
                f"QuickSelect produced {int(totals[bad])} results for row "
                f"{bad}, expected {ctx.k}"
            )
        order = np.argsort(all_rows, kind="stable")
        return (
            np.concatenate(out_keys)[order].reshape(batch, ctx.k),
            np.concatenate(out_idx)[order].reshape(batch, ctx.k),
        )
