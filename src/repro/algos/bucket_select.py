"""BucketSelect — partition by linear value buckets (Alabi et al.).

Each iteration computes the candidate min/max on the device, splits the
value range into 256 equal-width buckets, histograms the candidates, and
keeps only the bucket containing the k-th element.  The bucket boundaries
are derived from data statistics (unlike RadixSelect's data-independent
digits, Sec. 2.2), which costs an extra reduction kernel and PCIe round
trip per iteration.

A batch runs fused: every iteration runs one launch set (MinMaxReduce,
BucketHistogram, ScanBucketOffsets, BucketFilter) over the flat
concatenation of all still-active rows' candidates, pays one
synchronisation and one (batch-sized) PCIe round trip per step instead of
one per row, and a single terminal sort covers every row that drops to the
terminal regime — the RadiK-style batched scheduling the paper's related
work describes.  At ``batch=1`` this is the host-serialised GpuSelection
schedule; above it, the reference code's per-row launches, syncs and PCIe
round trips are not charged.
"""

from __future__ import annotations

import numpy as np

from .base import RunContext, TopKAlgorithm
from ..device import next_pow2, streaming_grid
from ..perf import calibration as cal
from ..primitives import (
    batched_digit_histogram,
    comparator_count_sort,
    find_target_bucket,
    flat_histogram,
    head_mask,
    inclusive_scan,
    segment_min_max,
    segment_offsets,
    stable_topk_order,
)


class BucketSelect(TopKAlgorithm):
    """GpuSelection-style BucketSelect with 256 linear buckets."""

    name = "bucket_select"
    library = "GpuSelection"
    category = "partition-based"
    max_k = None
    batched_execution = True  # fused batched scheduling (see module docstring)

    num_buckets = 256
    terminal_size = 1024
    max_iterations = 64

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
        # a row spanning the full uint64 range wraps span to 0; every key
        # then lands in bucket 0 (the terminal cap still finishes the row)
        scale = np.where(
            span > 0.0,
            np.float64(self.num_buckets) / np.maximum(span, 1.0),
            0.0,
        )
        rel = (keys.astype(np.uint64) - lo64).astype(np.float64)
        raw = (rel * scale).astype(np.uint32)
        return np.minimum(raw, np.uint32(self.num_buckets - 1))

    # ------------------------------------------------------------------ #
    # fused batched execution: one launch set per iteration, all rows
    # ------------------------------------------------------------------ #
    def _run(self, ctx: RunContext) -> tuple[np.ndarray, np.ndarray]:
        device = ctx.device
        batch, n = ctx.keys.shape
        nb = self.num_buckets
        keys2d = ctx.keys

        k_rem = np.full(batch, ctx.k, dtype=np.int64)
        count = np.full(batch, n, dtype=np.int64)
        active = np.ones(batch, dtype=bool)

        # output chunks, chronological; stable-sorted by row at the end
        out_rows: list[np.ndarray] = []
        out_keys: list[np.ndarray] = []
        out_idx: list[np.ndarray] = []
        # rows that fell to the terminal regime, with their candidates
        term_rows: list[np.ndarray] = []
        term_keys: list[np.ndarray] = []
        term_idx: list[np.ndarray] = []
        term_k: np.ndarray = np.zeros(batch, dtype=np.int64)

        # ---- terminal fast path: the whole batch is already below the
        # terminal threshold, so one fused sort finishes every row without
        # ever building the flat candidate state
        if n <= max(self.terminal_size, ctx.k):
            order = stable_topk_order(keys2d, ctx.k)
            device.launch_kernel(
                "BucketTerminalSort",
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

        # ---- iteration 0 on the rectangle: every row is active with the
        # same candidate count, so bucket math broadcasts per-row bounds
        # instead of gathering per-element ones and the flat state (with
        # its repeat/searchsorted overhead) is built only for the ~1/256
        # of elements that survive the first filter
        total = batch * n
        grid = streaming_grid(
            device.spec,
            max(1, int(total * device.scale)),
            items_per_thread=cal.STREAM_ITEMS_PER_THREAD,
        )
        lo_r = keys2d.min(axis=1)
        hi_r = keys2d.max(axis=1)
        device.launch_kernel(
            "MinMaxReduce",
            grid_blocks=grid,
            block_threads=256,
            bytes_read=4.0 * total,
            bytes_written=8.0 * batch,
            flops=2.0 * total,
        )
        device.synchronize("sync_minmax")
        device.memcpy_d2h("MemcpyDtoH(minmax)", 8.0 * batch)
        flat0 = lo_r == hi_r  # constant rows: any k of them are results
        if flat0.any():
            fr = np.flatnonzero(flat0)
            term_rows.append(np.repeat(fr, n))
            term_keys.append(keys2d[fr].ravel())
            term_idx.append(np.tile(np.arange(n, dtype=np.int64), fr.size))
            term_k[fr] = k_rem[fr]
            active[fr] = False
        rows0 = np.flatnonzero(active)
        if rows0.size:
            sub = keys2d if rows0.size == batch else keys2d[rows0]
            total = rows0.size * n
            grid = streaming_grid(
                device.spec,
                max(1, int(total * device.scale)),
                items_per_thread=cal.STREAM_ITEMS_PER_THREAD,
            )
            buckets2 = self._bucket_of(
                sub, lo_r[rows0][:, None], hi_r[rows0][:, None]
            )
            hist = batched_digit_histogram(buckets2, nb)
            device.launch_kernel(
                "BucketHistogram",
                grid_blocks=grid,
                block_threads=256,
                bytes_read=4.0 * total,
                bytes_written=rows0.size * nb * 4.0,
                flops=cal.HISTOGRAM_OPS_PER_ELEM * total,
            )
            device.synchronize("sync_hist")
            device.memcpy_d2h("MemcpyDtoH(hist)", rows0.size * nb * 4.0)
            device.host_compute(
                "host_scan", cal.HOST_SCAN_SECONDS * rows0.size
            )
            device.launch_kernel(
                "ScanBucketOffsets",
                grid_blocks=rows0.size,
                block_threads=256,
                bytes_read=rows0.size * nb * 4.0,
                bytes_written=rows0.size * nb * 4.0,
                flops=float(rows0.size * nb * 8),
                scalable=False,
            )
            device.synchronize("sync_scan")
            psum = inclusive_scan(hist, axis=1)
            target = np.asarray(
                find_target_bucket(psum, k_rem[rows0]), dtype=np.int64
            )
            win2 = buckets2 < target[:, None]
            keep2 = buckets2 == target[:, None]
            device.launch_kernel(
                "BucketFilter",
                grid_blocks=grid,
                block_threads=256,
                bytes_read=8.0 * total,
                # the reference implementation scatters the whole candidate
                # array into grouped buckets, not only the surviving one
                bytes_written=cal.SCATTER_WRITE_PENALTY * 8.0 * total,
                flops=cal.FILTER_OPS_PER_ELEM * total,
            )
            device.synchronize("sync_filter")
            in_target = np.take_along_axis(hist, target[:, None], axis=1)[:, 0]
            below = (
                np.take_along_axis(psum, target[:, None], axis=1)[:, 0]
                - in_target
            )
            if below.any():
                wr, wc = np.nonzero(win2)
                out_rows.append(rows0[wr])
                out_keys.append(sub[win2])
                out_idx.append(wc.astype(np.int64))
                k_rem[rows0] -= below
            kr, kc = np.nonzero(keep2)
            cand_rows = rows0[kr]
            cand_keys = sub[keep2]
            cand_idx = kc.astype(np.int64)
            count[rows0] = in_target
        else:
            cand_rows = np.empty(0, dtype=np.int64)
            cand_keys = np.empty(0, dtype=keys2d.dtype)
            cand_idx = np.empty(0, dtype=np.int64)

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
            total = int(count[rows].sum())
            grid = streaming_grid(
                device.spec,
                max(1, int(total * device.scale)),
                items_per_thread=cal.STREAM_ITEMS_PER_THREAD,
            )
            # min/max reduction over every active row in one fused launch
            offsets = segment_offsets(count[rows])
            lo, hi = segment_min_max(cand_keys, offsets)
            device.launch_kernel(
                "MinMaxReduce",
                grid_blocks=grid,
                block_threads=256,
                bytes_read=4.0 * total,
                bytes_written=8.0 * rows.size,
                flops=2.0 * total,
            )
            device.synchronize("sync_minmax")
            device.memcpy_d2h("MemcpyDtoH(minmax)", 8.0 * rows.size)
            flat = lo == hi  # all candidates equal: any k_rem are results
            if flat.any():
                flat_rows = np.zeros(batch, dtype=bool)
                flat_rows[rows[flat]] = True
                retire(flat_rows)
                rows = np.flatnonzero(active)
                if not rows.size:
                    break
                total = int(count[rows].sum())
                grid = streaming_grid(
                    device.spec,
                    max(1, int(total * device.scale)),
                    items_per_thread=cal.STREAM_ITEMS_PER_THREAD,
                )
                lo, hi = lo[~flat], hi[~flat]

            local = np.searchsorted(rows, cand_rows)
            buckets = self._bucket_of(cand_keys, lo[local], hi[local])
            hist = flat_histogram(local, buckets, rows.size, nb)
            device.launch_kernel(
                "BucketHistogram",
                grid_blocks=grid,
                block_threads=256,
                bytes_read=4.0 * total,
                bytes_written=rows.size * nb * 4.0,
                flops=cal.HISTOGRAM_OPS_PER_ELEM * total,
            )
            device.synchronize("sync_hist")
            device.memcpy_d2h("MemcpyDtoH(hist)", rows.size * nb * 4.0)
            device.host_compute(
                "host_scan", cal.HOST_SCAN_SECONDS * rows.size
            )
            # bucket offsets are scanned on the device before scattering —
            # one block per active row
            device.launch_kernel(
                "ScanBucketOffsets",
                grid_blocks=rows.size,
                block_threads=256,
                bytes_read=rows.size * nb * 4.0,
                bytes_written=rows.size * nb * 4.0,
                flops=float(rows.size * nb * 8),
                scalable=False,
            )
            device.synchronize("sync_scan")
            psum = inclusive_scan(hist, axis=1)
            target = np.asarray(
                find_target_bucket(psum, k_rem[rows]), dtype=np.int64
            )

            target_elem = target[local]
            win = buckets < target_elem
            keep = buckets == target_elem
            device.launch_kernel(
                "BucketFilter",
                grid_blocks=grid,
                block_threads=256,
                bytes_read=8.0 * total,
                # the reference implementation scatters the whole candidate
                # array into grouped buckets, not only the surviving one
                bytes_written=cal.SCATTER_WRITE_PENALTY * 8.0 * total,
                flops=cal.FILTER_OPS_PER_ELEM * total,
            )
            device.synchronize("sync_filter")
            if win.any():
                out_rows.append(cand_rows[win])
                out_keys.append(cand_keys[win])
                out_idx.append(cand_idx[win])
                k_rem[rows] -= np.bincount(
                    cand_rows[win], minlength=batch
                )[rows]
            cand_rows, cand_keys, cand_idx = (
                cand_rows[keep],
                cand_keys[keep],
                cand_idx[keep],
            )
            count[rows] = np.take_along_axis(hist, target[:, None], axis=1)[:, 0]
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
                "BucketTerminalSort",
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
                f"BucketSelect produced {int(totals[bad])} results for row "
                f"{bad}, expected {ctx.k}"
            )
        order = np.argsort(all_rows, kind="stable")
        return (
            np.concatenate(out_keys)[order].reshape(batch, ctx.k),
            np.concatenate(out_idx)[order].reshape(batch, ctx.k),
        )
