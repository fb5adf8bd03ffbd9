"""SampleSelect — splitter-based partitioning (Ribizel & Anzt).

Each iteration sorts a small random sample of the candidates on the device,
picks evenly spaced splitters from it, assigns every candidate to a bucket
by binary-searching the splitters, and recurses into the bucket containing
the k-th element.  Sampling buys well-balanced buckets at the price of the
extra sample-sort kernel and the per-element binary search (Sec. 2.2).

A batch runs fused: every iteration runs one launch set
(SampleGatherSort, SplitterHistogram, ScanBucketOffsets, SampleFilter) over
the flat concatenation of all still-active rows' candidates, pays one
synchronisation and one (batch-sized) PCIe round trip per step instead of
one per row, and a single terminal sort covers every row that drops to the
terminal regime — the RadiK-style batched scheduling.  Splitters stay
per-row: each row owns an identically-seeded generator, so every row of a
batch selects exactly as a single-shot run of that row would.  At
``batch=1`` this is the host-serialised GpuSelection schedule; above it,
the reference code's per-row launches, syncs and PCIe round trips are not
charged.
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
    segment_offsets,
    stable_topk_order,
)


class SampleSelect(TopKAlgorithm):
    """GpuSelection-style SampleSelect with 256 sampled splitters."""

    name = "sample_select"
    library = "GpuSelection"
    category = "partition-based"
    max_k = None
    batched_execution = True  # fused batched scheduling (see module docstring)

    sample_size = 1024
    num_buckets = 256
    terminal_size = 1024
    max_iterations = 64

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

    # ------------------------------------------------------------------ #
    # fused batched execution: one launch set per iteration, all rows
    # ------------------------------------------------------------------ #
    def _run(self, ctx: RunContext) -> tuple[np.ndarray, np.ndarray]:
        device = ctx.device
        batch, n = ctx.keys.shape
        nb = self.num_buckets
        keys2d = ctx.keys

        # ---- terminal fast path: the whole batch is already below the
        # terminal threshold, so one fused sort finishes every row
        if n <= max(self.terminal_size, ctx.k):
            order = stable_topk_order(keys2d, ctx.k)
            device.launch_kernel(
                "SampleTerminalSort",
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
        # one identically-seeded splitter stream per row, so each row draws
        # the splitters a single-shot run of it would draw
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

        def charge_iteration(
            total: int,
            nrows: int,
            sample_bytes: float,
            sample_comparators: float,
        ) -> None:
            """Device accounting of one fused iteration: sample sort (one
            block per row), splitter histogram, one (batch-sized) PCIe
            round trip, offset scan and the filtering scatter."""
            grid = streaming_grid(
                device.spec,
                max(1, int(total * device.scale)),
                items_per_thread=cal.STREAM_ITEMS_PER_THREAD,
            )
            device.launch_kernel(
                "SampleGatherSort",
                grid_blocks=nrows,
                block_threads=256,
                bytes_read=sample_bytes,
                bytes_written=4.0 * (nb - 1) * nrows,
                flops=cal.OPS_PER_COMPARATOR * sample_comparators,
                scalable=False,  # the sample size is fixed, not O(N)
            )
            device.launch_kernel(
                "SplitterHistogram",
                grid_blocks=grid,
                block_threads=256,
                bytes_read=4.0 * total,
                bytes_written=nrows * nb * 4.0,
                flops=cal.SPLITTER_SEARCH_OPS_PER_ELEM * total,
            )
            device.synchronize("sync_hist")
            device.memcpy_d2h("MemcpyDtoH(hist)", nrows * nb * 4.0)
            device.host_compute("host_scan", cal.HOST_SCAN_SECONDS * nrows)
            # bucket offsets are scanned on the device before scattering —
            # one block per active row
            device.launch_kernel(
                "ScanBucketOffsets",
                grid_blocks=nrows,
                block_threads=256,
                bytes_read=nrows * nb * 4.0,
                bytes_written=nrows * nb * 4.0,
                flops=float(nrows * nb * 8),
                scalable=False,
            )
            device.synchronize("sync_scan")

        def charge_filter(total: int) -> None:
            grid = streaming_grid(
                device.spec,
                max(1, int(total * device.scale)),
                items_per_thread=cal.STREAM_ITEMS_PER_THREAD,
            )
            device.launch_kernel(
                "SampleFilter",
                grid_blocks=grid,
                block_threads=256,
                bytes_read=8.0 * total,
                # the reference implementation scatters the whole candidate
                # array into grouped buckets, not only the surviving one
                bytes_written=cal.SCATTER_WRITE_PENALTY * 8.0 * total,
                flops=cal.FILTER_OPS_PER_ELEM * total,
            )
            device.synchronize("sync_filter")

        # ---- iteration 0 on the rectangle: every row is active with the
        # same candidate count, so the bucket masks stay 2-d and the flat
        # state (with its repeat/gather overhead) is built only for the
        # ~1/256 of candidates that survive the first filter
        spl0 = np.empty((batch, nb - 1), dtype=keys2d.dtype)
        sample_bytes = 0.0
        sample_comparators = 0.0
        for r in range(batch):
            spl0[r], s = self._row_splitters(rngs[r], keys2d[r])
            sample_bytes += 4.0 * s
            sample_comparators += comparator_count_sort(next_pow2(max(2, s)))
        buckets2 = np.empty((batch, n), dtype=np.int64)
        for r in range(batch):
            buckets2[r] = np.searchsorted(spl0[r], keys2d[r], side="right")
        hist = batched_digit_histogram(buckets2, nb)
        charge_iteration(batch * n, batch, sample_bytes, sample_comparators)
        psum = inclusive_scan(hist, axis=1)
        target = np.asarray(find_target_bucket(psum, k_rem), dtype=np.int64)
        win2 = buckets2 < target[:, None]
        keep2 = buckets2 == target[:, None]
        charge_filter(batch * n)
        in_target = np.take_along_axis(hist, target[:, None], axis=1)[:, 0]
        below = (
            np.take_along_axis(psum, target[:, None], axis=1)[:, 0] - in_target
        )
        if below.any():
            wr, wc = np.nonzero(win2)
            out_rows.append(wr.astype(np.int64))
            out_keys.append(keys2d[win2])
            out_idx.append(wc.astype(np.int64))
            k_rem -= below
        kr_, kc_ = np.nonzero(keep2)
        cand_rows = kr_.astype(np.int64)
        cand_keys = keys2d[keep2]
        cand_idx = kc_.astype(np.int64)
        stuck0 = in_target == count
        count[:] = in_target

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

        # all candidates identical: splitters cannot split them, so the
        # row retires to the terminal sort
        if stuck0.any():
            retire(stuck0.copy())

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
            # per-row splitters, each drawn from its row's own stream; one
            # fused sample-sort launch (one block per row) covers the batch
            offsets = segment_offsets(seg_counts)
            spl = np.empty((rows.size, nb - 1), dtype=cand_keys.dtype)
            sample_bytes = 0.0
            sample_comparators = 0.0
            for i, r in enumerate(rows):
                seg = cand_keys[offsets[i] : offsets[i + 1]]
                spl[i], s = self._row_splitters(rngs[r], seg)
                sample_bytes += 4.0 * s
                sample_comparators += comparator_count_sort(
                    next_pow2(max(2, s))
                )
            # per-element splitter search over the flat batch in one pass:
            # prefixing each key/splitter with its local row id keeps every
            # row's searchsorted window disjoint.  The flat state is
            # grouped by ascending row, so each element's local row index
            # is a plain repeat of the counts
            local = np.repeat(np.arange(rows.size, dtype=np.int64), seg_counts)
            flat_spl = (
                (np.arange(rows.size, dtype=np.uint64)[:, None] << np.uint64(32))
                | spl.astype(np.uint64)
            ).ravel()
            combined = (local.astype(np.uint64) << np.uint64(32)) | cand_keys.astype(
                np.uint64
            )
            buckets = (
                np.searchsorted(flat_spl, combined, side="right")
                - local * (nb - 1)
            ).astype(np.int64)
            hist = flat_histogram(local, buckets, rows.size, nb)
            charge_iteration(total, rows.size, sample_bytes, sample_comparators)
            psum = inclusive_scan(hist, axis=1)
            target = np.asarray(
                find_target_bucket(psum, k_rem[rows]), dtype=np.int64
            )

            target_elem = target[local]
            win = buckets < target_elem
            keep = buckets == target_elem
            charge_filter(total)
            if win.any():
                out_rows.append(cand_rows[win])
                out_keys.append(cand_keys[win])
                out_idx.append(cand_idx[win])
                k_rem[rows] -= np.bincount(local[win], minlength=rows.size)
            cand_rows, cand_keys, cand_idx = (
                cand_rows[keep],
                cand_keys[keep],
                cand_idx[keep],
            )
            new_count = np.take_along_axis(hist, target[:, None], axis=1)[:, 0]
            # all candidates identical: splitters cannot split them, so the
            # row retires to the terminal sort
            stuck = new_count == seg_counts
            count[rows] = new_count
            if stuck.any():
                stuck_rows = np.zeros(batch, dtype=bool)
                stuck_rows[rows[stuck]] = True
                retire(stuck_rows)
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
                "SampleTerminalSort",
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
                f"SampleSelect produced {int(totals[bad])} results for row "
                f"{bad}, expected {ctx.k}"
            )
        order = np.argsort(all_rows, kind="stable")
        return (
            np.concatenate(out_keys)[order].reshape(batch, ctx.k),
            np.concatenate(out_idx)[order].reshape(batch, ctx.k),
        )
