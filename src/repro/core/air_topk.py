"""AIR Top-K — Adaptive and Iteration-fused Radix Top-K (paper Sec. 3).

The algorithm is the paper's Algorithm 1, with the three ingredients that
distinguish it from host-coordinated RadixSelect:

**Iteration-fused design (Sec. 3.1).**  The filtering of iteration *p-1*
and the histogram of iteration *p* execute in one kernel; the prefix sum
and target-digit search run in the last surviving thread block of that same
kernel.  With 11-bit digits a 32-bit key needs only 3 fused kernels plus
one final filter — four launches in total, no PCIe traffic, no host
synchronisation.  The host enqueues all launches up front; every decision
(target digit, candidate counts, buffering) lives in device memory.

Pipeline structure (0-based pass index ``p``):

* kernel ``p`` reads the candidate set *through boundary p-2* — from the
  candidate buffer written by kernel ``p-1``, or by rescanning the original
  input when buffering was skipped;
* it writes the winners *at boundary p-1* (digit below the previous target)
  to the output — the previous target digit only became known at the end of
  kernel ``p-1``, which is why the filter lags the histogram by one kernel;
* it histograms digit ``p`` of the survivors and, in its last surviving
  block, scans the histogram and publishes ``target_p``;
* it stores the survivors (candidates through boundary ``p-1``) to the
  buffer only when the adaptive strategy says so.

**Adaptive buffering (Sec. 3.2).**  Writing candidates pays off only when
few survive: the kernel stores them only when ``C < N / alpha`` (``C`` is
the survivor count, known from the previous histogram) and otherwise the
next kernel re-reads the original input, re-deriving candidacy from the
accumulated target prefix.  This bounds the candidate buffer at
``N / alpha`` elements and eliminates buffer traffic entirely under
radix-adversarial distributions.

**Early stopping (Sec. 3.3).**  When the updated ``K`` equals the updated
candidate count, every remaining candidate is a result; the next kernel
degenerates to a gather and the remaining launches exit immediately.

Implementation note: where Algorithm 1's pseudo-code compares only the
previous iteration's digit when reloading from the original input, the
production RAFT kernel compares the full processed-bit prefix against the
accumulated target prefix (``kth_value_bits``), which is the correct test
when an early digit repeats later in the key.  The host emulation keeps
exactly that candidate set: each pass splits the previous pass's
survivors, so they are the elements whose processed prefix equals the
target prefix.

Host emulation.  The target digit of pass ``p`` is digit ``p`` of the
row's k-th smallest key.  The histogram search picks the bucket that
holds the ``k_rem``-th smallest survivor; removing the winners below that
bucket keeps the same element at rank ``k_rem`` among the survivors, so
by induction that element is always the row's k-th smallest key.  The
host therefore finds each row's k-th key once, with one ``np.partition``,
and reads every pass's target from it, while the modelled kernels still
build, scan and search the histogram and are charged for it.  Pass 0 runs
row by row: one split (``digit <= target``) writes a row's winners to
the output and keeps its survivors.  Every later pass, and the last
filter, runs over all live rows at once, on survivors held flat and
grouped by ascending row (:mod:`repro.primitives.batched`).  The host
always holds the survivors; whether the modelled next kernel reads them
from the candidate buffer or rescans the input only changes what that
kernel is charged.  A batch shares every launch, whose traffic is the sum
over the rows, so ``batched_execution`` holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ..algos.base import RunContext, RunShape, TopKAlgorithm
from ..device import Step, streaming_grid
from ..obs.metrics import get_metrics, metrics_enabled
from ..obs.spans import tracing_enabled
from ..perf import calibration as cal
from ..primitives import block_scan_ops, digit_layout, head_mask, segment_offsets


class PassRecord(NamedTuple):
    """One fused pass of one problem row, as the debug trace reports it.

    Exposes the quantities the paper's Sec. 3 reasons about: how many
    candidates entered the pass, which digit was chosen, how many survive,
    how many results remain to be found among them, and whether the
    adaptive strategy stored the candidate buffer.
    """

    row: int
    pass_index: int
    candidates_in: int
    target_digit: int
    candidates_out: int
    k_remaining: int
    buffered: bool
    early_stopped: bool


@dataclass
class KernelTraffic:
    """Work aggregated over the batch for one launch: what
    :meth:`AIRTopK.schedule` reads of a run."""

    bytes_read: float = 0.0
    bytes_written: float = 0.0
    flops: float = 0.0
    #: the launch's timeline annotations (telemetry on only)
    span_args: dict | None = None


@dataclass
class _Live:
    """Survivors of the rows still selecting, flat and grouped by ascending
    row (input order within a row), with per-row Python scalars."""

    keys: np.ndarray
    idx: np.ndarray
    rows: list[int]
    #: each row's k-th smallest key, whose digits are the pass targets
    kth: np.ndarray
    #: survivors per row (the keys at its last pass's target)
    counts: list[int]
    #: results still to be found among each row's survivors
    k_rem: list[int]


class AIRTopK(TopKAlgorithm):
    """Adaptive and Iteration-fused Radix Top-K (this paper; in RAPIDS RAFT)."""

    name = "air_topk"
    library = "RAFT"
    category = "partition-based"
    max_k = None
    batched_execution = True  # one launch set covers the whole batch

    def __init__(
        self,
        *,
        alpha: float = 128.0,
        adaptive: bool = True,
        early_stop: bool = True,
        digit_bits: int = 11,
        fuse_last_filter: bool = False,
    ) -> None:
        """``adaptive=False`` and ``early_stop=False`` are the ablations of
        the paper's Fig. 9 and Fig. 10.  ``alpha`` is the buffering
        threshold (the paper uses 128; 4 is the theoretical lower bound —
        buffering costs 4C accesses against N reads, Sec. 3.2).

        ``fuse_last_filter=True`` folds the final filtering kernel into the
        last fused kernel — the variant Sec. 3.1 mentions and rejects: the
        in-kernel filter phase (after a device-wide sync) needs the final
        candidate list materialised, which forces the buffer write the
        adaptive strategy would skip under adversarial distributions.  The
        paper's adopted configuration is False."""
        if alpha < 4:
            raise ValueError(
                f"alpha below 4 makes buffering strictly unprofitable "
                f"(4C accesses vs N reads, Sec. 3.2); got {alpha}"
            )
        self.alpha = float(alpha)
        self.adaptive = adaptive
        self.early_stop = early_stop
        self.fuse_last_filter = fuse_last_filter
        self.digit_bits = digit_bits
        # 32-bit keys are the paper's configuration; wider keys get the
        # same digit width over proportionally more passes (see passes_for)
        self.passes = digit_layout(32, digit_bits)
        #: per-pass trace of the most recent run (list of PassRecord)
        self.last_trace: list[PassRecord] = []

    def _pass_telemetry(self, records: list[PassRecord]) -> dict | None:
        """Behavioural telemetry for one fused launch, when enabled.

        Feeds the metrics stream (pass/buffer/early-stop counters) from
        the pass's records and returns ``span_args`` for the launch's
        timeline event; returns None when telemetry is off, so plain runs
        pay only two flag checks per launch.
        """
        traced = tracing_enabled()
        metered = metrics_enabled()
        if not (traced or metered):
            return None
        buffered = sum(1 for r in records if r.buffered)
        stopped = sum(1 for r in records if r.early_stopped)
        if metered:
            registry = get_metrics()
            registry.counter("air.passes", algo=self.name).inc(len(records))
            registry.counter("air.buffer_writes", algo=self.name).inc(buffered)
            registry.counter("air.buffer_skips", algo=self.name).inc(
                len(records) - buffered
            )
            registry.counter("air.early_stops", algo=self.name).inc(stopped)
        if not traced:
            return None
        return {
            "rows": len(records),
            "candidates_in": sum(r.candidates_in for r in records),
            "candidates_out": sum(r.candidates_out for r in records),
            "buffered_rows": buffered,
            "early_stopped_rows": stopped,
        }

    def passes_for(self, dtype) -> tuple:
        """MSB-first digit passes matching the key width of ``dtype``."""
        return digit_layout(np.dtype(dtype).itemsize * 8, self.digit_bits)

    def schedule(
        self, spec, run: RunShape, counts: tuple[KernelTraffic, ...]
    ) -> list[Step]:
        """Every launch of a run: one fused kernel per digit pass, then the
        last filter, which the fused variant folds into the last fused
        kernel.  ``counts`` are the run's per-launch totals: ``counts[p]``
        is fused kernel ``p`` and ``counts[-1]`` the last filter.

        The host enqueues every kernel up front; nothing synchronises.
        The host sizes every grid from the only quantity it knows, the
        nominal input size; candidate counts live in device memory, so
        later kernels launch the same grid and surplus blocks exit early.
        """
        passes = digit_layout(run.key_bits, self.digit_bits)
        batch, num_buckets = run.batch, passes[0].num_buckets
        stream = dict(
            grid_blocks=streaming_grid(
                spec, run.nominal_n * batch,
                items_per_thread=cal.STREAM_ITEMS_PER_THREAD,
            ),
            block_threads=256,
            fixed_dependent_cycles=batch * cal.AIR_PER_PROBLEM_CYCLES,
        )
        last = len(passes) - 1
        steps = []
        for p, kernel in enumerate(counts[: last + 1]):
            name = f"iteration_fused_kernel({p + 1})"
            if self.fuse_last_filter and p == last:
                name += "+last_filter"
            steps.append(Step.launch(
                name, **stream,
                bytes_read=kernel.bytes_read,
                bytes_written=kernel.bytes_written,
                flops=kernel.flops,
                # histogram privatisation writes plus the fused block scan
                # and target-digit search: constant in N, never scaled
                fixed_bytes_written=batch * num_buckets * 4.0,
                fixed_flops=batch * block_scan_ops(num_buckets),
                span_args=kernel.span_args,
            ))
        if not self.fuse_last_filter:
            kernel = counts[-1]
            steps.append(Step.launch(
                "last_filter_kernel", **stream,
                bytes_read=kernel.bytes_read,
                bytes_written=kernel.bytes_written,
                flops=kernel.flops,
            ))
        return steps

    def _select(
        self, ctx: RunContext
    ) -> tuple[np.ndarray, np.ndarray, tuple[KernelTraffic, ...]]:
        passes = self.passes = self.passes_for(ctx.keys.dtype)
        batch, n = ctx.keys.shape
        # kernels[p] is fused kernel p and kernels[-1] the last filter,
        # which the fused variant folds into the last fused kernel
        kernels = [KernelTraffic() for _ in passes]
        kernels.append(kernels[-1] if self.fuse_last_filter else KernelTraffic())
        records: list[list[PassRecord]] = [[] for _ in passes]
        out_keys = np.empty((batch, ctx.k), dtype=ctx.keys.dtype)
        out_idx = np.empty((batch, ctx.k), dtype=np.int64)
        fill = [0] * batch
        live = self._first_pass(ctx, kernels, records[0], out_keys, out_idx, fill)
        for dpass in passes[1:]:
            if live is None:
                break
            live = self._flat_pass(
                live, dpass, n, kernels, records[dpass.index],
                out_keys, out_idx, fill,
            )
        if fill != [ctx.k] * batch:
            raise AssertionError(
                f"AIR Top-K produced {fill} results per row, expected {ctx.k}"
            )
        self.last_trace = [rec for pass_records in records for rec in pass_records]
        for kernel, pass_records in zip(kernels, records):
            kernel.span_args = self._pass_telemetry(pass_records)
        # two candidate buffers (double buffering), each bounded by N/alpha
        # when the adaptive strategy is on (Sec. 3.2), by N otherwise
        bound = max(1.0, n / self.alpha) if self.adaptive else float(n)
        ctx.device.allocate_workspace(batch * 2 * 8.0 * bound)
        return out_keys, out_idx, tuple(kernels)

    # ------------------------------------------------------------------ #
    def _book(
        self, kernels: list[KernelTraffic], n: int, row: int, p: int, final: bool,
        candidates_in: int, target: int, below: int, count: int, k_rem: int,
    ) -> PassRecord:
        """One row's pass: its trace record and the traffic it models.

        Kernel ``p`` histograms the pass's candidates and, when the
        adaptive strategy says so, stores them to the buffer.  Kernel
        ``p+1`` loads them again — 8 B each from the buffer, or a rescan
        of the row's whole input — and scatters the winners below the
        target; when the row is finished it also writes the results (an
        early-stopped row's kernel degenerates to one gather).

        ``k_rem`` is the rank of the row's k-th key among the pass's
        candidates, so its target bucket must hold that rank:
        ``below < k_rem <= below + count``.
        """
        if not below < k_rem <= below + count:
            raise AssertionError(
                f"row {row} pass {p}: target digit {target} holds ranks "
                f"{below + 1}..{below + count}, not rank {k_rem}"
            )
        k_rem -= below
        # the first kernel never buffers: its candidate set is the whole
        # input.  The fused final filter reads the candidate list after its
        # internal sync, so it must exist whatever the adaptive rule says
        buffered = p > 0 and (
            (not self.adaptive)
            or candidates_in < n / self.alpha
            or (self.fuse_last_filter and final)
        )
        stopped = self.early_stop and k_rem == count
        here, after = kernels[p], kernels[p + 1]
        here.flops += cal.FUSED_KERNEL_OPS_PER_ELEM * candidates_in
        if buffered:
            here.bytes_written += cal.ATOMIC_SCATTER_PENALTY * 8.0 * candidates_in
            after.bytes_read += 8.0 * candidates_in
            after.flops += cal.FILTER_OPS_PER_ELEM * candidates_in
        else:
            after.bytes_read += 4.0 * n
            # every loaded element pays the fused filter's prefix test
            # (RAFT kth_value_bits semantics)
            after.flops += cal.FUSED_KERNEL_OPS_PER_ELEM * n
        after.bytes_written += cal.SCATTER_WRITE_PENALTY * 8.0 * below
        if stopped or final:
            after.bytes_written += 8.0 * k_rem
            if not stopped:
                after.flops += cal.FILTER_OPS_PER_ELEM * count
        # positional: a named tuple built by keyword costs twice as much
        return PassRecord(
            row, p, candidates_in, target, count, k_rem, buffered, stopped
        )

    def _first_pass(
        self, ctx: RunContext, kernels: list[KernelTraffic],
        records: list[PassRecord], out_keys: np.ndarray, out_idx: np.ndarray,
        fill: list[int],
    ) -> _Live | None:
        """Pass 0, row by row: each full row's k-th key gives its target
        digit, and one split writes the winners and keeps the survivors.
        Returns the survivors of the rows still selecting."""
        dpass = self.passes[0]
        final = len(self.passes) == 1
        batch, n = ctx.keys.shape
        k = ctx.k
        kernels[0].bytes_read += 4.0 * n * batch
        rows, kths, counts, k_rems, keys, idx = [], [], [], [], [], []
        for row in range(batch):
            row_keys = ctx.keys[row]
            # one partition per row: a whole-batch one copies the batch
            # into temporaries that measured slower than the row loop
            kth = np.partition(row_keys, k - 1)[k - 1]
            target = int(dpass.extract(kth))
            digits = dpass.extract(row_keys)
            # winners and survivors in input order: digit <= target.  When
            # that is every key (a radix-adversarial row), sel is the
            # identity and the winners are read without a gather
            sel = (digits <= target).nonzero()[0]
            win = (digits if sel.shape[0] == n else digits[sel]) < target
            below = int(np.count_nonzero(win))
            count = sel.shape[0] - below
            if below:
                out_idx[row, :below] = winners = sel[win]
                out_keys[row, :below] = row_keys[winners]
                sel = sel[~win]
            rec = self._book(kernels, n, row, 0, final, n, target, below, count, k)
            records.append(rec)
            if rec.early_stopped or final:
                # after the final pass every survivor shares the complete
                # key: they are exact ties, any k_rem of them are results
                sel = sel[: rec.k_remaining]
                out_idx[row, below:] = sel
                out_keys[row, below:] = row_keys[sel]
                fill[row] = k
            else:
                fill[row] = below
                rows.append(row)
                kths.append(kth)
                counts.append(count)
                k_rems.append(rec.k_remaining)
                # when every key survives (a radix-adversarial row), the
                # row itself is the survivor set: no copy
                keys.append(row_keys if count == n else row_keys[sel])
                idx.append(sel)
            # free the row's digits before the next row allocates its own:
            # the allocator then reuses their pages, which is measurably
            # faster at 2^16-element rows than holding two rows at once
            del digits, win
        if not rows:
            return None
        kth = np.array(kths, dtype=ctx.keys.dtype)
        if len(rows) == 1:
            return _Live(keys[0], idx[0], rows, kth, counts, k_rems)
        return _Live(
            np.concatenate(keys), np.concatenate(idx), rows, kth, counts, k_rems
        )

    def _flat_pass(
        self, live: _Live, dpass, n: int, kernels: list[KernelTraffic],
        records: list[PassRecord], out_keys: np.ndarray, out_idx: np.ndarray,
        fill: list[int],
    ) -> _Live | None:
        """One later pass over every live row at once (the last pass also
        does the last filter's work).  Returns the rows still selecting."""
        final = dpass.index == len(self.passes) - 1
        one_row = len(live.rows) == 1
        digits = dpass.extract(live.keys)
        target = dpass.extract(live.kth)
        per_elem = target if one_row else np.repeat(target, live.counts)
        # masks index through their nonzero positions: indexing with a
        # scattered boolean mask directly is several times slower.  Each
        # row's counts below and at its target are read off the same
        # positions (a reduceat over the masks costs about ten times more)
        win = (digits < per_elem).nonzero()[0]
        keep = (digits == per_elem).nonzero()[0]
        if one_row:
            belows, counts = [win.shape[0]], [keep.shape[0]]
        else:
            offsets = segment_offsets(live.counts)
            belows = np.diff(win.searchsorted(offsets)).tolist()
            counts = np.diff(keep.searchsorted(offsets)).tolist()
        k_rems, done = [], []
        for row, c_in, t, b, c, kr in zip(
            live.rows, live.counts, target.tolist(), belows, counts, live.k_rem
        ):
            rec = self._book(
                kernels, n, row, dpass.index, final, c_in, t, b, c, kr
            )
            records.append(rec)
            k_rems.append(rec.k_remaining)
            done.append(rec.early_stopped or final)

        if win.shape[0]:
            _emit(out_keys, out_idx, fill, live.rows, belows,
                  live.keys[win], live.idx[win])
        keys, idx = live.keys[keep], live.idx[keep]
        if not any(done):
            return _Live(keys, idx, live.rows, live.kth, counts, k_rems)
        if all(done):
            # after the final pass every survivor shares the complete key:
            # any k_rem of a row's survivors are its results
            if k_rems != counts:
                head = head_mask(counts, k_rems)
                keys, idx = keys[head], idx[head]
            _emit(out_keys, out_idx, fill, live.rows, k_rems, keys, idx)
            return None
        # early-stopped rows hand all their survivors to the output
        stop = np.repeat(done, counts)
        go = (~stop).nonzero()[0]
        stop = stop.nonzero()[0]
        _emit(
            out_keys, out_idx, fill,
            [r for r, d in zip(live.rows, done) if d],
            [c for c, d in zip(counts, done) if d],
            keys[stop], idx[stop],
        )
        keep_rows = [j for j, d in enumerate(done) if not d]
        return _Live(
            keys[go], idx[go],
            [live.rows[j] for j in keep_rows],
            live.kth[keep_rows],
            [counts[j] for j in keep_rows],
            [k_rems[j] for j in keep_rows],
        )


def _emit(
    out_keys: np.ndarray, out_idx: np.ndarray, fill: list[int],
    rows: list[int], counts: list[int], keys: np.ndarray, idx: np.ndarray,
) -> None:
    """Append each row's segment of the flat ``keys``/``idx`` to its
    output row, after the results the row already holds."""
    if len(rows) == 1:
        row = rows[0]
        start = fill[row]
        fill[row] = end = start + counts[0]
        out_keys[row, start:end] = keys
        out_idx[row, start:end] = idx
        return
    k = out_keys.shape[1]
    starts, total = [], 0
    for row, count in zip(rows, counts):
        starts.append(row * k + fill[row] - total)
        fill[row] += count
        total += count
    pos = np.repeat(starts, counts) + np.arange(total)
    out_keys.reshape(-1)[pos] = keys
    out_idx.reshape(-1)[pos] = idx
