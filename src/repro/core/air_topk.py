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
accumulated target prefix (``kth_value_bits``); we implement the RAFT
semantics, which is the correct one when an early digit repeats later in
the key.

A batch shares every launch: each pass advances the rows one after
another on the host and charges a single launch, whose traffic is the sum
over the rows, so ``batched_execution`` holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..algos.base import RunContext, TopKAlgorithm
from ..device import streaming_grid
from ..obs.metrics import get_metrics, metrics_enabled
from ..obs.spans import tracing_enabled
from ..perf import calibration as cal
from ..primitives import (
    block_scan_ops,
    digit_histogram,
    digit_layout,
    find_target_bucket,
    inclusive_scan,
)


@dataclass
class _RowState:
    """Per-problem state carried across fused iterations (device-resident)."""

    #: results still to be found among the current candidates
    k_cand: int
    #: current candidate count (histogram[target] of the last pass)
    count: int
    #: accumulated target prefix over processed digits (RAFT kth_value_bits)
    prefix: int = 0
    #: number of passes folded into ``prefix``
    passes_done: int = 0
    #: target digit chosen by each completed pass
    targets: list[int] = field(default_factory=list)
    #: buffered candidates through boundary ``passes_done - 2`` (the input
    #: of the upcoming kernel), or None when it must rescan the input
    buf_keys: np.ndarray | None = None
    buf_idx: np.ndarray | None = None
    #: all remaining candidates are results; only a gather is left
    done: bool = False
    gathered: bool = False
    out_keys: list = field(default_factory=list)
    out_idx: list = field(default_factory=list)


@dataclass(frozen=True)
class PassRecord:
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
class _KernelTraffic:
    """Work aggregated over the batch for one fused-kernel launch."""

    bytes_read: float = 0.0
    bytes_written: float = 0.0
    flops: float = 0.0
    elements: float = 0.0


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

    def _pass_telemetry(self, pass_index: int) -> dict | None:
        """Behavioural telemetry for one fused launch, when enabled.

        Feeds the metrics stream (pass/buffer/early-stop counters) and
        returns ``span_args`` for the launch's timeline event; returns
        None — without touching ``last_trace`` — when telemetry is off, so
        plain runs pay only two flag checks per launch.
        """
        traced = tracing_enabled()
        metered = metrics_enabled()
        if not (traced or metered):
            return None
        records = [r for r in self.last_trace if r.pass_index == pass_index]
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

    def passes_for(self, dtype) -> list:
        """MSB-first digit passes matching the key width of ``dtype``."""
        key_width = np.dtype(dtype).itemsize * 8
        if key_width == 32:
            return self.passes
        return digit_layout(key_width, self.digit_bits)

    # ------------------------------------------------------------------ #
    # launch emission: one launch per pass for the whole batch
    # ------------------------------------------------------------------ #
    def _launch_pass(
        self, device, grid: int, batch: int, num_buckets: int,
        index: int, traffic: _KernelTraffic,
    ) -> None:
        device.launch_kernel(
            f"iteration_fused_kernel({index + 1})",
            grid_blocks=grid,
            block_threads=256,
            bytes_read=traffic.bytes_read,
            bytes_written=traffic.bytes_written,
            flops=traffic.flops,
            # histogram privatisation writes plus the fused block scan
            # and target-digit search: constant in N, never scaled
            fixed_bytes_written=batch * num_buckets * 4.0,
            fixed_flops=batch * block_scan_ops(num_buckets),
            fixed_dependent_cycles=batch * cal.AIR_PER_PROBLEM_CYCLES,
            span_args=self._pass_telemetry(index),
        )

    def _launch_final(
        self, device, grid: int, batch: int, num_buckets: int,
        traffic: _KernelTraffic, pending: _KernelTraffic | None,
    ) -> None:
        if pending is not None:
            device.launch_kernel(
                f"iteration_fused_kernel({len(self.passes)})+last_filter",
                grid_blocks=grid,
                block_threads=256,
                bytes_read=pending.bytes_read + traffic.bytes_read,
                bytes_written=pending.bytes_written + traffic.bytes_written,
                flops=pending.flops + traffic.flops,
                fixed_bytes_written=batch * num_buckets * 4.0,
                fixed_flops=batch * block_scan_ops(num_buckets),
                fixed_dependent_cycles=batch * cal.AIR_PER_PROBLEM_CYCLES,
                span_args=self._pass_telemetry(len(self.passes) - 1),
            )
        else:
            device.launch_kernel(
                "last_filter_kernel",
                grid_blocks=grid,
                block_threads=256,
                bytes_read=traffic.bytes_read,
                bytes_written=traffic.bytes_written,
                flops=traffic.flops,
                fixed_dependent_cycles=batch * cal.AIR_PER_PROBLEM_CYCLES,
            )

    # ------------------------------------------------------------------ #
    def _run(self, ctx: RunContext) -> tuple[np.ndarray, np.ndarray]:
        self.passes = self.passes_for(ctx.keys.dtype)
        self.last_trace = []
        batch, n = ctx.keys.shape
        device = ctx.device
        states = [_RowState(k_cand=ctx.k, count=n) for _ in range(batch)]
        num_buckets = self.passes[0].num_buckets

        # the host enqueues every kernel up front; nothing below synchronises
        # the host sizes every grid from the only quantity it knows — the
        # nominal input size; candidate counts live in device memory, so
        # later kernels launch the same grid and surplus blocks exit early
        grid = streaming_grid(
            device.spec,
            ctx.nominal_n * batch,
            items_per_thread=cal.STREAM_ITEMS_PER_THREAD,
        )
        pending: _KernelTraffic | None = None
        for dpass in self.passes:
            traffic = _KernelTraffic()
            for row in range(batch):
                self._fused_iteration(
                    states[row], ctx.keys[row], dpass, traffic, row=row
                )
            if self.fuse_last_filter and dpass.index == len(self.passes) - 1:
                pending = traffic  # launched below, merged with the filter
                continue
            self._launch_pass(
                device, grid, batch, num_buckets, dpass.index, traffic
            )

        traffic = _KernelTraffic()
        out_keys = np.empty((batch, ctx.k), dtype=ctx.keys.dtype)
        out_idx = np.empty((batch, ctx.k), dtype=np.int64)
        for row in range(batch):
            rk, ri = self._last_filter(ctx, states[row], ctx.keys[row], traffic)
            out_keys[row] = rk
            out_idx[row] = ri
        self._launch_final(device, grid, batch, num_buckets, traffic, pending)
        # two candidate buffers (double buffering), each bounded by N/alpha
        # when the adaptive strategy is on (Sec. 3.2), by N otherwise
        bound = max(1.0, n / self.alpha) if self.adaptive else float(n)
        device.allocate_workspace(batch * 2 * 8.0 * bound)
        return out_keys, out_idx

    # ------------------------------------------------------------------ #
    # loading: candidates through boundary (passes_done - 2), winners split
    # ------------------------------------------------------------------ #
    def _load_and_filter(
        self, state: _RowState, row_keys: np.ndarray, traffic: _KernelTraffic
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Read this kernel's input and apply the lagged filter.

        Returns the candidates through boundary ``passes_done - 1`` (i.e.
        survivors of the previous pass's target digit) after writing the
        winners at that boundary to the output.  Accounts read traffic for
        either the buffer (8 B per element) or an input rescan (4 B per
        element over all of N).
        """
        p = state.passes_done
        if p == 0:
            n = row_keys.shape[0]
            traffic.bytes_read += 4.0 * n
            traffic.elements += n
            # the first kernel filters nothing and never buffers, so its
            # candidates' indices are never read: it materialises none
            return row_keys, None

        prev = self.passes[p - 1]
        prev_target = state.targets[-1]
        if state.buf_keys is not None:
            cand_keys, cand_idx = state.buf_keys, state.buf_idx
            traffic.bytes_read += 8.0 * cand_keys.shape[0]
            traffic.elements += cand_keys.shape[0]
            traffic.flops += cal.FILTER_OPS_PER_ELEM * cand_keys.shape[0]
            prev_digits = prev.extract(cand_keys)
            win = prev_digits < prev_target
            keep = prev_digits == prev_target
            win_idx, keep_idx = cand_idx[win], cand_idx[keep]
            win_keys, keep_keys = cand_keys[win], cand_keys[keep]
        else:
            n = row_keys.shape[0]
            traffic.bytes_read += 4.0 * n
            traffic.elements += n
            # every loaded element pays the fused filter's prefix test
            traffic.flops += cal.FUSED_KERNEL_OPS_PER_ELEM * n
            # full-prefix candidacy (RAFT kth_value_bits semantics)
            kt = row_keys.dtype.type
            shifted = row_keys >> kt(prev.shift)
            keep = shifted == kt(state.prefix)
            if p == 1:
                win = shifted < kt(state.prefix)
            else:
                prev2 = self.passes[p - 2]
                prefix2 = state.prefix >> prev.width
                match2 = (row_keys >> kt(prev2.shift)) == kt(prefix2)
                win = match2 & (shifted < kt(state.prefix))
            # a rescan's candidates are input positions: the masks' set
            # bits are their indices
            win_idx, keep_idx = np.flatnonzero(win), np.flatnonzero(keep)
            win_keys, keep_keys = row_keys[win_idx], row_keys[keep_idx]

        n_win = len(win_idx)
        if n_win:
            state.out_keys.append(win_keys)
            state.out_idx.append(win_idx)
            traffic.bytes_written += cal.SCATTER_WRITE_PENALTY * 8.0 * n_win
        return keep_keys, keep_idx

    # ------------------------------------------------------------------ #
    def _fused_iteration(
        self,
        state: _RowState,
        row_keys: np.ndarray,
        dpass,
        traffic: _KernelTraffic,
        row: int = -1,
    ) -> None:
        """One fused filter+histogram iteration for one problem row."""
        if state.done:
            self._gather_if_pending(state, row_keys, traffic)
            return

        cand_keys, cand_idx = self._load_and_filter(state, row_keys, traffic)
        if cand_keys.shape[0] != state.count:
            raise AssertionError(
                f"candidate bookkeeping drifted: have {cand_keys.shape[0]}, "
                f"histogram said {state.count}"
            )

        digits = dpass.extract(cand_keys)
        hist = digit_histogram(digits, dpass.num_buckets)
        traffic.flops += cal.FUSED_KERNEL_OPS_PER_ELEM * cand_keys.shape[0]
        psum = inclusive_scan(hist)
        target = int(find_target_bucket(psum, state.k_cand))
        below = int(psum[target - 1]) if target > 0 else 0

        # adaptive buffering: store the survivors (this kernel's candidate
        # set) only when they are few enough to be worth the scatter.  The
        # first kernel never buffers: its candidate set is the whole input
        # (no filtering has happened yet), so even the classic pipeline only
        # starts writing buffers from the second kernel's fused filter.
        n = row_keys.shape[0]
        final_pass = dpass.index == len(self.passes) - 1
        use_buffer = state.passes_done > 0 and (
            (not self.adaptive)
            or (state.count < n / self.alpha)
            # the fused final filter reads the candidate list after its
            # internal sync; it must exist, whatever the adaptive rule says
            or (self.fuse_last_filter and final_pass)
        )
        if use_buffer:
            state.buf_keys = cand_keys
            state.buf_idx = cand_idx
            traffic.bytes_written += (
                cal.ATOMIC_SCATTER_PENALTY * 8.0 * cand_keys.shape[0]
            )
        else:
            state.buf_keys = None
            state.buf_idx = None

        candidates_in = int(cand_keys.shape[0])
        state.targets.append(target)
        state.prefix = (state.prefix << dpass.width) | target
        state.passes_done += 1
        state.k_cand -= below
        state.count = int(hist[target])
        if self.early_stop and state.k_cand == state.count:
            state.done = True
        self.last_trace.append(
            PassRecord(
                row=row,
                pass_index=dpass.index,
                candidates_in=candidates_in,
                target_digit=target,
                candidates_out=state.count,
                k_remaining=state.k_cand,
                buffered=use_buffer,
                early_stopped=state.done,
            )
        )

    # ------------------------------------------------------------------ #
    def _gather_if_pending(
        self, state: _RowState, row_keys: np.ndarray, traffic: _KernelTraffic
    ) -> None:
        """Early-stopped row: the next kernel degenerates to one gather."""
        if state.gathered:
            return
        cand_keys, cand_idx = self._load_and_filter(state, row_keys, traffic)
        if cand_keys.shape[0] != state.k_cand:
            raise AssertionError(
                f"early stop expected {state.k_cand} survivors, "
                f"got {cand_keys.shape[0]}"
            )
        state.out_keys.append(cand_keys)
        state.out_idx.append(cand_idx)
        traffic.bytes_written += 8.0 * cand_keys.shape[0]
        state.gathered = True

    def _last_filter(
        self,
        ctx: RunContext,
        state: _RowState,
        row_keys: np.ndarray,
        traffic: _KernelTraffic,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Final filtering kernel (line 5 of Algorithm 1)."""
        if state.done:
            self._gather_if_pending(state, row_keys, traffic)
        else:
            cand_keys, cand_idx = self._load_and_filter(state, row_keys, traffic)
            # after the final pass every survivor shares the complete key:
            # they are exact ties, any k_cand of them are valid results
            state.out_keys.append(cand_keys[: state.k_cand])
            state.out_idx.append(cand_idx[: state.k_cand])
            traffic.bytes_written += 8.0 * state.k_cand
            traffic.flops += cal.FILTER_OPS_PER_ELEM * cand_keys.shape[0]
        keys = np.concatenate(state.out_keys)
        idx = np.concatenate(state.out_idx)
        if keys.shape[0] != ctx.k:
            raise AssertionError(
                f"AIR Top-K produced {keys.shape[0]} results, expected {ctx.k}"
            )
        return keys, idx
