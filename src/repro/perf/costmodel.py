"""Analytic cost model: counted work -> simulated time.

The model prices one kernel launch from four components and takes the
critical-path maximum, which is the standard roofline treatment plus a
latency term for serially dependent work:

``duration = max(mem_time, compute_time, latency_time) + tail``

* ``mem_time`` — device-memory bytes divided by the bandwidth available to
  the launch's resident warps (linear ramp to saturation; this term is what
  makes single-block BlockSelect ~2-3 orders of magnitude slower than a
  grid-wide kernel at large N, Sec. 5.3 of the paper).
* ``compute_time`` — FP32-equivalent operations divided by available
  arithmetic throughput.
* ``latency_time`` — a chain of serially dependent cycles on the kernel's
  critical path (queue-based algorithms process their input in lockstep
  rounds; each round's insert/compare work depends on the previous round's
  threshold).
* ``tail`` — fixed scheduling tail so no kernel is cheaper than the device's
  minimum kernel time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from ..errors import check_problem
from . import calibration as cal


@dataclass(frozen=True)
class LaunchShape:
    """Grid configuration of a kernel launch."""

    grid_blocks: int
    block_threads: int

    def __post_init__(self) -> None:
        if self.grid_blocks <= 0:
            raise ValueError(f"grid_blocks must be positive, got {self.grid_blocks}")
        if self.block_threads <= 0:
            raise ValueError(
                f"block_threads must be positive, got {self.block_threads}"
            )

    def warps(self, warp_size: int) -> int:
        """Total warps launched."""
        return self.grid_blocks * -(-self.block_threads // warp_size)


@dataclass(frozen=True)
class KernelCost:
    """Priced execution of one kernel launch."""

    duration: float
    mem_time: float
    compute_time: float
    latency_time: float

    @property
    def bound(self) -> str:
        """Which resource bounds this launch ('memory', 'compute', 'latency')."""
        best = max(self.mem_time, self.compute_time, self.latency_time)
        if best == self.mem_time:
            return "memory"
        if best == self.compute_time:
            return "compute"
        return "latency"


class KernelCostModel:
    """Prices kernel launches against a :class:`repro.device.GPUSpec`."""

    def __init__(self, spec) -> None:
        self.spec = spec

    def available_bandwidth(self, shape: LaunchShape, *, warp_efficiency: float = 1.0) -> float:
        """Device-memory bandwidth available to a launch, bytes/second.

        ``warp_efficiency`` models how well a warp keeps memory requests in
        flight.  Per-thread-queue kernels (WarpSelect/BlockSelect) issue
        dependent loads around their queue bookkeeping and achieve a fraction
        of a streaming warp's bandwidth; the shared-queue two-step insertion
        of GridSelect restores streaming behaviour (Sec. 4).
        """
        if not 0.0 < warp_efficiency <= 1.0:
            raise ValueError(f"warp_efficiency must be in (0, 1], got {warp_efficiency}")
        warps = shape.warps(self.spec.warp_size) * warp_efficiency
        frac = self.spec.bandwidth_fraction(warps)
        return self.spec.effective_bandwidth * frac

    def available_compute(self, shape: LaunchShape) -> float:
        """FP32 throughput available to a launch, FLOP/second."""
        warps = shape.warps(self.spec.warp_size)
        frac = self.spec.compute_fraction(warps)
        return self.spec.effective_fp32 * frac

    def price(
        self,
        shape: LaunchShape,
        *,
        bytes_read: float = 0.0,
        bytes_written: float = 0.0,
        flops: float = 0.0,
        dependent_cycles: float = 0.0,
        warp_efficiency: float = 1.0,
    ) -> KernelCost:
        """Price one kernel launch.

        ``dependent_cycles`` is the length (in SM cycles) of the serially
        dependent chain on the kernel's critical path; it is divided by the
        clock only, never by parallelism, because by definition it cannot be
        overlapped.
        """
        if min(bytes_read, bytes_written, flops, dependent_cycles) < 0:
            raise ValueError("work quantities must be non-negative")
        bw = self.available_bandwidth(shape, warp_efficiency=warp_efficiency)
        nbytes = bytes_read + bytes_written
        # the first burst rides a single memory round trip regardless of how
        # throttled the kernel's sustained rate is: every launched warp fires
        # its initial outstanding loads at once.  Only the remainder pays the
        # occupancy-limited sustained bandwidth — this is what lets tiny
        # problems finish in launch-latency time for single-block kernels
        # (the near-1x small-N ratios of the paper's Table 2).
        spec = self.spec
        first_burst = shape.warps(spec.warp_size) * spec.outstanding_bytes_per_warp
        sustained_bytes = max(0.0, nbytes - first_burst)
        mem_time = 0.0
        if nbytes > 0:
            mem_time = spec.mem_latency_cycles / spec.clock_hz
            if sustained_bytes > 0 and bw > 0:
                mem_time += sustained_bytes / bw
            mem_time = max(mem_time, nbytes / spec.effective_bandwidth)
        comp = self.available_compute(shape)
        compute_time = flops / comp if comp > 0 else 0.0
        latency_time = dependent_cycles / self.spec.clock_hz
        duration = (
            max(mem_time, compute_time, latency_time)
            + self.spec.kernel_tail_latency
        )
        return KernelCost(
            duration=duration,
            mem_time=mem_time,
            compute_time=compute_time,
            latency_time=latency_time,
        )

    def pcie_time(self, nbytes: float) -> float:
        """Duration of one PCIe transfer of ``nbytes``."""
        if nbytes < 0:
            raise ValueError("transfer size must be non-negative")
        return self.spec.pcie_latency + nbytes / self.spec.pcie_bandwidth


# --------------------------------------------------------------------------
# Whole-run prediction — the dispatch query API.
#
# ``predict_topk_time`` prices a complete top-k run from the problem shape
# alone, without generating data or executing an algorithm.  It replays each
# method's launch sequence analytically: the same launch shapes, calibration
# constants and per-launch overheads the simulated implementations charge,
# with *expected* (distribution-free) values substituted for data-dependent
# quantities (survivor counts assume a smooth value distribution; queue
# insert counts use the E[inserts] ~ K ln(N/K) streaming bound).  The
# ``auto`` registry algorithm ranks these predictions to choose a concrete
# method per problem; accuracy is judged by ranking fidelity, not absolute
# microseconds (see tests/test_costmodel.py and the differential suite).
# --------------------------------------------------------------------------

#: exact algorithms the analytic predictor understands.  The ``auto``
#: dispatcher draws its candidates from this tuple, so it must stay
#: exact-only: a plain ``repro.topk()`` call must never be silently
#: served an approximate result
PREDICTABLE_ALGORITHMS = (
    "air_topk",
    "grid_select",
    "sort",
    "radix_select",
    "warp_select",
    "block_select",
    "bitonic_topk",
    "quick_select",
    "bucket_select",
    "sample_select",
    "drtopk_hybrid",
)

#: approximate-tier algorithms the predictor also understands; only the
#: quality-aware dispatch (repro.approx.planner) ranks these, and only
#: when the caller opted in via ``mode=`` / ``min_recall=``
APPROX_ALGORITHMS = (
    "bucket_approx",
    "twostage_approx",
)


@dataclass(frozen=True)
class TopKPrediction:
    """Predicted run time of one algorithm on one problem shape."""

    algo: str
    #: predicted wall-clock seconds (analytic, optionally corrected)
    time: float
    #: "model" for a pure analytic estimate, "adapted" when rescaled by a
    #: :class:`repro.perf.adaptive.CorrectionStore`'s folded residuals
    source: str = "model"


def _stream_shape(spec, elems: float) -> LaunchShape:
    """Launch shape of a streaming kernel over ``elems`` items."""
    from ..device import streaming_grid  # lazy: device imports this module

    grid = streaming_grid(
        spec,
        max(1, int(elems)),
        items_per_thread=int(cal.STREAM_ITEMS_PER_THREAD),
    )
    return LaunchShape(grid, 256)


def _expected_inserts(n: float, k: float) -> float:
    """E[top-k structure updates] over a random-order stream of n items."""
    if n <= 0 or k <= 0:
        return 0.0
    return k * (1.0 + math.log(max(n / k, 1.0)))


def _sort_comparators(m: float) -> float:
    """Comparators of a bitonic sort network over m (power-of-two) keys."""
    if m <= 1:
        return 0.0
    stages = math.log2(m)
    return m * stages * (stages + 1) / 4.0


def _predict_sort(model: KernelCostModel, spec, n: int, k: int, batch: int) -> float:
    """Full radix sort (onesweep) per problem row, then copy the head."""
    shape = _stream_shape(spec, n)
    passes = 4  # 8-bit digits over 32-bit keys
    hist = model.price(
        shape,
        bytes_read=4.0 * n,
        bytes_written=passes * 256 * 4.0,
        flops=cal.HISTOGRAM_OPS_PER_ELEM * n,
    )
    onesweep = model.price(
        shape,
        bytes_read=8.0 * n,
        bytes_written=8.0 * n,
        flops=cal.SORT_PASS_OPS_PER_ELEM * n,
    )
    copy = model.price(
        _stream_shape(spec, k), bytes_read=8.0 * k, bytes_written=8.0 * k,
        flops=2.0 * k,
    )
    per_row = (
        hist.duration
        + passes * onesweep.duration
        + copy.duration
        + (passes + 2) * spec.kernel_launch_latency
    )
    return batch * per_row + spec.sync_latency


def _predict_radix_select(
    model: KernelCostModel, spec, n: int, k: int, batch: int
) -> float:
    """Host-coordinated RadixSelect: per-iteration sync/PCIe/host costs."""
    buckets = 256
    passes = 4
    per_row = cal.HOST_ALLOC_SECONDS
    per_row += (
        model.price(_stream_shape(spec, n), bytes_written=4.0 * n, flops=1.0 * n).duration
        + spec.kernel_launch_latency
    )
    count = float(n)
    for _ in range(passes):
        shape = _stream_shape(spec, count)
        per_row += model.price(
            shape,
            bytes_read=4.0 * count,
            bytes_written=buckets * 4.0,
            flops=cal.HISTOGRAM_OPS_PER_ELEM * count,
        ).duration
        per_row += spec.sync_latency + model.pcie_time(buckets * 4.0)
        per_row += cal.HOST_RADIX_ITER_SECONDS + model.pcie_time(64.0)
        survivors = max(float(k), count / buckets)
        per_row += model.price(
            shape,
            bytes_read=8.0 * count,
            bytes_written=cal.SCATTER_WRITE_PENALTY * 8.0 * survivors,
            flops=cal.FILTER_OPS_PER_ELEM * count,
        ).duration
        per_row += 2 * spec.kernel_launch_latency + spec.sync_latency
        count = survivors
        if count <= k:
            break
    return batch * per_row


def _partition_terminal_time(
    model: KernelCostModel, spec, count: float, k: int, batch: int
) -> float:
    """Shared terminal bitonic sort of the partition family: one block per
    row still owing results, priced at the fused survivor count."""
    comps = _sort_comparators(2 ** math.ceil(math.log2(max(2.0, count))))
    t = model.price(
        LaunchShape(batch, 256),
        bytes_read=8.0 * count * batch,
        bytes_written=8.0 * k * batch,
        flops=cal.OPS_PER_COMPARATOR * batch * comps,
    ).duration
    return t + spec.kernel_launch_latency + spec.sync_latency


def _predict_quick_select(
    model: KernelCostModel, spec, n: int, k: int, batch: int
) -> float:
    """Fused batched QuickSelect: one count+scatter launch pair per
    recursion level over the concatenated survivors of every active row.

    The host round trip (sync, batched count transfer, per-row pivot picks)
    is paid once per *level*, not once per row; the expected survivor
    fraction of a median-of-three pivot is 1/2.
    """
    terminal = 1024.0
    t = cal.HOST_ALLOC_SECONDS
    count = float(n)
    while count > max(terminal, float(k)):
        total = count * batch
        shape = _stream_shape(spec, total)
        t += model.price(  # QuickSelectCount: pivot-comparison tallies
            shape, bytes_read=4.0 * total, bytes_written=8.0 * batch,
            flops=2.0 * total,
        ).duration
        t += model.price(  # QuickSelectScatter partitions the candidates
            shape,
            bytes_read=8.0 * total,
            bytes_written=cal.SCATTER_WRITE_PENALTY * 8.0 * total,
            flops=cal.PARTITION_OPS_PER_ELEM * total,
        ).duration
        # host coordination once per level, not once per row
        t += 2 * spec.kernel_launch_latency + 2 * spec.sync_latency
        t += model.pcie_time(8.0 * batch)  # per-row counts
        t += cal.HOST_PIVOT_SECONDS * batch
        count = max(float(k), count * 0.5)
    return t + _partition_terminal_time(model, spec, count, k, batch)


def _predict_sample_select(
    model: KernelCostModel, spec, n: int, k: int, batch: int
) -> float:
    """Fused batched SampleSelect: per iteration, one block-per-row sample
    sort, a splitter-search histogram over the flat candidates, a batched
    histogram PCIe transfer + host scan, an offset scan and the filtering
    scatter — 256 splitter buckets shrink the survivors by ~1/256."""
    buckets = 256
    terminal = 1024.0
    sample_comps = _sort_comparators(1024.0)
    t = cal.HOST_ALLOC_SECONDS
    count = float(n)
    while count > max(terminal, float(k)):
        total = count * batch
        shape = _stream_shape(spec, total)
        s = min(1024.0, count)
        t += model.price(  # SampleGatherSort: one block per row
            LaunchShape(batch, 256),
            bytes_read=4.0 * s * batch,
            bytes_written=4.0 * (buckets - 1) * batch,
            flops=cal.OPS_PER_COMPARATOR * sample_comps * batch,
        ).duration
        t += model.price(  # SplitterHistogram over the flat candidates
            shape,
            bytes_read=4.0 * total,
            bytes_written=batch * buckets * 4.0,
            flops=cal.SPLITTER_SEARCH_OPS_PER_ELEM * total,
        ).duration
        t += model.price(  # ScanBucketOffsets: one block per active row
            LaunchShape(batch, 256),
            bytes_read=batch * buckets * 4.0,
            bytes_written=batch * buckets * 4.0,
            flops=float(batch * buckets * 8),
        ).duration
        t += model.price(  # SampleFilter scatters into grouped buckets
            shape,
            bytes_read=8.0 * total,
            bytes_written=cal.SCATTER_WRITE_PENALTY * 8.0 * total,
            flops=cal.FILTER_OPS_PER_ELEM * total,
        ).duration
        # host coordination once per iteration, not once per row
        t += 4 * spec.kernel_launch_latency + 3 * spec.sync_latency
        t += model.pcie_time(batch * buckets * 4.0)  # histograms
        t += cal.HOST_SCAN_SECONDS * batch
        count = max(float(k), count / buckets)
    return t + _partition_terminal_time(model, spec, count, k, batch)


def _predict_bucket_select(
    model: KernelCostModel, spec, n: int, k: int, batch: int
) -> float:
    """Fused batched BucketSelect: one launch set per iteration, all rows.

    Unlike the serial partition family, the host round trip (sync, batched
    histogram PCIe transfer, host scan) is paid once per *iteration*, not
    once per row — the kernels stream the concatenated candidates of every
    still-active row, so only the device-side traffic scales with batch.
    """
    buckets = 256
    terminal = 1024.0
    t = cal.HOST_ALLOC_SECONDS
    count = float(n)
    while count > max(terminal, float(k)):
        total = count * batch
        shape = _stream_shape(spec, total)
        t += model.price(  # MinMaxReduce: bucket boundaries for every row
            shape, bytes_read=4.0 * total, bytes_written=8.0 * batch,
            flops=2.0 * total,
        ).duration
        t += model.price(  # BucketHistogram over the flat candidates
            shape,
            bytes_read=4.0 * total,
            bytes_written=batch * buckets * 4.0,
            flops=cal.HISTOGRAM_OPS_PER_ELEM * total,
        ).duration
        t += model.price(  # ScanBucketOffsets: one block per active row
            LaunchShape(batch, 256),
            bytes_read=batch * buckets * 4.0,
            bytes_written=batch * buckets * 4.0,
            flops=float(batch * buckets * 8),
        ).duration
        t += model.price(  # BucketFilter scatters into grouped buckets
            shape,
            bytes_read=8.0 * total,
            bytes_written=cal.SCATTER_WRITE_PENALTY * 8.0 * total,
            flops=cal.FILTER_OPS_PER_ELEM * total,
        ).duration
        # host coordination once per iteration, not once per row
        t += 4 * spec.kernel_launch_latency + 4 * spec.sync_latency
        t += model.pcie_time(8.0 * batch)  # min/max
        t += model.pcie_time(batch * buckets * 4.0)  # histograms
        t += cal.HOST_SCAN_SECONDS * batch
        count = max(float(k), count / buckets)
    # shared terminal sort: one block per row still owing results
    comps = _sort_comparators(2 ** math.ceil(math.log2(max(2.0, count))))
    t += model.price(
        LaunchShape(batch, 256),
        bytes_read=8.0 * count * batch,
        bytes_written=8.0 * k * batch,
        flops=cal.OPS_PER_COMPARATOR * batch * comps,
    ).duration
    return t + spec.kernel_launch_latency + spec.sync_latency


def _predict_thread_queue(
    model: KernelCostModel, spec, n: int, k: int, batch: int, *, lanes: int
) -> float:
    """WarpSelect / BlockSelect: one ``lanes``-thread block per problem."""
    shape = LaunchShape(batch, lanes)
    inserts = _expected_inserts(n, k) * batch
    flushes = inserts / (lanes * cal.THREAD_QUEUE_LEN)
    flush_comps = _sort_comparators(2 ** math.ceil(math.log2(max(2, 2 * k))))
    rounds = -(-n // lanes)
    dependent = (
        rounds * cal.ROUND_CYCLES_THREAD_QUEUE
        + (flushes / batch) * (flush_comps / lanes)
        * cal.FLUSH_CYCLES_PER_LANE_COMPARATOR
        + cal.QUEUE_KERNEL_FIXED_CYCLES
        + batch * cal.QUEUE_PER_PROBLEM_CYCLES
    )
    kernel = model.price(
        shape,
        bytes_read=4.0 * batch * n,
        bytes_written=8.0 * batch * k,
        flops=(
            cal.THREAD_QUEUE_OPS_PER_ELEM
            * cal.queue_k_ops_factor(k)
            * batch
            * n
            + cal.OPS_PER_COMPARATOR * flushes * flush_comps
        ),
        dependent_cycles=dependent,
        warp_efficiency=cal.WARP_EFFICIENCY_THREAD_QUEUE,
    )
    return kernel.duration + spec.kernel_launch_latency + spec.sync_latency


def _grid_select_blocks(spec, n: int) -> int:
    """Blocks per problem used by GridSelect (mirrors GridSelect.num_blocks)."""
    per_block = 256 * cal.STREAM_ITEMS_PER_THREAD * 16
    needed = -(-n // int(per_block))
    return max(1, min(needed, 2 * spec.sm_count))


def _predict_grid_select(
    model: KernelCostModel, spec, n: int, k: int, batch: int
) -> float:
    blocks = _grid_select_blocks(spec, n)
    shape = LaunchShape(batch * blocks, 256)
    slice_len = -(-n // blocks)
    inserts = _expected_inserts(slice_len, min(k, slice_len)) * blocks * batch
    flushes = inserts / cal.SHARED_QUEUE_LEN
    flush_comps = _sort_comparators(2 ** math.ceil(math.log2(max(2, 2 * k))))
    dependent = (
        (-(-slice_len // 256)) * cal.ROUND_CYCLES_SHARED_QUEUE
        + (flushes / (batch * blocks)) * (flush_comps / 256)
        * cal.FLUSH_CYCLES_PER_LANE_COMPARATOR
        + cal.GRID_KERNEL_FIXED_CYCLES
        + batch * cal.QUEUE_PER_PROBLEM_CYCLES
    )
    t = model.price(
        shape,
        bytes_read=4.0 * batch * n,
        bytes_written=8.0 * batch * blocks * k,
        flops=(
            cal.SHARED_QUEUE_OPS_PER_ELEM
            * cal.queue_k_ops_factor(k)
            * batch
            * n
            + cal.OPS_PER_COMPARATOR * flushes * flush_comps
        ),
        dependent_cycles=dependent,
        warp_efficiency=cal.WARP_EFFICIENCY_SHARED_QUEUE,
    ).duration
    t += spec.kernel_launch_latency
    if blocks > 1:
        merge_elems = batch * blocks * k
        t += model.price(
            LaunchShape(batch, 256),
            bytes_read=8.0 * merge_elems,
            bytes_written=8.0 * batch * k,
            flops=cal.OPS_PER_COMPARATOR
            * batch
            * _sort_comparators(2 ** math.ceil(math.log2(max(2, blocks * k)))),
        ).duration
        t += spec.kernel_launch_latency
    return t + spec.sync_latency


def _predict_air_topk(
    model: KernelCostModel, spec, n: int, k: int, batch: int
) -> float:
    """AIR Top-K: 3 fused kernels + last filter, no host round trips."""
    buckets = 1 << 11
    shape = _stream_shape(spec, n * batch)
    alpha = 128.0
    c1 = max(1.0, min(float(n), n / buckets + k))
    c2 = max(1.0, min(c1, c1 / buckets + k))
    fixed_hist = batch * buckets * 4.0
    per_launch_dep = batch * cal.AIR_PER_PROBLEM_CYCLES
    t = model.price(  # kernel 1: scan all of N, histogram digit 0
        shape,
        bytes_read=4.0 * n * batch,
        bytes_written=fixed_hist,
        flops=cal.FUSED_KERNEL_OPS_PER_ELEM * n * batch,
        dependent_cycles=per_launch_dep,
    ).duration
    # kernel 2 rescans N (pass 1 never buffers), buffers its survivors
    buffer1 = c1 < n / alpha
    t += model.price(
        shape,
        bytes_read=4.0 * n * batch,
        bytes_written=fixed_hist
        + (cal.ATOMIC_SCATTER_PENALTY * 8.0 * c1 * batch if buffer1 else 0.0),
        flops=cal.FUSED_KERNEL_OPS_PER_ELEM * n * batch,
        dependent_cycles=per_launch_dep,
    ).duration
    # kernel 3 reads the buffer (or rescans), buffers the final survivors
    read3 = 8.0 * c1 * batch if buffer1 else 4.0 * n * batch
    elems3 = c1 * batch if buffer1 else n * batch
    buffer2 = c2 < n / alpha
    t += model.price(
        shape,
        bytes_read=read3,
        bytes_written=fixed_hist
        + (cal.ATOMIC_SCATTER_PENALTY * 8.0 * c2 * batch if buffer2 else 0.0),
        flops=cal.FUSED_KERNEL_OPS_PER_ELEM * elems3,
        dependent_cycles=per_launch_dep,
    ).duration
    # last filter gathers the k results from the final candidates
    read4 = 8.0 * c2 * batch if buffer2 else 4.0 * n * batch
    elems4 = c2 * batch if buffer2 else n * batch
    t += model.price(
        shape,
        bytes_read=read4,
        bytes_written=8.0 * k * batch,
        flops=cal.FILTER_OPS_PER_ELEM * elems4,
        dependent_cycles=per_launch_dep,
    ).duration
    return t + 4 * spec.kernel_launch_latency + spec.sync_latency


def _predict_bitonic(
    model: KernelCostModel, spec, n: int, k: int, batch: int
) -> float:
    kp = 2 ** math.ceil(math.log2(max(2, k)))
    runs = -(-n // kp)
    shape = _stream_shape(spec, n)
    per_row = model.price(
        shape,
        bytes_read=4.0 * n,
        bytes_written=8.0 * n,
        flops=cal.BITONIC_OPS_PER_COMPARATOR * runs * _sort_comparators(kp),
        dependent_cycles=cal.BITONIC_KERNEL_FIXED_CYCLES,
    ).duration + spec.kernel_launch_latency
    m = runs
    while m > 1:
        pairs = (m + 1) // 2
        elems = pairs * 2 * kp
        merge_comps = kp * (math.log2(kp) / 2.0 + 1.0)
        per_row += model.price(
            _stream_shape(spec, elems),
            bytes_read=8.0 * elems,
            bytes_written=4.0 * elems,
            flops=cal.BITONIC_OPS_PER_COMPARATOR * pairs * (kp + merge_comps),
            dependent_cycles=cal.BITONIC_KERNEL_FIXED_CYCLES,
        ).duration + spec.kernel_launch_latency
        m = pairs
    return batch * per_row + spec.sync_latency


def _predict_drtopk_hybrid(
    model: KernelCostModel, spec, n: int, k: int, batch: int
) -> float:
    """Delegate hybrid: reduction + top-k over delegates + final top-k."""
    g = max(1, int(math.sqrt(n / max(1, k))))
    delegates = -(-n // g)
    reduce_t = model.price(
        _stream_shape(spec, n),
        bytes_read=4.0 * n,
        bytes_written=8.0 * delegates,
        flops=2.0 * n,
    ).duration
    per_row = (
        reduce_t
        + spec.kernel_launch_latency
        + _predict_air_topk(
            model, spec, max(1, delegates), max(1, min(k, delegates)), 1
        )
        + _predict_air_topk(model, spec, max(1, k * g), max(1, min(k, k * g)), 1)
    )
    return batch * per_row


def _predict_partition_approx(
    model: KernelCostModel, spec, n: int, k: int, batch: int, parts: int, keep: int
) -> float:
    """Shared shape of the approximate tier (repro.algos.approx_base).

    One coalesced streaming pass maintaining per-partition best-``keep``
    queues, then one survivor-merge launch — no host round trip between
    the stages; the workloads come from the same helpers the simulated
    kernels charge, so prediction tracks execution by construction.
    """
    from ..approx import (  # lazy: approx imports this module's package
        APPROX_WARP_EFFICIENCY,
        stage1_workload,
        stage2_workload,
    )

    t = model.price(
        _stream_shape(spec, n * batch),
        warp_efficiency=APPROX_WARP_EFFICIENCY,
        **stage1_workload(n, parts, keep, batch),
    ).duration
    m = parts * keep
    t += model.price(
        _stream_shape(spec, m * batch), **stage2_workload(m, k, batch)
    ).duration
    return t + 2 * spec.kernel_launch_latency + spec.sync_latency


def _predict_bucket_approx(
    model: KernelCostModel, spec, n: int, k: int, batch: int
) -> float:
    from ..algos.bucket_approx import BucketApproxTopK

    parts, keep = BucketApproxTopK().plan(n, k)
    return _predict_partition_approx(model, spec, n, k, batch, parts, keep)


def _predict_twostage_approx(
    model: KernelCostModel, spec, n: int, k: int, batch: int
) -> float:
    from ..algos.twostage_approx import TwoStageApproxTopK

    parts, keep = TwoStageApproxTopK().plan(n, k)
    return _predict_partition_approx(model, spec, n, k, batch, parts, keep)


def _predict(algo: str, model: KernelCostModel, spec, n: int, k: int, batch: int) -> float:
    if algo == "sort":
        return _predict_sort(model, spec, n, k, batch)
    if algo == "radix_select":
        return _predict_radix_select(model, spec, n, k, batch)
    if algo == "quick_select":
        return _predict_quick_select(model, spec, n, k, batch)
    if algo == "bucket_select":
        return _predict_bucket_select(model, spec, n, k, batch)
    if algo == "sample_select":
        return _predict_sample_select(model, spec, n, k, batch)
    if algo == "warp_select":
        return _predict_thread_queue(model, spec, n, k, batch, lanes=32)
    if algo == "block_select":
        return _predict_thread_queue(
            model, spec, n, k, batch, lanes=32 * cal.BLOCK_SELECT_WARPS
        )
    if algo == "grid_select":
        return _predict_grid_select(model, spec, n, k, batch)
    if algo == "air_topk":
        return _predict_air_topk(model, spec, n, k, batch)
    if algo == "bitonic_topk":
        return _predict_bitonic(model, spec, n, k, batch)
    if algo == "drtopk_hybrid":
        return _predict_drtopk_hybrid(model, spec, n, k, batch)
    if algo == "bucket_approx":
        return _predict_bucket_approx(model, spec, n, k, batch)
    if algo == "twostage_approx":
        return _predict_twostage_approx(model, spec, n, k, batch)
    raise KeyError(
        f"no analytic prediction for {algo!r}; "
        f"predictable: {PREDICTABLE_ALGORITHMS + APPROX_ALGORITHMS}"
    )


@lru_cache(maxsize=4096)
def _predict_cached(algo: str, spec, n: int, k: int, batch: int) -> float:
    return _predict(algo, KernelCostModel(spec), spec, n, k, batch)


def predict_topk_time(algo: str, *, n: int, k: int, batch: int = 1, spec=None) -> float:
    """Predicted run time (seconds) of ``algo`` on an (n, k, batch) problem.

    Analytic only — see :func:`rank_algorithms` for corrected ranking.
    """
    check_problem(n, k, batch)
    if spec is None:
        from ..device import A100  # lazy: device imports this module

        spec = A100
    return _predict_cached(algo, spec, int(n), int(k), int(batch))


def rank_algorithms(
    *,
    n: int,
    k: int,
    batch: int = 1,
    spec=None,
    candidates=None,
    corrections=None,
    dtype: str = "float32",
) -> list[TopKPrediction]:
    """Rank candidate algorithms by predicted time, fastest first.

    ``candidates`` defaults to every predictable algorithm that supports
    the (n, k) problem.  ``corrections`` is an optional
    :class:`repro.perf.adaptive.CorrectionStore`: entries whose
    (algo, n, k, batch, spec, ``dtype``) regime carries a non-zero
    correction come back rescaled with source ``"adapted"`` and are
    ranked by their corrected time.  This is the one seam where measured
    data corrects the analytic model.  Ties break by name for
    determinism.
    """
    if spec is None:
        from ..device import A100

        spec = A100
    if candidates is None:
        candidates = PREDICTABLE_ALGORITHMS
    from ..algos.registry import get_algorithm  # lazy: algos import perf

    predictions: list[TopKPrediction] = []
    for name in candidates:
        if get_algorithm(name).supports(n, k) is not None:
            continue
        time = predict_topk_time(name, n=n, k=k, batch=batch, spec=spec)
        source = "model"
        if corrections is not None:
            corrected = corrections.apply(
                name, time, n=n, k=k, batch=batch,
                spec_name=spec.name, dtype=dtype,
            )
            if corrected != time:
                time, source = corrected, "adapted"
        predictions.append(TopKPrediction(algo=name, time=time, source=source))
    if not predictions:
        raise ValueError(f"no candidate algorithm supports n={n}, k={k}")
    return sorted(predictions, key=lambda p: (p.time, p.algo))
