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
from typing import NamedTuple

from ..errors import check_problem
from ..primitives import comparator_count_sort
from . import calibration as cal


@dataclass(frozen=True)
class LaunchShape:
    """Grid configuration of a kernel launch."""

    grid_blocks: int
    block_threads: int

    def __post_init__(self) -> None:
        if not 0 < self.grid_blocks < math.inf:
            raise ValueError(
                f"grid_blocks must be positive and finite, got {self.grid_blocks}"
            )
        if not 0 < self.block_threads < math.inf:
            raise ValueError(
                f"block_threads must be positive and finite, got {self.block_threads}"
            )

    def __iter__(self):
        """Unpack as ``(grid_blocks, block_threads)``, the pair
        :meth:`KernelCostModel.price` also accepts."""
        return iter((self.grid_blocks, self.block_threads))

    def warps(self, warp_size: int) -> int:
        """Total warps launched."""
        return self.grid_blocks * -(-self.block_threads // warp_size)


class KernelCost(NamedTuple):
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


#: launch geometries one spec's rate table holds before it drops its oldest
RATE_CACHE_ENTRIES = 2048
#: specs with a rate table before the oldest table is dropped
RATE_CACHE_SPECS = 8

#: spec -> {(grid_blocks, block_threads, warp_efficiency): launch rates},
#: shared by every model of an equal spec
_RATE_TABLES: dict = {}


def _rate_table(spec) -> dict:
    """The launch-rate table every model of ``spec`` shares."""
    table = _RATE_TABLES.get(spec)
    if table is None:
        if len(_RATE_TABLES) >= RATE_CACHE_SPECS:
            del _RATE_TABLES[next(iter(_RATE_TABLES))]
        table = _RATE_TABLES[spec] = {}
    return table


class KernelCostModel:
    """Prices kernel launches against a :class:`repro.device.GPUSpec`."""

    def __init__(self, spec) -> None:
        self.spec = spec
        self._rates = _rate_table(spec)
        # derived constants price() would otherwise recompute per launch
        self._mem_latency = spec.mem_latency_cycles / spec.clock_hz
        self._effective_bandwidth = spec.effective_bandwidth

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

    def _new_rates(
        self, grid_blocks: int, block_threads: int, warp_efficiency: float
    ) -> tuple[float, float, float]:
        """Compute and keep ``(available bandwidth, first-burst bytes,
        available compute)`` of a launch geometry.

        These depend only on the geometry, so :meth:`price` reads them from
        a table per ``(spec, grid_blocks, block_threads, warp_efficiency)``
        shared by every model of an equal spec (at most
        :data:`RATE_CACHE_ENTRIES` geometries, oldest dropped first).  An
        invalid geometry raises before it is stored, so on every call.
        """
        shape = LaunchShape(grid_blocks, block_threads)
        spec = self.spec
        # floats whatever numeric types the first caller passed, so a kept
        # entry reads the same to every later caller
        rates = (
            float(self.available_bandwidth(shape, warp_efficiency=warp_efficiency)),
            float(shape.warps(spec.warp_size) * spec.outstanding_bytes_per_warp),
            float(self.available_compute(shape)),
        )
        if len(self._rates) >= RATE_CACHE_ENTRIES:
            del self._rates[next(iter(self._rates))]
        self._rates[(grid_blocks, block_threads, warp_efficiency)] = rates
        return rates

    def price(
        self,
        shape,
        *,
        bytes_read: float = 0.0,
        bytes_written: float = 0.0,
        flops: float = 0.0,
        dependent_cycles: float = 0.0,
        warp_efficiency: float = 1.0,
    ) -> KernelCost:
        """Price one kernel launch.

        ``shape`` is a :class:`LaunchShape` or a ``(grid_blocks,
        block_threads)`` pair.  ``dependent_cycles`` is the length (in SM
        cycles) of the serially dependent chain on the kernel's critical
        path; it is divided by the clock only, never by parallelism,
        because by definition it cannot be overlapped.  Work must be
        non-negative and finite.
        """
        nbytes = bytes_read + bytes_written
        # NaN fails every comparison; an infinity survives into the sum
        if not (
            bytes_read >= 0.0 and bytes_written >= 0.0 and flops >= 0.0
            and dependent_cycles >= 0.0
            and nbytes + flops + dependent_cycles < math.inf
        ):
            raise ValueError(
                "work quantities must be non-negative and finite, got "
                f"bytes_read={bytes_read}, bytes_written={bytes_written}, "
                f"flops={flops}, dependent_cycles={dependent_cycles}"
            )
        grid_blocks, block_threads = shape
        rates = self._rates.get((grid_blocks, block_threads, warp_efficiency))
        if rates is None:
            rates = self._new_rates(grid_blocks, block_threads, warp_efficiency)
        bw, first_burst, comp = rates
        # the first burst rides a single memory round trip regardless of how
        # throttled the kernel's sustained rate is: every launched warp fires
        # its initial outstanding loads at once.  Only the remainder pays the
        # occupancy-limited sustained bandwidth — this is what lets tiny
        # problems finish in launch-latency time for single-block kernels
        # (the near-1x small-N ratios of the paper's Table 2).
        sustained_bytes = max(0.0, nbytes - first_burst)
        mem_time = 0.0
        if nbytes > 0:
            mem_time = self._mem_latency
            if sustained_bytes > 0 and bw > 0:
                mem_time += sustained_bytes / bw
            mem_time = max(mem_time, nbytes / self._effective_bandwidth)
        compute_time = flops / comp if comp > 0 else 0.0
        latency_time = dependent_cycles / self.spec.clock_hz
        duration = (
            max(mem_time, compute_time, latency_time)
            + self.spec.kernel_tail_latency
        )
        return KernelCost(duration, mem_time, compute_time, latency_time)

    def pcie_time(self, nbytes: float) -> float:
        """Duration of one PCIe transfer of ``nbytes``."""
        if not 0.0 <= nbytes < math.inf:
            raise ValueError(
                f"transfer size must be non-negative and finite, got {nbytes}"
            )
        return self.spec.pcie_latency + nbytes / self.spec.pcie_bandwidth


# --------------------------------------------------------------------------
# Whole-run prediction — the dispatch query API.
#
# ``predict_topk_time`` prices a complete top-k run from the problem shape
# alone, without generating data or executing an algorithm.  Every
# predictable method replays the ``schedule`` its runs charge on a fresh
# device (keys 32 bits wide, the ``RunShape`` default), so launch-latency
# overlap, syncs and host round trips are priced exactly as they are
# simulated.  *Expected* (distribution-free) counts from
# :func:`_expected_counts` stand in for data-dependent quantities
# (survivor counts assume a smooth value distribution; queue insert counts
# use the E[inserts] ~ K ln(N/K) streaming bound); Sort, Bitonic Top-K and
# the approximate tier read none.  The
# ``auto`` registry algorithm ranks these predictions to choose a concrete
# method per problem; accuracy is judged by ranking fidelity, not absolute
# microseconds (see tests/test_dispatch_grid.py and the differential suite).
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


def _expected_inserts(n: float, k: float) -> float:
    """E[top-k structure updates] over a random-order stream of n items."""
    if n <= 0 or k <= 0:
        return 0.0
    return k * (1.0 + math.log(max(n / k, 1.0)))


def _expected_counts(method, spec, run):
    """Expected (real-valued) counts of a run, for a method whose schedule
    reads them.  A queue-family block's inserts follow
    :func:`_expected_inserts` over its slice, and a flush empties one full
    queue.  In the partition family every row stays active, and each
    iteration keeps half of a row's candidates (QuickSelect's pivot) or one
    bucket's share (BucketSelect, SampleSelect), never fewer than ``k``,
    until they fit the terminal sort.  RadixSelect runs every digit pass
    of every row, each keeping one bucket's share (at least one candidate,
    no filter at one); the first filter emits all results but the one the
    final gather takes.  AIR Top-K's passes keep one bucket's share plus
    ``k`` (at least one candidate) and buffer by the run's own rule; its
    first pass also emits all results but one.  The Dr. Top-K hybrid's
    rows reduce whenever the shape lets them, each base selection with
    the base's expected counts.  None for a method whose schedule reads
    no counts."""
    from ..algos.partition_common import (
        BucketPartition,
        Level,
        PartitionCounts,
        PartitionSelect,
        Terminal,
    )
    from ..algos.hybrid import DrTopKHybrid, HybridRow
    from ..algos.queue_common import QueueSelect, QueueStats, flush_capacity
    from ..algos.radix_select import RadixRow, RadixSelect
    from ..core.air_topk import AIRTopK, KernelTraffic
    from ..device import next_pow2
    from ..primitives import digit_layout

    batch, k = run.batch, run.k
    if isinstance(method, DrTopKHybrid):
        g = method._choose_g(run.nominal_n, run.nominal_k)
        ranges = -(-run.n // g)
        row = HybridRow(None, None, ())
        if g > 1 and ranges > k:
            row = HybridRow(ranges, k * g, ())
        counts = tuple(
            _expected_counts(method.base, spec, base_run)
            for base_run in method.base_runs(run, row)
        )
        return (row._replace(counts=counts),) * batch
    if isinstance(method, AIRTopK):
        passes = digit_layout(run.key_bits, method.digit_bits)
        kernels = [KernelTraffic() for _ in passes]
        kernels.append(kernels[-1] if method.fuse_last_filter else KernelTraffic())
        n = float(run.n)
        kernels[0].bytes_read += 4.0 * n
        count, owed = n, float(k)
        for dpass in passes:
            survivors = max(1.0, min(count, count / dpass.num_buckets + k))
            # one row's pass, booked as the run books it
            rec = method._book(
                kernels, n, 0, dpass.index, dpass is passes[-1], count, 0,
                owed - 1.0, survivors, owed,
            )
            if rec.early_stopped:
                break
            count, owed = survivors, 1.0
        return tuple(
            KernelTraffic(batch * t.bytes_read, batch * t.bytes_written, batch * t.flops)
            for t in kernels
        )
    if isinstance(method, RadixSelect):
        buckets, passes = 1 << method.digit_bits, []
        count, owed = float(run.n), float(k)
        for _ in range(-(-run.key_bits // method.digit_bits)):
            survivors = max(1.0, count / buckets)
            # the first filter emits every result but the one gathered last
            scattered = min(count, survivors + owed - 1.0)
            passes.append((count, None if count == 1.0 else scattered))
            count, owed = survivors, 1.0
        return (RadixRow(run.n, tuple(passes), 1.0),) * batch
    if isinstance(method, PartitionSelect):
        survive = (
            1.0 / cal.PARTITION_BUCKETS if isinstance(method, BucketPartition) else 0.5
        )
        levels, count = [], float(run.n)
        while count > max(cal.PARTITION_TERMINAL_SIZE, k):
            total, sample = count * batch, min(float(cal.SAMPLE_SIZE), count)
            levels.append(Level(
                batch, total, batch, total, 4.0 * sample * batch,
                comparator_count_sort(next_pow2(math.ceil(sample))) * batch,
            ))
            count = max(float(k), count * survive)
        comparators = comparator_count_sort(next_pow2(max(2, math.ceil(count))))
        terminal = Terminal(batch, count * batch, k * batch, comparators * batch)
        return PartitionCounts(tuple(levels), terminal)
    if not isinstance(method, QueueSelect):
        return None
    costs = cal.queue_cost(method.cost_record)
    blocks = method.num_blocks(spec, run.nominal_n)
    slice_len = -(-run.n // blocks)
    capacity = flush_capacity(costs.mode, costs.queue_len, method.lanes)
    inserts = _expected_inserts(slice_len, min(k, slice_len)) * blocks * batch
    return QueueStats.counted(
        inserts=inserts, flushes=inserts / capacity, capacity=capacity, k=k
    )


def _replay_schedule(method, spec, run, counts=None) -> float:
    """Price ``method``'s schedule for ``run`` (the one its run charges) on
    a fresh device, plus the result sync every run pays, so launch-latency
    overlap is priced exactly as it is simulated."""
    from ..device import Device  # lazy: device imports this module

    steps = method.schedule(spec, run, counts)
    device = Device(spec, scale=run.scale)
    device.charge(steps)
    device.synchronize("sync_result")
    return device.elapsed


def _predict(algo: str, spec, n: int, k: int, batch: int) -> float:
    from ..algos.base import RunShape  # lazy: algos import perf
    from ..algos.registry import get_algorithm

    if algo not in PREDICTABLE_ALGORITHMS + APPROX_ALGORITHMS:
        raise KeyError(
            f"no prediction for {algo!r}; "
            f"predictable: {PREDICTABLE_ALGORITHMS + APPROX_ALGORITHMS}"
        )
    method, run = get_algorithm(algo), RunShape(batch, n, k, n, k)
    return _replay_schedule(method, spec, run, _expected_counts(method, spec, run))


@lru_cache(maxsize=4096)
def _predict_cached(algo: str, spec, n: int, k: int, batch: int) -> float:
    return _predict(algo, spec, n, k, batch)


def predict_topk_time(algo: str, *, n: int, k: int, batch: int = 1, spec=None) -> float:
    """Predicted run time (seconds) of ``algo`` on an (n, k, batch) problem.

    Analytic only — see :func:`rank_algorithms` for corrected ranking.
    """
    k = check_problem(n, k, batch)
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
