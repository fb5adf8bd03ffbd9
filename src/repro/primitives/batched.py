"""Flat (segment-encoded) multi-row helpers for fused batched execution.

The partition family's fused driver (:mod:`repro.algos.partition_common`,
running BucketSelect, QuickSelect and SampleSelect) keeps every row's
surviving candidates in one flat row-major array plus a parallel array of
row ids — mirroring how a fused GPU kernel keeps the whole batch resident
in a single launch instead of replaying per-row kernels.  These helpers
are the segment algebra of its flat view:

* :func:`segment_offsets` — CSR-style offsets from per-segment counts;
* :func:`flat_histogram` — per-segment digit histograms of a flat array
  in one ``bincount`` (the multi-row generalisation of
  :func:`repro.primitives.histogram.batched_digit_histogram`);
* :func:`head_mask` — select the first ``take[i]`` elements of each
  segment of a row-major flat array;
* :func:`segment_min_max` — per-segment min/max reductions;
* :func:`affine_partitions` / :func:`partition_topc` — the batched bucket
  partition helpers of the approximate tier: a seeded affine scatter of
  positions into near-equal partitions, and per-partition best-``keep``
  selection over a whole batch in one vectorised pass.  The selection
  runs on ``uint64`` entries packed as ``key << 32 | position``
  (:mod:`repro.primitives.order`): positions are unique, so the entries'
  plain order is the stable order and no tie pass is needed.  Keys wider
  than 32 bits take :func:`~repro.primitives.select.stable_topk_order`.

All helpers are exact (integer arithmetic only); the fused paths that use
them are pinned byte-identical to stacked single-row runs by
``tests/test_differential.py::TestBatchedDifferential``, and the
partition family byte for byte by ``tests/test_golden_partition.py``,
and the approximate tier by ``tests/test_golden_approx.py``.
"""

from __future__ import annotations

import math

import numpy as np

from .order import fits, pack, smallest, unpack
from .select import stable_topk_order


def segment_offsets(counts: np.ndarray) -> np.ndarray:
    """CSR offsets (length ``len(counts) + 1``) of row-major segments.

    >>> segment_offsets(np.array([2, 0, 3]))
    array([0, 2, 2, 5])
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1:
        raise ValueError(f"counts must be 1-d, got shape {counts.shape}")
    if counts.size and counts.min() < 0:
        raise ValueError("segment counts must be non-negative")
    offsets = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def flat_histogram(
    segments: np.ndarray,
    values: np.ndarray,
    num_segments: int,
    num_buckets: int,
) -> np.ndarray:
    """Per-segment histograms of flat ``values``, shape ``(segments, buckets)``.

    ``segments`` holds each element's segment id in ``[0, num_segments)``.
    One offset ``bincount`` covers every segment — the fused-batch
    equivalent of one privatised-histogram kernel over the whole batch.
    """
    if num_segments < 0 or num_buckets <= 0:
        raise ValueError(
            f"need num_segments >= 0 and num_buckets > 0, "
            f"got {num_segments}, {num_buckets}"
        )
    segments = np.asarray(segments, dtype=np.int64)
    values = np.asarray(values)
    if segments.shape != values.shape or segments.ndim != 1:
        raise ValueError(
            f"segments and values must be matching 1-d arrays, "
            f"got {segments.shape} and {values.shape}"
        )
    if segments.size == 0:
        return np.zeros((num_segments, num_buckets), dtype=np.int64)
    if segments.min() < 0 or segments.max() >= num_segments:
        raise ValueError(f"segment ids outside [0, {num_segments})")
    v = values.astype(np.int64)
    if v.min() < 0 or v.max() >= num_buckets:
        raise ValueError(f"bucket values outside [0, {num_buckets})")
    flat = segments * num_buckets + v
    counts = np.bincount(flat, minlength=num_segments * num_buckets)
    return counts.reshape(num_segments, num_buckets)


def head_mask(counts: np.ndarray, take: np.ndarray) -> np.ndarray:
    """Mask selecting the first ``take[i]`` elements of each segment.

    ``counts`` describes a row-major flat array's segment lengths; the
    returned boolean mask has ``counts.sum()`` entries.
    """
    counts = np.asarray(counts, dtype=np.int64)
    take = np.asarray(take, dtype=np.int64)
    if counts.shape != take.shape:
        raise ValueError("counts and take must have matching shapes")
    offsets = segment_offsets(counts)
    total = int(offsets[-1])
    position = np.arange(total, dtype=np.int64) - np.repeat(offsets[:-1], counts)
    return position < np.repeat(take, counts)


def segment_min_max(
    values: np.ndarray, offsets: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-segment ``(min, max)`` of a row-major flat array.

    Every segment must be non-empty (``ufunc.reduceat`` silently reads the
    next segment's first element otherwise, so this is checked).
    """
    values = np.asarray(values)
    offsets = np.asarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or offsets.size < 1:
        raise ValueError("offsets must be a 1-d CSR offset array")
    if offsets.size == 1:
        return (
            np.empty(0, dtype=values.dtype),
            np.empty(0, dtype=values.dtype),
        )
    if int(offsets[-1]) != values.shape[0]:
        raise ValueError(
            f"offsets cover {int(offsets[-1])} elements, have {values.shape[0]}"
        )
    if (np.diff(offsets) <= 0).any():
        raise ValueError("segment_min_max requires non-empty segments")
    starts = offsets[:-1]
    return (
        np.minimum.reduceat(values, starts),
        np.maximum.reduceat(values, starts),
    )


#: bytes of ``(order, sizes)`` pairs :func:`affine_partitions` retains; the
#: end-to-end roster cycles through 8 scatters, 5.8 MB together
AFFINE_CACHE_BYTES = 16 << 20

#: ``(n, parts, seed) -> (order, sizes)``, least recently used first
_AFFINE_CACHE: dict[tuple[int, int, int], tuple[np.ndarray, np.ndarray]] = {}
_affine_cached_bytes = 0


def affine_partitions(
    n: int, parts: int, *, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Seeded affine scatter of ``n`` positions into ``parts`` partitions.

    Position ``j`` lands in partition ``((a*j + c) mod n) mod parts`` with
    ``a`` coprime to both ``n`` and ``parts`` — a bijective remap, so the
    partition sizes are the near-equal strided split of
    :func:`repro.approx.partition_sizes`, and any *contiguous* run of
    positions cycles through every partition (adversarially clustered
    inputs spread like random ones).  The assignment depends only on
    ``(n, parts, seed)``: batched and single-shot runs of the approximate
    algorithms see the same scatter.

    Returns ``(order, sizes)``: ``order`` lists the positions grouped by
    partition (ascending position within each partition) and ``sizes`` the
    per-partition counts, descending-grouped (all ``ceil`` partitions
    first) as :func:`partition_topc` requires.  Both are read-only: the
    pair is computed once per ``(n, parts, seed)`` and shared by later
    calls while it fits the :data:`AFFINE_CACHE_BYTES` budget (least
    recently used pairs are dropped first).
    """
    global _affine_cached_bytes
    key = (n, parts, seed)
    hit = _AFFINE_CACHE.pop(key, None)
    if hit is not None:
        _AFFINE_CACHE[key] = hit  # most recently used goes last
        return hit
    order, sizes = _affine_scatter(n, parts, seed)
    order.flags.writeable = False
    sizes.flags.writeable = False
    nbytes = order.nbytes + sizes.nbytes
    if nbytes <= AFFINE_CACHE_BYTES:
        while _affine_cached_bytes + nbytes > AFFINE_CACHE_BYTES:
            old_order, old_sizes = _AFFINE_CACHE.pop(next(iter(_AFFINE_CACHE)))
            _affine_cached_bytes -= old_order.nbytes + old_sizes.nbytes
        _AFFINE_CACHE[key] = (order, sizes)
        _affine_cached_bytes += nbytes
    return order, sizes


def _affine_scatter(n: int, parts: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """:func:`affine_partitions` computed afresh."""
    if not 1 <= parts <= n:
        raise ValueError(f"parts must be in [1, n={n}], got {parts}")
    rng = np.random.default_rng(seed)
    a, c = 1, 0
    if n > 1:
        for _ in range(128):
            cand = int(rng.integers(1, n))
            if math.gcd(cand, n) == 1 and math.gcd(cand, parts) == 1:
                a = cand
                break
        c = int(rng.integers(n))
    j = np.arange(n, dtype=np.int64)
    part = ((a * j + c) % n) % parts
    # partition ids fit a narrow unsigned type, whose stable sort is a radix
    # sort; the order is the same as sorting the int64 ids
    order = np.argsort(part.astype(np.min_scalar_type(parts - 1)), kind="stable")
    sizes = np.bincount(part, minlength=parts)
    return order, sizes


def partition_topc(
    keys2d: np.ndarray,
    order: np.ndarray,
    sizes: np.ndarray,
    keep: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-partition smallest-``keep`` selection across a whole batch.

    ``keys2d`` is ``(batch, n)``; ``order`` groups the ``n`` positions by
    partition, ascending within each, and ``sizes`` gives the partition
    lengths in ``order``'s grouping (equal sizes must be consecutive, as
    :func:`affine_partitions` produces).  Every partition must hold at
    least ``keep`` elements.

    Because near-equal splits have at most two distinct sizes, the
    ragged per-partition selection decomposes into (at most two)
    rectangular ``(batch, count, size)`` blocks — no padding sentinels,
    so ties between real elements and padding can never surface.  Ties
    within a partition break toward the lower original position.  Keys
    that fit 32 bits are packed over their original positions
    (:func:`repro.primitives.order.pack`); the entries are unique, so each
    block's :func:`~repro.primitives.order.smallest` entries are already
    in that order.  Wider keys take :func:`stable_topk_order` per block.

    Returns ``(keys, positions)`` of shape ``(batch, parts * keep)``,
    partition-major, best-first within each partition.
    """
    keys2d = np.asarray(keys2d)
    order = np.asarray(order, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if keys2d.ndim != 2:
        raise ValueError(f"keys2d must be 2-d, got shape {keys2d.shape}")
    batch, n = keys2d.shape
    if order.shape != (n,):
        raise ValueError(f"order must have shape ({n},), got {order.shape}")
    if int(sizes.sum()) != n:
        raise ValueError(f"sizes sum to {int(sizes.sum())}, expected {n}")
    if sizes.size and int(sizes.min()) < keep:
        raise ValueError(
            f"every partition needs >= keep={keep} elements, "
            f"smallest has {int(sizes.min())}"
        )
    narrow = fits(keys2d)
    keys = np.empty((batch, sizes.size * keep), dtype=keys2d.dtype)
    positions = np.empty((batch, sizes.size * keep), dtype=np.int64)
    start = run_start = done = 0
    for i in range(1, sizes.size + 1):
        if i < sizes.size and sizes[i] == sizes[run_start]:
            continue
        size, count = int(sizes[run_start]), i - run_start
        pos = order[start : start + size * count].reshape(count, size)
        block = np.take(keys2d, pos, axis=1)
        if narrow:
            best_keys, best_pos = unpack(smallest(pack(block, pos), keep))
        else:
            sel = stable_topk_order(block, keep)
            best_keys = np.take_along_axis(block, sel, axis=2)
            best_pos = np.take_along_axis(np.broadcast_to(pos, block.shape), sel, axis=2)
        keys[:, done : done + count * keep] = best_keys.reshape(batch, -1)
        positions[:, done : done + count * keep] = best_pos.reshape(batch, -1)
        start += size * count
        done += count * keep
        run_start = i
    return keys, positions
