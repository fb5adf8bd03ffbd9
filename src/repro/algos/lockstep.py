"""Round-by-round lockstep reference for the queue-select family.

:func:`repro.algos.queue_common.emulate_queue_select` processes elements in
vectorised chunks, refreshing the qualification threshold once per chunk —
fast, but an approximation of lockstep hardware, where the threshold
tightens at every flush.  This module is the ground truth it approximates:
one warp, one element per lane per round, the *actual* two-step ballot
insertion of Fig. 5 (via :func:`repro.primitives.warp.two_step_positions`)
for the shared queue and real per-lane queues for the Faiss discipline.

It is quadratic-ish in rounds and exists for verification, not speed: the
test suite cross-checks the fast emulation's results (must be identical —
both are exact top-k) and its event counts (the fast path may count
slightly more inserts, never fewer flushes than physics requires).
"""

from __future__ import annotations

import numpy as np

from .queue_common import QueueStats, flush_capacity, sentinel_for
from ..primitives import two_step_positions

WARP = 32


class _Maintained:
    """Sorted maintained top-k of (key, index) pairs."""

    def __init__(self, k: int, dtype) -> None:
        self.k = k
        self.keys = np.full(k, sentinel_for(dtype), dtype=dtype)
        self.indices = np.full(k, -1, dtype=np.int64)

    @property
    def threshold(self):
        return self.keys[-1]

    def merge(self, cand_keys: np.ndarray, cand_idx: np.ndarray) -> None:
        if cand_keys.size == 0:
            return
        keys = np.concatenate([self.keys, cand_keys])
        idx = np.concatenate([self.indices, cand_idx])
        order = np.argsort(keys, kind="stable")[: self.k]
        self.keys = keys[order]
        self.indices = idx[order]


def lockstep_queue_select(
    keys: np.ndarray,
    k: int,
    *,
    mode: str,
    queue_len: int,
) -> tuple[np.ndarray, np.ndarray, QueueStats]:
    """Single-warp lockstep queue selection; returns (keys, indices, stats).

    ``mode='shared'`` runs the paper's two-step ballot insertion against a
    32-slot shared queue, flushing the moment the queue fills — including
    the mid-round flush that lets second-step lanes insert afterwards
    (Fig. 5).  ``mode='thread'`` keeps a ``queue_len``-slot private queue
    per lane and flushes all of them whenever any lane's queue fills.
    """
    if keys.ndim != 1:
        raise ValueError(f"lockstep reference takes one slice, got {keys.shape}")
    if mode not in ("shared", "thread"):
        raise ValueError(f"mode must be 'shared' or 'thread', got {mode!r}")
    if queue_len < 1:
        raise ValueError("queue_len must be >= 1")
    if mode == "shared" and queue_len < WARP:
        raise ValueError(
            "the shared queue must hold at least one warp's worth of "
            "candidates (the paper sets it to exactly 32) so a round "
            "never needs more than one flush"
        )
    n = keys.shape[0]
    stats = QueueStats()
    stats.rounds = -(-n // WARP)
    maintained = _Maintained(k, keys.dtype)
    flush_cost = stats.merge_cost_comparators(flush_capacity(mode, queue_len, WARP), k)

    if mode == "shared":
        queue_keys = np.empty(queue_len, dtype=keys.dtype)
        queue_idx = np.empty(queue_len, dtype=np.int64)
        fill = 0

        def flush() -> None:
            nonlocal fill
            stats.flushes += 1
            maintained.merge(queue_keys[:fill].copy(), queue_idx[:fill].copy())
            fill = 0

        for start in range(0, n, WARP):
            lane_keys = keys[start : start + WARP]
            lane_idx = np.arange(start, start + lane_keys.shape[0], dtype=np.int64)
            pred = lane_keys < maintained.threshold
            q = int(pred.sum())
            if not q:
                continue
            stats.inserts += q
            first, second, _ = two_step_positions(
                np.pad(pred, (0, WARP - pred.shape[0])), fill, queue_len
            )
            first = first[: lane_keys.shape[0]]
            second = second[: lane_keys.shape[0]]
            n_first = int(first.sum())
            queue_keys[fill : fill + n_first] = lane_keys[first]
            queue_idx[fill : fill + n_first] = lane_idx[first]
            fill += n_first
            if fill == queue_len:
                flush()
                n_second = int(second.sum())
                queue_keys[:n_second] = lane_keys[second]
                queue_idx[:n_second] = lane_idx[second]
                fill = n_second
        if fill:
            maintained.merge(queue_keys[:fill].copy(), queue_idx[:fill].copy())
    else:
        lane_fill = np.zeros(WARP, dtype=np.int64)
        lane_queue_keys = np.empty((WARP, queue_len), dtype=keys.dtype)
        lane_queue_idx = np.empty((WARP, queue_len), dtype=np.int64)

        def flush_all() -> None:
            stats.flushes += 1
            held = int(lane_fill.sum())
            if held:
                cand_keys = np.concatenate(
                    [lane_queue_keys[lane, : lane_fill[lane]] for lane in range(WARP)]
                )
                cand_idx = np.concatenate(
                    [lane_queue_idx[lane, : lane_fill[lane]] for lane in range(WARP)]
                )
                maintained.merge(cand_keys, cand_idx)
            lane_fill[:] = 0

        for start in range(0, n, WARP):
            lane_keys = keys[start : start + WARP]
            pred = lane_keys < maintained.threshold
            lanes_here = lane_keys.shape[0]
            for lane in range(lanes_here):
                if pred[lane]:
                    stats.inserts += 1
                    lane_queue_keys[lane, lane_fill[lane]] = lane_keys[lane]
                    lane_queue_idx[lane, lane_fill[lane]] = start + lane
                    lane_fill[lane] += 1
            if (lane_fill >= queue_len).any():
                flush_all()
        if lane_fill.any():
            flush_all()
            stats.flushes -= 1  # the drain is not a hardware flush

    stats.merge_comparators = stats.flushes * flush_cost
    order = np.argsort(maintained.keys, kind="stable")
    return maintained.keys[order], maintained.indices[order], stats
