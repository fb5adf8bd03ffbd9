"""Shared emulation machinery for the queue-based partial-sorting family.

WarpSelect, BlockSelect (Faiss) and GridSelect (this paper) share one
skeleton: lanes scan the input in lockstep rounds, qualified elements (those
beating the current k-th best) enter a small queue, and a full queue is
flushed — bitonic sort + merge — into the maintained top-k, which tightens
the qualification threshold.  They differ in *queue discipline*:

* ``thread`` mode — one private queue per lane; a flush fires as soon as
  **any** lane's queue fills (Faiss WarpSelect/BlockSelect, Sec. 4 ¶1).
* ``shared`` mode — one queue per warp shared by all lanes, filled with the
  two-step ballot insertion; a flush fires only when the **total** insert
  count fills the queue (GridSelect, Sec. 4).

The emulation executes lanes-in-lockstep semantics exactly, vectorised over
independent slices (thread blocks and/or batch problems), and reports the
event counts the cost model prices: rounds, inserts, flushes, comparators.
No flush feeds back into the scan, so flushes are counted once per run.
:class:`QueueSelect` is the one driver of all three methods.

Fidelity note: the qualification threshold is refreshed once per emulated
chunk rather than at every flush inside the chunk, so the emulation counts
slightly *more* qualified inserts than lockstep hardware would (a stale,
looser threshold lets more elements through).  The bias is identical across
all three queue disciplines and shrinks as chunks adapt, so relative
comparisons — the quantity the paper reports — are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .base import RunContext, RunShape, TopKAlgorithm
from ..device import Step, ceil_div, next_pow2
from ..obs.metrics import get_metrics, metrics_enabled
from ..perf import calibration as cal
from ..primitives import comparator_count_merge, comparator_count_sort
from ..primitives.order import LOW, fits, lex_order, pack, smallest, unpack

#: sentinel key strictly above every encodable 32-bit key (see
#: repro.primitives.radix: float32 encodings top out at the canonical-NaN
#: pattern 0xFFC00000).  Wider keys use :func:`sentinel_for`.
SENTINEL = np.uint32(0xFFFFFFFF)


def sentinel_for(dtype) -> np.generic:
    """All-ones key of the given unsigned dtype — above every encoding."""
    dt = np.dtype(dtype)
    if dt.kind != "u":
        raise TypeError(f"keys must be unsigned, got {dt}")
    return dt.type(~dt.type(0))


@dataclass
class QueueStats:
    """Event counts of one queue-based run (summed over all slices)."""

    rounds: int = 0
    inserts: int = 0
    flushes: int = 0
    merge_comparators: int = 0

    @staticmethod
    def merge_cost_comparators(queue_capacity: int, k: int) -> int:
        """Comparators of one flush: sort the queue, merge it into the top-k."""
        q = next_pow2(max(2, queue_capacity))
        return comparator_count_sort(q) + comparator_count_merge(
            next_pow2(max(2, k + queue_capacity))
        )

    @classmethod
    def counted(
        cls, *, rounds: int = 0, inserts, flushes, capacity: int, k: int
    ) -> QueueStats:
        """The counts of a run whose every flush sorts a queue of
        ``capacity`` entries (:func:`flush_capacity`) and merges it into
        the top-k.  Measured counts are integers; the predictor's expected
        ones are real-valued."""
        per_flush = cls.merge_cost_comparators(capacity, k)
        return cls(rounds, inserts, flushes, flushes * per_flush)


def flush_capacity(mode: str, queue_len: int, lanes: int) -> int:
    """Entries one flush sorts: every lane's queue in ``thread`` mode (a
    flush empties them all), the one shared queue in ``shared`` mode."""
    return queue_len * (lanes if mode == "thread" else 1)


@dataclass
class QueueRunResult:
    """Output of :func:`emulate_queue_select`."""

    #: maintained top-k keys per slice, shape (slices, k), sentinel-padded
    keys: np.ndarray
    #: matching local positions within each slice, -1 where sentinel
    indices: np.ndarray
    stats: QueueStats


def _thread_mode_flushes(
    mask: np.ndarray, carry: np.ndarray, queue_len: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact flush counts for per-thread queues over a run of rounds.

    ``mask`` is (..., rounds, lanes): which lane inserted in which round,
    for any number of independent slices.  ``carry`` is (..., lanes), the
    per-lane queue fill entering the run (each below ``queue_len``).  A
    flush clears every lane's queue (the warp sorts and merges all queues
    together).  Returns the per-slice flush counts, shape (...), and the
    per-lane fill leaving the run, shape (..., lanes).

    No loop runs per slice, round or flush.  The carry enters as inserts
    in ``queue_len - 1`` virtual rounds ahead of the run, a lane holding
    c entries inserting in the last c of them, so every queue epoch starts
    empty: at virtual round 0, or one round after a flush.  From an epoch
    start t, the flush is the earliest insert whose lane already made
    ``queue_len - 1`` inserts at or after t — a suffix minimum over the
    inserts ordered by that earlier insert's round.  Pointer doubling over
    the epoch starts then counts every slice's flushes along its whole
    chain at once.
    """
    *lead, rounds, lanes = mask.shape
    fill = np.asarray(carry, dtype=np.int64).reshape(-1, lanes)
    num = fill.shape[0]
    mask = mask.reshape(num, rounds, lanes)
    virtual = queue_len - 1
    width = virtual + rounds
    span = width + 1
    # inserts per (slice, lane, virtual round), lanes outermost so that
    # the flat positions list each lane's inserts together, in round order
    carried = np.arange(virtual) >= (virtual - fill)[:, :, None]
    flat = np.flatnonzero(np.concatenate([carried, mask.transpose(0, 2, 1)], axis=2))
    lane = flat // width
    rnd = flat - lane * width
    sl = lane // lanes
    key = sl * span + rnd
    rank = np.arange(lane.size) - np.searchsorted(lane, lane)
    # an insert flushes every epoch that starts at or before the round of
    # its lane's insert queue_len - 1 places back
    back = np.flatnonzero(rank >= virtual)
    since = key[back - virtual]
    by_since = np.argsort(since, kind="stable")
    since = since[by_since]
    earliest = np.append(
        np.minimum.accumulate(key[back][by_since][::-1])[::-1], num * span
    )
    # epoch starts: virtual round 0 and one round after each insert round
    is_start = np.zeros((num, span), dtype=bool)
    is_start[:, 0] = True
    is_start[:, virtual + 1 :] = mask.any(axis=2)
    starts = np.flatnonzero(is_start)
    flush = earliest[np.searchsorted(since, starts)]
    flushed = flush // span == starts // span
    jump = np.where(
        flushed, np.searchsorted(starts, flush + 1), np.arange(starts.size)
    )
    count = flushed.astype(np.int64)
    for _ in range(starts.size.bit_length()):
        count += count[jump]
        jump = jump[jump]
    origin = np.arange(num) * span
    entry = np.searchsorted(starts, origin)
    last = starts[jump[entry]] - origin
    fill_out = np.bincount(lane[rnd >= last[sl]], minlength=num * lanes)
    return count[entry].reshape(lead), fill_out.reshape(*lead, lanes)


def best_first(
    keys: np.ndarray, idx: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Each row's best ``k`` of ``(keys, idx)``, best first.

    Order: key first, a real element before padding (index -1), then
    column.  Padding carries the all-ones sentinel key, which a real
    element's key can equal on integer data (uint32 0xFFFFFFFF selected
    smallest, or 0 selected largest); such an element must still beat the
    padding.  Keys that fit 32 bits are packed over their column, padding
    columns moved past every real one, and the ``k`` smallest unique
    entries taken; wider keys take :func:`~repro.primitives.lex_order`.
    """
    if keys.ndim != 2 or keys.shape != idx.shape:
        raise ValueError(
            f"keys and idx must be (rows, width) of one shape, "
            f"got {keys.shape} and {idx.shape}"
        )
    width = keys.shape[1]
    if not 1 <= k <= width:
        raise ValueError(f"k must be in [1, {width}] (the row width), got k={k}")
    if fits(keys) and 2 * width <= LOW:
        col = np.arange(width, dtype=np.uint64)
        packed = pack(keys, np.where(idx < 0, col + np.uint64(width), col))
        order = (unpack(smallest(packed, k))[1] % np.uint64(width)).astype(np.intp)
    else:
        order = lex_order(keys, idx < 0)[:, :k]
    order += np.arange(order.shape[0])[:, None] * width
    return np.take(keys, order), np.take(idx, order)


def _qualified(mask: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Row, column and list slot of each slice's qualified entries.

    Slot j of a row holds its j-th qualified entry in position order.
    """
    flat = np.flatnonzero(mask)
    rows = flat // mask.shape[1]
    cols = flat - rows * mask.shape[1]
    slot = np.arange(rows.size) - (np.cumsum(counts) - counts)[rows]
    return rows, cols, slot


class _PackedTopK:
    """Every slice's maintained top-k, packed for keys of at most 32 bits.

    An entry is a (key, position) pair packed by
    :func:`~repro.primitives.order.pack` and each row stays sorted, so a
    merge is one partition of the row and the chunk's candidates.  This is
    :func:`best_first`'s order: that breaks key ties by column, maintained
    entries first, and every maintained entry comes from an earlier
    position than any candidate and is already in (key, position) order.
    Padding, and every unqualified candidate, is the sentinel key over
    ``LOW``, a position no real element holds.
    """

    def __init__(self, num_slices: int, k: int, dtype: np.dtype) -> None:
        self.k, self.dtype = k, dtype
        self.pad = pack(sentinel_for(dtype), LOW)
        self.packed = np.full((num_slices, k), self.pad, dtype=np.uint64)

    def last(self) -> tuple[np.ndarray, np.ndarray]:
        """Each slice's k-th best key, and whether that entry is padding."""
        key, position = unpack(self.packed[:, -1])
        return key.astype(self.dtype), position == LOW

    def merge(
        self,
        block: np.ndarray,
        mask: np.ndarray,
        counts: np.ndarray,
        maxc: int,
        pos: int,
    ) -> None:
        """Merge each slice's qualified ``block`` entries into its top-k."""
        num, c = block.shape
        if 4 * maxc >= c:
            # dense: pack the whole block, unqualified entries padding
            cand = pack(block, np.arange(pos, pos + c, dtype=np.uint64))
            cand[~mask] = self.pad
        else:
            # sparse: each slice's qualified entries, padded to the longest
            cand = np.full((num, maxc), self.pad, dtype=np.uint64)
            rows, cols, slot = _qualified(mask, counts)
            cand[rows, slot] = pack(block[rows, cols], cols + pos)
        self.packed = smallest(np.concatenate([self.packed, cand], axis=1), self.k)

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """The maintained keys and positions, -1 where padding."""
        keys, pos = unpack(self.packed)
        return keys.astype(self.dtype), np.where(pos == LOW, -1, pos.astype(np.int64))


class _WideTopK:
    """Every slice's maintained top-k as (keys, positions), for 64-bit keys."""

    def __init__(self, num_slices: int, k: int, dtype: np.dtype) -> None:
        self.k = k
        self.keys = np.full((num_slices, k), sentinel_for(dtype), dtype=dtype)
        self.idx = np.full((num_slices, k), -1, dtype=np.int64)

    def last(self) -> tuple[np.ndarray, np.ndarray]:
        """Each slice's k-th best key, and whether that entry is padding."""
        return self.keys[:, -1], self.idx[:, -1] < 0

    def merge(
        self,
        block: np.ndarray,
        mask: np.ndarray,
        counts: np.ndarray,
        maxc: int,
        pos: int,
    ) -> None:
        """Merge each slice's qualified ``block`` entries into its top-k."""
        # maintained entries, then each slice's candidates in position
        # order, padded to the longest candidate list
        num, k = block.shape[0], self.k
        width = k + maxc
        all_keys = np.full((num, width), sentinel_for(block.dtype), dtype=block.dtype)
        all_idx = np.full((num, width), -1, dtype=np.int64)
        all_keys[:, :k] = self.keys
        all_idx[:, :k] = self.idx
        rows, cols, slot = _qualified(mask, counts)
        all_keys[rows, k + slot] = block[rows, cols]
        all_idx[rows, k + slot] = pos + cols
        self.keys, self.idx = best_first(all_keys, all_idx, k)

    def result(self) -> tuple[np.ndarray, np.ndarray]:
        """The maintained keys and positions, -1 where padding."""
        return self.keys, self.idx


def emulate_queue_select(
    slices: np.ndarray,
    k: int,
    *,
    lanes: int,
    mode: str,
    queue_len: int,
    valid_lengths: np.ndarray | None = None,
) -> QueueRunResult:
    """Run the queue-select skeleton over independent slices.

    ``slices`` is (num_slices, slice_len) of ``uint32`` keys (sentinel-padded
    if slice lengths differ).  ``lanes`` is the number of lockstep lanes per
    slice (32 for one warp, 128 for a 4-warp block).  ``queue_len`` is the
    per-lane queue length in ``thread`` mode, the shared-queue capacity in
    ``shared`` mode.

    ``valid_lengths`` (per-slice count of leading real elements, defaulting
    to the full slice) lets sentinel-padded slices distinguish padding from
    a *real* element whose key equals the sentinel — integer dtypes can
    produce the all-ones key (uint32 0xFFFFFFFF smallest, 0 largest), and
    such an element must still be admitted while the maintained top-k has
    unfilled slots.
    """
    if mode not in ("thread", "shared"):
        raise ValueError(f"mode must be 'thread' or 'shared', got {mode!r}")
    if slices.ndim != 2:
        raise ValueError(f"expected (slices, len) keys, got shape {slices.shape}")
    if lanes <= 0 or queue_len <= 0:
        raise ValueError("lanes and queue_len must be positive")
    if k < 1:
        raise ValueError(f"k must be >= 1, got k={k}")
    num_slices, length = slices.shape
    if valid_lengths is None:
        valid_lengths = np.full(num_slices, length, dtype=np.int64)
    else:
        valid_lengths = np.asarray(valid_lengths, dtype=np.int64)
        if valid_lengths.shape != (num_slices,):
            raise ValueError(
                f"valid_lengths must have shape ({num_slices},), "
                f"got {valid_lengths.shape}"
            )
    rounds = -(-length // lanes)

    # the packed state holds the sentinel key and a position per entry
    packs = fits(sentinel_for(slices.dtype)) and length < LOW
    top = (_PackedTopK if packs else _WideTopK)(num_slices, k, slices.dtype)
    inserted = np.zeros(num_slices, dtype=np.int64)
    if mode == "thread":
        # every chunk's inserts, in whole rounds; the last round's tail
        # stays False
        qualified = np.zeros((num_slices, rounds * lanes), dtype=bool)

    pos = 0
    chunk = lanes * 8
    max_chunk = max(lanes * 8, 1 << 14)
    while pos < length:
        c = min(chunk, length - pos)
        block = slices[:, pos : pos + c]
        threshold, has_pad = top.last()
        threshold = threshold[:, None]
        mask = block < threshold
        # sentinel-keyed *real* elements tie with the initial threshold and
        # would never qualify under `<`; admit them while the maintained
        # top-k still holds padding (padding sorts last, so the final slot
        # tells).  Refreshed per chunk, like the threshold.
        if has_pad.any():
            is_real = (
                np.arange(pos, pos + c, dtype=np.int64)[None, :]
                < valid_lengths[:, None]
            )
            mask |= has_pad[:, None] & is_real & (block == threshold)
        per_slice_q = mask.sum(axis=1)
        inserted += per_slice_q
        if mode == "thread":
            qualified[:, pos : pos + c] = mask

        # --- merge qualified candidates into the maintained top-k ---------
        maxc = int(per_slice_q.max()) if num_slices else 0
        if maxc:
            top.merge(block, mask, per_slice_q, maxc, pos)

        pos += c
        # adapt: once the threshold is tight, qualified elements are rare and
        # larger chunks amortise the Python overhead without extra flushes
        if maxc <= max(4, queue_len // 4):
            chunk = min(chunk * 2, max_chunk)

    # --- flush counting (the discipline difference) -----------------------
    if mode == "shared":
        flushes = (inserted // queue_len).sum()
    else:
        per_round = qualified.reshape(num_slices, rounds, lanes)
        busy = np.count_nonzero(per_round, axis=2)
        # d leading rounds in which every lane inserts flush d // queue_len
        # times and leave each lane holding d % queue_len
        lead = np.logical_and.accumulate(busy == lanes, axis=1).sum(axis=1)
        carry = np.repeat((lead % queue_len)[:, None], lanes, axis=1)
        flushes = (lead // queue_len).sum()
        # lane counts only grow: a slice whose lanes all stay below
        # queue_len after the lead flushes no more
        rest = carry + np.count_nonzero(per_round, axis=1) - lead[:, None]
        flushing = rest.max(axis=1) >= queue_len
        if flushing.any():
            # a round without inserts leaves the flush chain as it was:
            # each slice's later inserting rounds, moved to the front
            later = (busy > 0) & (np.arange(rounds) >= lead[:, None])
            later &= flushing[:, None]
            counts = np.count_nonzero(later, axis=1)
            rows, rnd, slot = _qualified(later, counts)
            compact = np.zeros((num_slices, counts.max(), lanes), dtype=bool)
            compact[rows, slot] = per_round[rows, rnd]
            flushes += _thread_mode_flushes(
                compact[flushing], carry[flushing], queue_len
            )[0].sum()
    stats = QueueStats.counted(
        rounds=rounds * num_slices,
        inserts=int(inserted.sum()),
        flushes=int(flushes),
        capacity=flush_capacity(mode, queue_len, lanes),
        k=k,
    )
    if metrics_enabled():
        registry = get_metrics()
        registry.counter("queue.rounds", mode=mode).inc(stats.rounds)
        registry.counter("queue.inserts", mode=mode).inc(stats.inserts)
        registry.counter("queue.flushes", mode=mode).inc(stats.flushes)
    keys, indices = top.result()
    return QueueRunResult(keys=keys, indices=indices, stats=stats)


def slice_rows(
    row_keys: np.ndarray, num_slices: int
) -> tuple[np.ndarray, np.ndarray]:
    """Split each row into ``num_slices`` contiguous sentinel-padded slices.

    Returns ``(slices, offsets)`` where ``slices`` is
    (batch * num_slices, ceil(n / num_slices)) and ``offsets`` gives each
    slice's starting position in its original row.
    """
    if row_keys.ndim != 2:
        raise ValueError(f"expected (batch, n) keys, got {row_keys.shape}")
    batch, n = row_keys.shape
    if num_slices <= 0:
        raise ValueError(f"num_slices must be positive, got {num_slices}")
    per = -(-n // num_slices)
    if n == num_slices * per:
        slices = row_keys.reshape(batch * num_slices, per)
    else:
        padded = np.full(
            (batch, num_slices * per),
            sentinel_for(row_keys.dtype),
            dtype=row_keys.dtype,
        )
        padded[:, :n] = row_keys
        slices = padded.reshape(batch * num_slices, per)
    offsets = np.tile(np.arange(num_slices, dtype=np.int64) * per, batch)
    return slices, offsets


class QueueSelect(TopKAlgorithm):
    """One driver for the queue family: emulate, charge, merge.

    Each problem is sliced into :meth:`num_blocks` blocks of ``lanes``
    lockstep threads; one emulation covers every block of the batch, and
    the run charges :meth:`schedule`: one main kernel priced from the
    variant's cost record (:func:`repro.perf.calibration.queue_cost`),
    and a merge kernel that reduces each problem's per-block top-k only
    when it spans more than one block.  The predictor replays the same
    schedule with expected counts.  A variant declares its lanes, cost
    record and kernel names.
    """

    category = "partial sorting"
    max_k = 2048
    on_the_fly = True
    batched_execution = True  # one block (or grid of blocks) per problem

    #: lockstep lanes, i.e. threads, per block
    lanes: int
    #: name of the main kernel's :func:`~repro.perf.calibration.queue_cost`
    cost_record: str
    #: the main kernel, and the merge launched when a problem spans blocks
    kernel_name: str
    merge_name: str = ""

    def num_blocks(self, spec, nominal_n: int) -> int:
        """Blocks per problem: one, unless the variant spans a grid."""
        return 1

    def _telemetry(self, stats: QueueStats) -> dict | None:
        """The main kernel's span args."""
        return None

    def _run(self, ctx: RunContext) -> tuple[np.ndarray, np.ndarray]:
        batch, n = ctx.keys.shape
        k = ctx.k
        blocks = self.num_blocks(ctx.device.spec, ctx.nominal_n)
        costs = cal.queue_cost(self.cost_record)
        slices, lengths = ctx.keys, None
        if blocks > 1:
            slices, offsets = slice_rows(ctx.keys, blocks)
            # real elements per slice: a row's trailing slices may be padded
            lengths = np.clip(n - offsets, 0, slices.shape[1])
        result = emulate_queue_select(
            slices,
            k,
            lanes=self.lanes,
            mode=costs.mode,
            queue_len=costs.queue_len,
            valid_lengths=lengths,
        )
        ctx.device.charge(self.schedule(ctx.device.spec, ctx.shape, result.stats))
        if blocks == 1:
            return result.keys, result.indices
        # local slice positions -> row positions
        idx = np.where(result.indices >= 0, result.indices + offsets[:, None], -1)
        return best_first(
            result.keys.reshape(batch, blocks * k), idx.reshape(batch, blocks * k), k
        )

    def schedule(self, spec, run: RunShape, counts: QueueStats) -> list[Step]:
        """Every launch of a run: the main kernel, then the merge when a
        problem spans blocks.  ``counts`` are the run's queue counts."""
        batch, n, k = run.batch, run.n, run.k
        blocks = self.num_blocks(spec, run.nominal_n)
        costs = cal.queue_cost(self.cost_record)
        flush_comps = (
            counts.merge_comparators / counts.flushes if counts.flushes else 0.0
        )
        launches = [Step.launch(
            self.kernel_name,
            grid_blocks=batch * blocks,
            block_threads=self.lanes,
            bytes_read=4.0 * batch * n,
            bytes_written=8.0 * batch * blocks * k,
            flops=(
                costs.ops_per_elem * cal.queue_k_ops_factor(run.nominal_k) * batch * n
                + cal.OPS_PER_COMPARATOR * counts.merge_comparators
            ),
            # every block runs the same rounds concurrently; a flush stalls
            # its block while the comparators execute lanes-wide
            dependent_cycles=(
                ceil_div(ceil_div(n, blocks), self.lanes) * costs.round_cycles
                + counts.flushes / (batch * blocks) * (flush_comps / self.lanes)
                * cal.FLUSH_CYCLES_PER_LANE_COMPARATOR
            ),
            fixed_dependent_cycles=costs.fixed_cycles
            + batch * cal.QUEUE_PER_PROBLEM_CYCLES,
            warp_efficiency=costs.warp_efficiency,
            span_args=self._telemetry(counts),
        )]
        if blocks > 1:
            # one block per problem reduces its per-block top-k candidates
            launches.append(Step.launch(
                self.merge_name,
                grid_blocks=batch,
                block_threads=self.lanes,
                bytes_read=8.0 * batch * blocks * k,
                bytes_written=8.0 * batch * k,
                flops=cal.OPS_PER_COMPARATOR
                * batch
                * comparator_count_sort(next_pow2(max(2, blocks * k))),
            ))
        return launches
