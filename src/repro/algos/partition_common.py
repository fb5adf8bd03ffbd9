"""Shared fused-batch driver of the partition family (GpuSelection, Sec. 2.2).

BucketSelect, QuickSelect and SampleSelect shrink each row's candidates
one split at a time until they fit a single-block sort.  They differ only
in the split rule (linear min/max buckets, a median-of-3 pivot, sampled
splitters) and its kernels, so :class:`PartitionSelect` owns the rest:

* the terminal fast path: a batch whose rows already fit the terminal
  sort is finished by one fused sort;
* the :class:`Frontier`: per-row results still owed and candidate counts,
  the active rows' flat candidates, the emitted results and the rows
  retired to the terminal sort;
* the iteration loop: settled rows (small enough, or finished) retire
  before each step, and the ``max_iterations`` cap retires the rest;
* one shared terminal sort over every row still owing results, and the
  assembly with its result-count check;
* the schedule: the run records a :class:`Level` per iteration (its
  active rows and candidates at the split, BucketSelect's min/max pass
  before flat rows retire, SampleSelect's sample bytes and comparators)
  and a :class:`Terminal` for the terminal sort or the fast path, then
  charges :meth:`PartitionSelect.schedule` of those counts.  The
  predictor replays the same schedule with expected counts
  (:func:`repro.perf.costmodel._expected_counts`).  A method's
  ``_level`` lists one iteration's steps.

A batch runs fused — the RadiK-style batched scheduling: each iteration
runs one launch set over every active row's candidates and pays one sync
and one batch-sized PCIe round trip, not one per row.  At ``batch=1`` this
is the host-serialised GpuSelection schedule; above it, the reference
code's per-row launches, syncs and PCIe round trips are not charged.

Iteration 0 runs on the input rectangle (:class:`Rect`): every row is
active with the same count, so per-row values broadcast as columns and
the flat state is built only for the candidates that survive the first
split.  Later iterations see the ragged survivors, grouped by ascending
row, through :class:`Flat`.  A method's ``_step`` is written once against
either view.

Emit order is output: ``TopKAlgorithm.select`` sorts each row stably by
key, so among tied keys the index order is the order chunks were emitted.
"""

from __future__ import annotations

import abc
from collections.abc import Callable
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .base import RunContext, RunShape, TopKAlgorithm
from ..device import Step, next_pow2, streaming_grid
from ..perf import calibration as cal
from ..primitives import (
    batched_digit_histogram,
    comparator_count_sort,
    find_target_bucket,
    flat_histogram,
    head_mask,
    lex_order,
    segment_min_max,
    segment_offsets,
    stable_topk_order,
)


def stream_grid(spec, run: RunShape, total: float) -> int:
    """Blocks of a streaming kernel over ``total`` candidates."""
    return streaming_grid(
        spec,
        max(1, int(total * run.scale)),
        items_per_thread=cal.STREAM_ITEMS_PER_THREAD,
    )


class Level(NamedTuple):
    """What one iteration's steps read of a run (:class:`PartitionCounts`)."""

    #: active rows at the split, and their candidates
    rows: int
    total: float
    #: BucketSelect's min/max pass, before rows whose candidates are all
    #: equal retire
    minmax_rows: int = 0
    minmax_total: float = 0.0
    #: SampleSelect's samples over the rows: bytes read, sort comparators
    sample_bytes: float = 0.0
    sample_comparators: float = 0.0


class Terminal(NamedTuple):
    """What the terminal sort (or the fast path's sort) reads of a run."""

    #: rows still owing results (one block each), their candidates, the
    #: results they owe and the comparators of their sorts
    rows: int
    candidates: float
    owed: float
    comparators: float


class PartitionCounts(NamedTuple):
    """The counts :meth:`PartitionSelect.schedule` reads: one
    :class:`Level` per iteration, and the terminal sort if any row still
    owed results."""

    levels: tuple[Level, ...]
    terminal: Terminal | None


class Frontier:
    """Progress of one fused partition run."""

    def __init__(self, batch: int, n: int, k: int, dtype, seed: int) -> None:
        #: results each row still owes, and its candidate count
        self.k_rem = np.full(batch, k, dtype=np.int64)
        self.count = np.full(batch, n, dtype=np.int64)
        self.active = np.ones(batch, dtype=bool)
        #: the active rows' candidates, flat and grouped by ascending row
        self.rows = np.empty(0, dtype=np.int64)
        self.keys = np.empty(0, dtype=dtype)
        self.idx = np.empty(0, dtype=np.int64)
        #: emitted result chunks ``(rows, keys, idx)``, chronological
        self.out: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        #: candidates of the rows retired to the terminal sort, and what
        #: each of those rows still owes
        self.term: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.term_k = np.zeros(batch, dtype=np.int64)
        self._seed = seed
        self._rngs: dict[int, np.random.Generator] = {}

    def rng(self, row: int) -> np.random.Generator:
        """Row ``row``'s stream.  Every row's is seeded identically, so
        each row of a batch draws what a single-shot run of it would."""
        gen = self._rngs.get(row)
        if gen is None:
            gen = self._rngs[row] = np.random.default_rng(self._seed)
        return gen

    def mask(self, rows: np.ndarray) -> np.ndarray:
        """Batch-length mask of ``rows``."""
        m = np.zeros(self.active.size, dtype=bool)
        m[rows] = True
        return m

    def emit(self, rows: np.ndarray, keys: np.ndarray, idx: np.ndarray) -> None:
        self.out.append((rows, keys, idx))

    def retire(self, rows_mask: np.ndarray) -> None:
        """Move ``rows_mask`` rows out of the iteration; rows with results
        still owed go to the shared terminal sort."""
        owed = rows_mask & (self.k_rem > 0)
        if owed.any():
            sel = owed[self.rows]
            self.term.append((self.rows[sel], self.keys[sel], self.idx[sel]))
            self.term_k[owed] = self.k_rem[owed]
        keep = ~rows_mask[self.rows]
        self.rows, self.keys, self.idx = (
            self.rows[keep],
            self.keys[keep],
            self.idx[keep],
        )
        self.active[rows_mask] = False


class Rect:
    """Iteration 0: input rows ``rows``, every column a candidate."""

    def __init__(self, rows: np.ndarray, keys: np.ndarray) -> None:
        self.rows = rows
        self.keys = keys
        self.total = keys.size

    def spread(self, per_row: np.ndarray) -> np.ndarray:
        return per_row[:, None]

    def per_row(self, a: np.ndarray):
        return iter(a)

    def row_sum(self, mask: np.ndarray) -> np.ndarray:
        return mask.sum(axis=1)

    def first(self, mask: np.ndarray, take: np.ndarray) -> np.ndarray:
        """``mask`` cut to its first ``take[i]`` elements in each row."""
        return mask & (np.cumsum(mask, axis=1) - 1 < take[:, None])

    def take(self, mask: np.ndarray):
        pos = np.flatnonzero(mask)
        r, c = np.divmod(pos, self.keys.shape[1])
        if self.rows[-1] != self.rows.size - 1:  # not every input row
            r = self.rows[r]
        return r, self.keys.ravel()[pos], c

    def min_max(self):
        return self.keys.min(axis=1), self.keys.max(axis=1)

    def histogram(self, buckets: np.ndarray, num_buckets: int) -> np.ndarray:
        return batched_digit_histogram(buckets, num_buckets)

    def drop(self, f: Frontier, sel: np.ndarray) -> "Rect":
        """Retire rows ``sel`` with all their candidates; the rest's view."""
        gone = self.rows[sel]
        n = self.keys.shape[1]
        f.rows = np.repeat(gone, n)
        f.keys = self.keys[sel].ravel()
        f.idx = np.tile(np.arange(n, dtype=np.int64), gone.size)
        f.retire(f.mask(gone))
        return Rect(self.rows[~sel], self.keys[~sel])


class Flat:
    """Iterations 1+: the frontier's candidates of active rows ``rows``."""

    def __init__(self, f: Frontier, rows: np.ndarray) -> None:
        self.f = f
        self.rows = rows
        self.keys = f.keys
        self.counts = f.count[rows]
        self.total = int(self.counts.sum())

    @cached_property
    def offsets(self) -> np.ndarray:
        return segment_offsets(self.counts)

    @cached_property
    def local(self) -> np.ndarray:
        """Each candidate's position in ``rows`` (a plain repeat, since
        the flat state is grouped by ascending row)."""
        return np.repeat(np.arange(self.rows.size, dtype=np.int64), self.counts)

    def spread(self, per_row: np.ndarray) -> np.ndarray:
        return per_row[self.local]

    def per_row(self, a: np.ndarray):
        o = self.offsets
        return (a[o[i] : o[i + 1]] for i in range(self.rows.size))

    def row_sum(self, mask: np.ndarray) -> np.ndarray:
        # reduceat reads an empty segment as its next element; active rows
        # always hold more than ``terminal_size`` candidates
        assert self.counts.min() > 0, "Flat.row_sum over an empty row"
        return np.add.reduceat(mask, self.offsets[:-1], dtype=np.int64)

    def first(self, mask: np.ndarray, take: np.ndarray) -> np.ndarray:
        """``mask`` cut to its first ``take[i]`` elements in each row."""
        pos = np.flatnonzero(mask)
        loc = self.local[pos]
        starts = np.searchsorted(loc, np.arange(self.rows.size))
        ordinal = np.arange(pos.size, dtype=np.int64) - starts[loc]
        out = np.zeros_like(mask)
        out[pos[ordinal < take[loc]]] = True
        return out

    def take(self, mask: np.ndarray):
        pos = np.flatnonzero(mask)
        return self.f.rows[pos], self.keys[pos], self.f.idx[pos]

    def min_max(self):
        return segment_min_max(self.keys, self.offsets)

    def histogram(self, buckets: np.ndarray, num_buckets: int) -> np.ndarray:
        return flat_histogram(self.local, buckets, self.rows.size, num_buckets)

    def drop(self, f: Frontier, sel: np.ndarray) -> "Flat":
        """Retire rows ``sel`` with all their candidates; the rest's view."""
        f.retire(f.mask(self.rows[sel]))
        return Flat(f, self.rows[~sel])


class PartitionSelect(TopKAlgorithm):
    """One fused partition run; subclasses supply ``_step`` and ``_level``."""

    library = "GpuSelection"
    category = "partition-based"
    max_k = None
    batched_execution = True  # fused batched scheduling (module docstring)

    #: candidate count at or below which a single-block sort finishes a row
    terminal_size = cal.PARTITION_TERMINAL_SIZE
    #: hard iteration cap; rows still active at it go to the terminal sort
    max_iterations = 64
    #: kernel-name prefix: ``<prefix>TerminalSort`` (and ``<prefix>Filter``)
    kernel_prefix = ""

    @abc.abstractmethod
    def _step(self, ctx: RunContext, f: Frontier, view: Rect | Flat) -> Level:
        """One split of every row in ``view``: emit the candidates that are
        surely results, keep the ones that may be, update the counts.
        Returns what the iteration's steps read."""

    @abc.abstractmethod
    def _level(self, spec, run: RunShape, level: Level) -> list[Step]:
        """The steps of one iteration."""

    def schedule(
        self, spec, run: RunShape, counts: PartitionCounts
    ) -> list[Step]:
        """Every step of a run: each iteration's launch set and host round
        trip, then the terminal sort.  ``counts`` are the run's
        per-iteration counts."""
        steps = []
        for level in counts.levels:
            steps += self._level(spec, run, level)
        term = counts.terminal
        if term is not None:
            steps += [
                Step.launch(
                    f"{self.kernel_prefix}TerminalSort",
                    grid_blocks=term.rows,
                    block_threads=256,
                    bytes_read=8.0 * term.candidates,
                    bytes_written=8.0 * term.owed,
                    flops=cal.OPS_PER_COMPARATOR * term.comparators,
                ),
                Step.sync("sync_final"),
            ]
        return steps

    def _select(
        self, ctx: RunContext
    ) -> tuple[np.ndarray, np.ndarray, PartitionCounts]:
        keys2d = ctx.keys
        batch, n = keys2d.shape

        # terminal fast path: every row already fits the terminal sort, so
        # one fused sort finishes the batch without any flat state
        if n <= max(self.terminal_size, ctx.k):
            order = stable_topk_order(keys2d, ctx.k)
            comparators = comparator_count_sort(next_pow2(max(2, n))) * batch
            term = Terminal(batch, batch * n, batch * ctx.k, comparators)
            return (
                np.take_along_axis(keys2d, order, axis=1),
                order.astype(np.int64),
                PartitionCounts((), term),
            )

        f = Frontier(batch, n, ctx.k, keys2d.dtype, ctx.seed)
        levels = [self._step(ctx, f, Rect(np.arange(batch), keys2d))]
        for _ in range(1, self.max_iterations):
            settled = f.active & (
                (f.k_rem == 0) | (f.count <= np.maximum(self.terminal_size, f.k_rem))
            )
            if settled.any():
                f.retire(settled)
            rows = np.flatnonzero(f.active)
            if not rows.size:
                break
            levels.append(self._step(ctx, f, Flat(f, rows)))
        else:  # iteration cap: remaining rows owe results to the terminal
            f.retire(f.active.copy())

        # one shared terminal sort covers every row that still owes results
        term = None
        if f.term:
            term_rows, term_keys, term_idx = (
                np.concatenate(c) for c in zip(*f.term)
            )
            # stable (row, key) order == per-row stable argsort by key
            order = lex_order(term_rows, term_keys)
            term_rows = term_rows[order]
            seg = np.bincount(term_rows, minlength=batch)
            mask = head_mask(seg, f.term_k)
            f.emit(
                term_rows[mask], term_keys[order][mask], term_idx[order][mask]
            )
            owing = seg[seg > 0]
            comparators = sum(
                comparator_count_sort(next_pow2(max(2, int(c)))) for c in owing
            )
            term = Terminal(
                int(owing.size), int(owing.sum()), int(f.term_k.sum()), comparators
            )

        all_rows, all_keys, all_idx = (np.concatenate(c) for c in zip(*f.out))
        totals = np.bincount(all_rows, minlength=batch)
        if not (totals == ctx.k).all():
            bad = int(np.flatnonzero(totals != ctx.k)[0])
            raise AssertionError(
                f"{type(self).__name__} produced {int(totals[bad])} results "
                f"for row {bad}, expected {ctx.k}"
            )
        order = np.argsort(all_rows, kind="stable")
        return (
            all_keys[order].reshape(batch, ctx.k),
            all_idx[order].reshape(batch, ctx.k),
            PartitionCounts(tuple(levels), term),
        )


class BucketPartition(PartitionSelect):
    """A method that splits each row into ``num_buckets`` ordered buckets
    and keeps the one holding the k-th result (BucketSelect, SampleSelect)."""

    num_buckets = cal.PARTITION_BUCKETS
    #: the histogram kernel's name and its per-candidate operations
    histogram_kernel = ""
    histogram_ops = 0.0

    def _split(
        self,
        f: Frontier,
        view: Rect | Flat,
        psum: np.ndarray,
        split: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
    ) -> np.ndarray:
        """Target bucket; emit the buckets below the target, keep the
        target.  ``psum`` is each row's cumulative bucket histogram (row
        i's candidates in buckets ``0..j`` at ``[i, j]``); ``split(target)``
        returns the candidate masks ``(win, keep)`` of the buckets below
        each row's target and of the target itself.  Returns which rows
        kept every candidate."""
        rows = view.rows
        target = np.asarray(find_target_bucket(psum, f.k_rem[rows]), dtype=np.int64)
        win, keep = split(target)
        at = np.arange(rows.size)
        below = np.where(target > 0, psum[at, target - 1], 0)
        in_target = psum[at, target] - below
        if below.any():
            f.emit(*view.take(win))
            f.k_rem[rows] -= below
        f.rows, f.keys, f.idx = view.take(keep)
        stuck = in_target == f.count[rows]
        f.count[rows] = in_target
        return stuck

    def _split_steps(
        self, spec, run: RunShape, rows: int, total: float
    ) -> list[Step]:
        """The bucket split's steps over ``rows`` active rows holding
        ``total`` candidates: histogram, its round trip and host scan, the
        offset scan, the filtering scatter."""
        nb = self.num_buckets
        stream = dict(grid_blocks=stream_grid(spec, run, total), block_threads=256)
        return [
            Step.launch(
                self.histogram_kernel,
                **stream,
                bytes_read=4.0 * total,
                bytes_written=rows * nb * 4.0,
                flops=self.histogram_ops * total,
            ),
            Step.sync("sync_hist"),
            Step.d2h("MemcpyDtoH(hist)", rows * nb * 4.0),
            Step.host("host_scan", cal.HOST_SCAN_SECONDS * rows),
            # bucket offsets are scanned on the device before scattering —
            # one block per active row
            Step.launch(
                "ScanBucketOffsets",
                grid_blocks=rows,
                block_threads=256,
                bytes_read=rows * nb * 4.0,
                bytes_written=rows * nb * 4.0,
                flops=float(rows * nb * 8),
                scalable=False,
            ),
            Step.sync("sync_scan"),
            Step.launch(
                f"{self.kernel_prefix}Filter",
                **stream,
                bytes_read=8.0 * total,
                # the reference implementation scatters the whole candidate
                # array into grouped buckets, not only the surviving one
                bytes_written=cal.SCATTER_WRITE_PENALTY * 8.0 * total,
                flops=cal.FILTER_OPS_PER_ELEM * total,
            ),
            Step.sync("sync_filter"),
        ]
