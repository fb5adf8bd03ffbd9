"""Host emulation of the partition family against its plain references.

SampleSelect finds each row's cumulative bucket histogram from the sorted
row and its winners and survivors by comparing against two splitters; the
reference assigns every candidate its bucket id by binary search
(``searchsorted(spl, key, side="right")``) and histograms and compares the
ids.  The views' survivor gathers (``Rect.take``, ``Flat.take``) and
``Flat.row_sum`` are checked against the ``nonzero``, boolean-mask and
``bincount`` forms.  Finally every row of a mixed batch must come back as
a single-row run returns it.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algos import BucketSelect, QuickSelect, SampleSelect
from repro.algos.base import RunContext
from repro.algos.partition_common import Flat, Frontier, Rect
from repro.device import A100, Device
from repro.primitives import priority_keys

NB = SampleSelect.num_buckets
KEY_DTYPES = (np.uint16, np.uint32, np.uint64)


class SplitProbe(SampleSelect):
    """SampleSelect with given splitters that records what ``_step``
    hands to ``_split`` instead of splitting."""

    def __init__(self, splitters: list[np.ndarray]) -> None:
        self._splitters = iter(splitters)
        self.seen: list = []

    def _row_splitters(self, rng, cand):
        return next(self._splitters), self.sample_size

    def _split(self, f, view, psum, split):
        self.seen.append((psum, split))
        return np.zeros(view.rows.size, dtype=bool)


def reference_buckets(keys: np.ndarray, spl: np.ndarray) -> np.ndarray:
    return np.searchsorted(spl, keys, side="right")


def flat_frontier(rows_keys: list[np.ndarray], dtype) -> tuple[Frontier, Flat]:
    """A frontier whose active rows ``0..len-1`` hold ``rows_keys``."""
    batch = len(rows_keys)
    f = Frontier(batch, 1, 1, dtype, seed=0)
    counts = np.array([r.size for r in rows_keys], dtype=np.int64)
    f.count[:] = counts
    f.rows = np.repeat(np.arange(batch), counts)
    f.keys = np.concatenate(rows_keys).astype(dtype)
    f.idx = np.concatenate([np.arange(c, dtype=np.int64) for c in counts])
    return f, Flat(f, np.arange(batch))


@st.composite
def split_cases(draw):
    """Rows of keys with ties, and per-row splitters that reuse row keys,
    repeat, and reach both ends of the key range."""
    dtype = draw(st.sampled_from(KEY_DTYPES))
    top = int(np.iinfo(dtype).max)
    batch = draw(st.integers(1, 3))
    n = draw(st.integers(1, 200))
    pool = st.one_of(
        st.integers(0, 8), st.integers(top - 8, top), st.integers(0, top)
    )
    rows = []
    for _ in range(batch):
        if draw(st.booleans()):  # all equal: every key in one bucket
            rows.append(np.full(n, draw(pool), dtype=dtype))
        else:
            rows.append(np.array(draw(st.lists(pool, min_size=n, max_size=n)), dtype=dtype))
    splitters = []
    for row in rows:
        # splitters from a window of the sorted row and above it leave
        # keys below the first splitter, and may leave some above the last
        # (drawn by numpy from a few drawn parameters, so a failing case
        # shrinks quickly)
        srt = np.sort(row)
        lo = draw(st.integers(0, n - 1))
        hi = draw(st.integers(lo, n - 1))
        share = draw(st.sampled_from((0.0, 0.5, 1.0)))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        in_row = srt[rng.integers(lo, hi + 1, NB - 1)]
        above = rng.integers(srt[lo], top, NB - 1, dtype=dtype, endpoint=True)
        splitters.append(np.sort(np.where(rng.random(NB - 1) < share, in_row, above)))
    target = np.array(
        [draw(st.sampled_from((0, NB - 1, draw(st.integers(0, NB - 1))))) for _ in rows]
    )
    return dtype, rows, splitters, target


class TestRankHistogramSplit:
    def check(self, view, f, rows, splitters, target):
        probe = SplitProbe(splitters)
        ctx = RunContext(
            device=Device(A100), keys=view.keys, k=1, nominal_n=1, nominal_k=1,
            rng=np.random.default_rng(0),
        )
        probe._step(ctx, f, view)
        (psum, split), = probe.seen
        buckets = [reference_buckets(row, spl) for row, spl in zip(rows, splitters)]
        hist = np.stack([np.bincount(b, minlength=NB) for b in buckets])
        np.testing.assert_array_equal(psum, np.cumsum(hist, axis=1))
        win, keep = split(target)
        want_win = np.concatenate([b < t for b, t in zip(buckets, target)])
        want_keep = np.concatenate([b == t for b, t in zip(buckets, target)])
        np.testing.assert_array_equal(np.ravel(win), want_win)
        np.testing.assert_array_equal(np.ravel(keep), want_keep)

    @settings(max_examples=60, deadline=None)
    @given(split_cases())
    def test_rect_matches_bucket_ids(self, case):
        dtype, rows, splitters, target = case
        keys = np.stack(rows)
        f = Frontier(len(rows), keys.shape[1], 1, dtype, seed=0)
        self.check(Rect(np.arange(len(rows)), keys), f, rows, splitters, target)

    @settings(max_examples=60, deadline=None)
    @given(split_cases(), st.data())
    def test_flat_matches_bucket_ids(self, case, data):
        dtype, rows, splitters, target = case
        # ragged rows: cut each row to its own length
        rows = [row[: data.draw(st.integers(1, row.size))] for row in rows]
        f, view = flat_frontier(rows, dtype)
        self.check(view, f, rows, splitters, target)

    def test_end_buckets_have_one_bound(self):
        row = np.array([1, 5, 9, 9, 20, 30], dtype=np.uint32)
        spl = np.repeat(np.array([9, 20], dtype=np.uint32), [200, NB - 201])
        f = Frontier(1, row.size, 1, np.uint32, seed=0)
        for t in (0, NB - 1):
            self.check(Rect(np.arange(1), row[None]), f, [row], [spl], np.array([t]))

    def test_stuck_row_lands_in_the_top_bucket(self):
        row = np.full(50, 7, dtype=np.uint32)
        f = Frontier(1, 50, 1, np.uint32, seed=0)
        probe = SplitProbe([np.full(NB - 1, 7, dtype=np.uint32)])
        ctx = RunContext(
            device=Device(A100), keys=row[None], k=1, nominal_n=50,
            nominal_k=1, rng=np.random.default_rng(0),
        )
        probe._step(ctx, f, Rect(np.arange(1), row[None]))
        (psum, split), = probe.seen
        assert psum[0, -2] == 0 and psum[0, -1] == 50
        win, keep = split(np.array([NB - 1]))
        assert not win.any() and keep.all()


@st.composite
def masked_rects(draw):
    batch = draw(st.integers(1, 6))
    n = draw(st.integers(1, 40))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 50, size=(batch, n)).astype(np.uint32)
    mask = rng.random((batch, n)) < draw(st.floats(0.0, 1.0))
    drop = rng.random(batch) < 0.5
    return keys, mask, drop


class TestGathers:
    @settings(max_examples=80, deadline=None)
    @given(masked_rects())
    def test_rect_take_matches_nonzero(self, case):
        keys, mask, drop = case
        batch = keys.shape[0]
        view = Rect(np.arange(batch), keys)
        cases = [(view, mask)]
        if not drop.all():  # a subset of the input rows
            f = Frontier(batch, keys.shape[1], 1, keys.dtype, seed=0)
            cases.append((view.drop(f, drop), mask[~drop]))
        for v, m in cases:
            r, c = np.nonzero(m)
            got = v.take(m)
            for a, b in zip(got, (v.rows[r], v.keys[m], c)):
                np.testing.assert_array_equal(a, b)
                assert a.dtype == b.dtype

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(1, 40), min_size=1, max_size=6), st.integers(0, 2**16))
    def test_flat_take_and_row_sum(self, counts, seed):
        rng = np.random.default_rng(seed)
        rows = [rng.integers(0, 50, size=c).astype(np.uint32) for c in counts]
        f, view = flat_frontier(rows, np.uint32)
        f.idx = rng.permutation(f.idx.size).astype(np.int64)
        mask = rng.random(view.keys.size) < rng.random()
        got = view.take(mask)
        for a, b in zip(got, (f.rows[mask], f.keys[mask], f.idx[mask])):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype
        np.testing.assert_array_equal(
            view.row_sum(mask), np.bincount(view.local[mask], minlength=len(rows))
        )

    def test_row_sum_refuses_an_empty_row(self):
        _, view = flat_frontier([np.arange(3), np.arange(0)], np.uint32)
        with pytest.raises(AssertionError):
            view.row_sum(np.ones(3, dtype=bool))


def mixed_rows(dtype: str, n: int) -> np.ndarray:
    """A batch of rows that take different paths: plain, heavy ties, a
    constant row, both extremes repeated, a sorted row."""
    rng = np.random.default_rng(11)
    plain = rng.standard_normal(n) * 1000
    ties = rng.integers(0, 5, n).astype(np.float64)
    constant = np.full(n, 3.0)
    extremes = plain.copy()
    extremes[: n // 3] = -1e4
    extremes[-n // 3 :] = 1e4
    ramp = np.arange(n, dtype=np.float64)
    return np.stack([plain, ties, constant, extremes, ramp]).astype(dtype)


@pytest.mark.parametrize("method", [BucketSelect, QuickSelect, SampleSelect])
@pytest.mark.parametrize("dtype", ["float32", "uint64", "int16"])
@pytest.mark.parametrize("k", [1, 37, 1500])
def test_batch_rows_equal_single_row_runs(method, dtype, k):
    data = mixed_rows(dtype, 5000)
    batched = method().select(data, k)
    for i, row in enumerate(data):
        single = method().select(row, k)
        np.testing.assert_array_equal(batched.values[i], single.values)
        np.testing.assert_array_equal(batched.indices[i], single.indices)
        keys = priority_keys(row)
        np.testing.assert_array_equal(
            np.sort(keys[single.indices]), np.sort(keys)[:k]
        )
