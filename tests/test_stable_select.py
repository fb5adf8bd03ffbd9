"""``stable_topk_order`` equals the first k of a stable argsort, and
``partition_topc`` the first ``keep`` of each partition's stable argsort."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.primitives import affine_partitions, partition_topc, stable_topk_order
from repro.primitives import batched
from repro.primitives.select import FULL_SORT_MAX_KEYS, FULL_SORT_SHARE


def reference(keys: np.ndarray, k: int) -> np.ndarray:
    return np.argsort(keys, axis=-1, kind="stable")[..., :k]


def assert_matches(keys: np.ndarray, k: int) -> None:
    got = stable_topk_order(keys, k)
    want = reference(keys, k)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


class TestStableTopkOrder:
    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32, np.uint64])
    @pytest.mark.parametrize("high", [3, 1000, None])
    def test_dtypes_and_ties(self, rng, dtype, high):
        """Wide keys, a few hundred distinct values and heavy ties."""
        high = np.iinfo(dtype).max if high is None else high
        keys = rng.integers(0, high, size=(5, 3000), dtype=dtype, endpoint=True)
        for k in (1, 2, 17, 300, 2000, 2999, 3000):
            assert_matches(keys, k)

    def test_all_equal(self):
        keys = np.full((3, 1000), 7, dtype=np.uint32)
        for k in (1, 500, 1000):
            assert_matches(keys, k)

    def test_k_one_and_n(self, rng):
        keys = rng.integers(0, 50, size=(4, 1024), dtype=np.uint32)
        assert_matches(keys, 1)
        assert_matches(keys, 1024)

    def test_one_dimensional(self, rng):
        keys = rng.integers(0, 10, size=7777, dtype=np.uint32)
        assert_matches(keys, 100)

    def test_three_dimensional(self, rng):
        keys = rng.integers(0, 20, size=(3, 4, 500), dtype=np.uint64)
        for k in (1, 33, 250, 500):
            assert_matches(keys, k)

    def test_non_contiguous(self, rng):
        keys = rng.integers(0, 20, size=(6, 9000), dtype=np.uint32)
        assert_matches(keys[::2, ::3], 40)
        assert_matches(keys.T, 2)

    def test_both_sides_of_the_share_crossover(self, rng):
        keys = rng.integers(0, 30, size=(8, 400), dtype=np.uint32)
        edge = int(FULL_SORT_SHARE * 400)
        for k in (edge - 1, edge, edge + 1):
            assert_matches(keys, k)

    def test_both_sides_of_the_size_crossover(self, rng):
        for n in (FULL_SORT_MAX_KEYS, FULL_SORT_MAX_KEYS + 1):
            keys = rng.integers(0, 30, size=n, dtype=np.uint32)
            assert_matches(keys, 5)

    @pytest.mark.parametrize("k", [-1, 0, 6])
    def test_k_out_of_range(self, k):
        with pytest.raises(ValueError):
            stable_topk_order(np.arange(5, dtype=np.uint32), k)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([np.uint16, np.uint32, np.uint64]),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=1, max_value=3000),
    st.sampled_from([1, 2, 5, 100, None]),
    st.integers(min_value=0, max_value=2**31),
)
def test_matches_stable_argsort(dtype, rows, n, k_raw, high, seed):
    rng = np.random.default_rng(seed)
    high = np.iinfo(dtype).max if high is None else high
    keys = rng.integers(0, high, size=(rows, n), dtype=dtype, endpoint=True)
    k = 1 + (k_raw - 1) % n
    assert_matches(keys, k)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([np.uint16, np.uint32, np.uint64, np.int32]),
    st.sampled_from([(), (3,), (2, 3)]),
    # whole inputs on both sides of FULL_SORT_MAX_KEYS
    st.sampled_from([1, 7, 200, FULL_SORT_MAX_KEYS, FULL_SORT_MAX_KEYS + 1, 5000]),
    st.integers(min_value=0, max_value=2**31),
)
def test_first_minimum_on_integer_keys(dtype, lead, n, seed):
    """k == 1 on integer keys is the first minimum: few distinct values,
    the dtype's extremes included, so most rows hold tied minima."""
    rng = np.random.default_rng(seed)
    info = np.iinfo(dtype)
    values = np.array([info.min, info.min + 1, 0, 1, info.max - 1, info.max], dtype=dtype)
    keys = rng.choice(values, size=lead + (n,))
    got = stable_topk_order(keys, 1)
    want = np.argsort(keys, axis=-1, kind="stable")[..., :1]
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def topc_reference(keys2d, order, sizes, keep):
    """Each partition's first ``keep`` of a stable argsort of its grouped
    keys, partition after partition."""
    grouped = keys2d[:, order]
    starts = np.cumsum(sizes) - sizes
    keys, positions = [], []
    for start, size in zip(starts, sizes):
        part = grouped[:, start : start + size]
        sel = np.argsort(part, axis=1, kind="stable")[:, :keep]
        keys.append(np.take_along_axis(part, sel, axis=1))
        positions.append(order[start : start + size][sel])
    return np.concatenate(keys, axis=1), np.concatenate(positions, axis=1)


def assert_topc(keys2d, order, sizes, keep):
    """``partition_topc`` equals the reference, by the packed path when
    the keys fit 32 bits and by ``stable_topk_order`` otherwise."""
    with mock.patch.object(
        batched, "stable_topk_order", wraps=stable_topk_order
    ) as wide:
        keys, positions = partition_topc(keys2d, order, sizes, keep)
    want_keys, want_positions = topc_reference(keys2d, order, np.asarray(sizes), keep)
    assert keys.dtype == keys2d.dtype and positions.dtype == np.int64
    assert np.array_equal(keys, want_keys)
    assert np.array_equal(positions, want_positions)
    assert wide.called == bool(keys2d.max() > 2**32 - 1)


#: key pools: heavy ties, u16's range, and u64 values on both sides of 2^32
POOLS = {
    "ties": (np.uint32, [0, 1, 2]),
    "u16": (np.uint16, None),
    "u32": (np.uint32, None),
    "u64-narrow": (np.uint64, [0, 7, 2**32 - 2, 2**32 - 1]),
    "u64-wide": (np.uint64, [0, 7, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1]),
}


def _keys(rng, pool, batch, n):
    dtype, values = POOLS[pool]
    if values is None:
        info = np.iinfo(dtype)
        return rng.integers(0, info.max, size=(batch, n), dtype=dtype, endpoint=True)
    return rng.choice(np.array(values, dtype=dtype), size=(batch, n))


class TestPartitionTopc:
    @pytest.mark.parametrize("pool", list(POOLS))
    @pytest.mark.parametrize("batch", [1, 100])
    @pytest.mark.parametrize("n,parts", [(1000, 64), (777, 128), (4100, 512), (50, 7)])
    def test_affine_scatter(self, rng, pool, batch, n, parts):
        """Uneven partitions of the approximate tier's scatter; keep 1,
        2, and the smallest partition's size."""
        keys2d = _keys(rng, pool, batch, n)
        order, sizes = affine_partitions(n, parts, seed=3)
        assert sizes.min() < sizes.max()
        for keep in sorted({1, 2, int(sizes.min())}):
            assert_topc(keys2d, order, sizes, keep)

    @pytest.mark.parametrize("pool", list(POOLS))
    def test_hand_made_grouping(self, rng, pool):
        """A grouping that is not a scatter: partitions of 5, 5, 4, 4, 4
        and 1 over shuffled positions, ascending within each partition;
        keep 1 (the size-1 partition's)."""
        keys2d = _keys(rng, pool, 3, 23)
        sizes = [5, 5, 4, 4, 4, 1]
        parts = np.split(rng.permutation(23), np.cumsum(sizes)[:-1])
        assert_topc(keys2d, np.concatenate([np.sort(p) for p in parts]), sizes, 1)

    def test_one_partition_is_the_stable_topk(self, rng):
        """The approximate tier's stage 2: one partition of every column."""
        keys2d = _keys(rng, "ties", 4, 300)
        for keep in (1, 5, 300):
            keys, positions = partition_topc(keys2d, np.arange(300), [300], keep)
            assert np.array_equal(positions, stable_topk_order(keys2d, keep))

    def test_partition_smaller_than_keep(self):
        with pytest.raises(ValueError, match="keep=3"):
            partition_topc(np.zeros((1, 5), np.uint32), np.arange(5), [3, 2], 3)
