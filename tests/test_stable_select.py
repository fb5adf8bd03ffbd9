"""``stable_topk_order`` equals the first k of a stable argsort."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.primitives import stable_topk_order
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
