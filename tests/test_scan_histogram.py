"""Tests for prefix scans, target-bucket search and digit histograms.

The histogram tests run on one-row batches of
:func:`batched_digit_histogram`, the radix kernels' histogram."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.primitives import (
    batched_digit_histogram,
    block_scan_ops,
    find_target_bucket,
    inclusive_scan,
)


def digit_histogram(digits, num_buckets: int) -> np.ndarray:
    """The histogram of one row of digits."""
    return batched_digit_histogram(np.asarray(digits)[None, :], num_buckets)[0]


class TestScans:
    def test_inclusive(self):
        assert np.array_equal(inclusive_scan(np.array([1, 2, 3])), [1, 3, 6])

    def test_block_scan_ops(self):
        assert block_scan_ops(1) == 0
        assert block_scan_ops(2048) == 2048 * 11
        with pytest.raises(ValueError):
            block_scan_ops(0)


class TestFindTargetBucket:
    def test_paper_figure1_example(self):
        """Fig. 1 of the paper: N=9, K=4, histogram [3, 2, 1, 3]."""
        hist = np.array([3, 2, 1, 3])
        psum = inclusive_scan(hist)
        target = find_target_bucket(psum, 4)
        assert target == 1  # digit '01', because psum[1] = 5 >= 4 > psum[0] = 3

    def test_first_bucket(self):
        psum = inclusive_scan(np.array([5, 1, 1]))
        assert find_target_bucket(psum, 1) == 0
        assert find_target_bucket(psum, 5) == 0
        assert find_target_bucket(psum, 6) == 1

    def test_last_bucket(self):
        psum = inclusive_scan(np.array([1, 0, 3]))
        assert find_target_bucket(psum, 4) == 2

    def test_skips_empty_buckets(self):
        psum = inclusive_scan(np.array([0, 0, 4, 0]))
        assert find_target_bucket(psum, 1) == 2

    def test_k_out_of_range(self):
        psum = inclusive_scan(np.array([2, 2]))
        with pytest.raises(ValueError):
            find_target_bucket(psum, 0)
        with pytest.raises(ValueError):
            find_target_bucket(psum, 5)

    def test_batched(self):
        hists = np.array([[3, 2, 1], [1, 1, 4]])
        psum = inclusive_scan(hists, axis=1)
        out = find_target_bucket(psum, np.array([4, 3]))
        assert np.array_equal(out, [1, 2])

    def test_batched_validates_k_shape(self):
        psum = inclusive_scan(np.ones((2, 4), dtype=int), axis=1)
        with pytest.raises(ValueError):
            find_target_bucket(psum, np.array([1, 1, 1]))


class TestHistogram:
    def test_basic(self):
        digits = np.array([0, 1, 1, 3, 3, 3])
        assert np.array_equal(digit_histogram(digits, 4), [1, 2, 0, 3])

    def test_empty(self):
        assert np.array_equal(digit_histogram(np.array([], dtype=np.int64), 4), [0] * 4)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            digit_histogram(np.array([4]), 4)
        with pytest.raises(ValueError):
            digit_histogram(np.array([-1]), 4)

    @pytest.mark.parametrize("dtype", ["u1", "u2", "u4", "u8", "i4", "i8"])
    def test_too_large_digit_rejected_for_every_dtype(self, dtype):
        digits = np.array([0, 3, 4, 1], dtype=dtype)
        with pytest.raises(
            ValueError, match=r"^digit values outside \[0, 4\): min=0, max=4$"
        ):
            digit_histogram(digits, 4)

    @pytest.mark.parametrize("dtype", ["u1", "u2", "u8", "i8"])
    def test_dtype_maximum_rejected(self, dtype):
        """Digits far past the buckets, which would wrap negative in
        bincount's index type or need an impossible allocation, are
        rejected before any count is made."""
        top = np.iinfo(dtype).max
        digits = np.array([1, top], dtype=dtype)
        with pytest.raises(
            ValueError, match=rf"^digit values outside \[0, 4\): min=1, max={top}$"
        ):
            digit_histogram(digits, 4)

    @pytest.mark.parametrize("dtype", ["i4", "i8"])
    def test_negative_digit_rejected_for_signed_dtypes(self, dtype):
        digits = np.array([2, -1, 3], dtype=dtype)
        with pytest.raises(
            ValueError, match=r"^digit values outside \[0, 4\): min=-1, max=3$"
        ):
            digit_histogram(digits, 4)

    def test_batched_matches_per_row(self, rng):
        digits = rng.integers(0, 16, size=(5, 200)).astype(np.uint32)
        batched = batched_digit_histogram(digits, 16)
        for row in range(5):
            assert np.array_equal(
                batched[row], np.bincount(digits[row], minlength=16)
            )

    def test_batched_requires_2d(self):
        with pytest.raises(ValueError):
            batched_digit_histogram(np.zeros(4, dtype=np.uint32), 4)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=200),
    st.integers(min_value=1, max_value=200),
)
def test_target_bucket_invariant(digit_list, k_raw):
    """psum[j-1] < K <= psum[j] — the paper's Sec. 2.3 definition."""
    digits = np.array(digit_list)
    hist = digit_histogram(digits, 16)
    psum = inclusive_scan(hist)
    k = 1 + (k_raw - 1) % len(digit_list)
    j = int(find_target_bucket(psum, k))
    assert psum[j] >= k
    assert j == 0 or psum[j - 1] < k


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=7), min_size=0, max_size=64))
def test_histogram_sums_to_count(digit_list):
    digits = np.array(digit_list, dtype=np.int64)
    hist = digit_histogram(digits, 8)
    assert hist.sum() == len(digit_list)
    assert (hist >= 0).all()
