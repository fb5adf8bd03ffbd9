"""Digit histograms (Sec. 2.3, step 1 of every radix top-k iteration)."""

from __future__ import annotations

import numpy as np


def digit_histogram(digits: np.ndarray, num_buckets: int) -> np.ndarray:
    """Frequencies of each digit value in ``[0, num_buckets)``.

    Equivalent to the atomic-increment histogram a GPU kernel builds in
    shared memory and reduces to device memory.
    """
    if num_buckets <= 0:
        raise ValueError(f"num_buckets must be positive, got {num_buckets}")
    digits = np.asarray(digits)
    # unsigned digits of up to 32 bits — what the radix kernels extract —
    # are checked without a pass of their own: they are never negative,
    # and a too-large one lengthens the counts past ``num_buckets``.
    # Wider digits keep the explicit bound: bincount sizes its counts
    # ``max + 1``, which overflows near 2^63.
    if digits.size and (
        (digits.dtype.kind != "u" and digits.min() < 0)
        or (digits.dtype.itemsize > 4 and digits.max() >= num_buckets)
    ):
        counts = None
    else:
        try:
            counts = np.bincount(digits.ravel(), minlength=num_buckets)
        except MemoryError:  # a digit near 2^32 asks for 32 GiB of counts
            counts = None
    if counts is None or counts.shape[0] > num_buckets:
        raise ValueError(
            f"digit values outside [0, {num_buckets}): "
            f"min={digits.min()}, max={digits.max()}"
        )
    return counts.astype(np.int64)


def batched_digit_histogram(digits: np.ndarray, num_buckets: int) -> np.ndarray:
    """Per-row histograms for a 2-d array of digits, shape ``(rows, buckets)``."""
    if digits.ndim != 2:
        raise ValueError(f"expected 2-d digits, got shape {digits.shape}")
    rows = digits.shape[0]
    if digits.size and (digits.min() < 0 or digits.max() >= num_buckets):
        raise ValueError(f"digit values outside [0, {num_buckets})")
    # offset each row into its own bucket range so one bincount does all
    # rows; staying in the digits' own dtype (when the flat bin index
    # fits) skips a full-size int64 temporary on the hot path
    total_bins = rows * num_buckets
    dt = digits.dtype
    if dt.kind == "u" and total_bins <= np.iinfo(dt).max:
        offsets = (np.arange(rows, dtype=dt) * dt.type(num_buckets))[:, None]
        flat = (digits + offsets).ravel()
    else:
        offsets = (np.arange(rows, dtype=np.int64) * num_buckets)[:, None]
        flat = (digits.astype(np.int64) + offsets).ravel()
    counts = np.bincount(flat, minlength=total_bins)
    return counts.reshape(rows, num_buckets)
