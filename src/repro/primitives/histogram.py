"""Digit histograms (Sec. 2.3, step 1 of every radix top-k iteration)."""

from __future__ import annotations

import numpy as np


def batched_digit_histogram(digits: np.ndarray, num_buckets: int) -> np.ndarray:
    """Per-row histograms for a 2-d array of digits, shape ``(rows, buckets)``."""
    if digits.ndim != 2:
        raise ValueError(f"expected 2-d digits, got shape {digits.shape}")
    rows = digits.shape[0]
    if digits.size and (digits.min() < 0 or digits.max() >= num_buckets):
        raise ValueError(
            f"digit values outside [0, {num_buckets}): "
            f"min={digits.min()}, max={digits.max()}"
        )
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
