"""Prefix-sum (scan) primitives with device-style operation counts.

Radix top-k needs an inclusive scan of a 2^b-entry histogram to locate the
target digit (Sec. 2.3, step 2).  AIR Top-K performs this scan inside the
fused kernel with a single thread block; the work estimate models the
Hillis–Steele block scan such an implementation uses (n * log2(n) adds).
"""

from __future__ import annotations

import math

import numpy as np


def inclusive_scan(values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Inclusive prefix sum along ``axis``."""
    # the ndarray method skips np.cumsum's Python-level dispatch (about
    # 1.5 us, paid once per row by the radix kernels' per-row scans)
    return np.asarray(values).cumsum(axis=axis)


def block_scan_ops(n: int) -> int:
    """Adds performed by a Hillis–Steele block scan of ``n`` entries."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if n == 1:
        return 0
    return n * math.ceil(math.log2(n))


def find_target_bucket(psum: np.ndarray, k: int | np.ndarray) -> np.ndarray | np.intp:
    """Bucket index ``j`` with ``psum[j-1] < k <= psum[j]`` (Sec. 2.3, step 3).

    ``psum`` is the inclusive prefix sum of a histogram; works on a single
    histogram (1-d) or a batch of histograms (2-d, with ``k`` per row).
    """
    psum = np.asarray(psum)
    if psum.ndim == 1:
        k_arr = int(k)
        if not 1 <= k_arr <= int(psum[-1]):
            raise ValueError(
                f"k={k_arr} outside [1, {int(psum[-1])}] covered by the histogram"
            )
        return psum.searchsorted(k_arr, side="left")
    k_arr = np.asarray(k)
    if k_arr.shape != (psum.shape[0],):
        raise ValueError("batched k must have one entry per histogram row")
    if np.any(k_arr < 1) or np.any(k_arr > psum[:, -1]):
        raise ValueError("some k outside the range covered by its histogram")
    # vectorised left-bisection: prefix sums are non-decreasing per row, so
    # searchsorted(psum[row], k, side="left") == #entries strictly below k.
    # One fused comparison covers every row of the batch at once.
    return (psum < k_arr[:, None]).sum(axis=1, dtype=np.int64)
