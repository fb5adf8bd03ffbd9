"""Stable partial selection: the first k of a stable argsort, without the sort.

Every emulated kernel that keeps k of n elements needs the order a stable
sort of the keys would produce, truncated to k — the best k, ties broken
toward the lower position.  A full ``argsort`` pays for ordering all n
elements; :func:`stable_topk_order` pays one ``np.partition`` for the k-th
key, one pass to take the ties in index order, and a sort of only the k
selected elements.  The host-side emulation then pays for selection, not
for a sort (RadiK's point about real GPUs, PAPERS.md).
"""

from __future__ import annotations

import numpy as np

#: the plain stable argsort is cheaper when k is above this share of the
#: row (measured on uint32 rows of 256 to 16384 keys: the two break even
#: between k = 0.5n and k = 0.75n) ...
FULL_SORT_SHARE = 0.75
#: ... or when the whole input holds at most this many keys, where the
#: partial path's fixed cost of about 40 us dominates (measured break-even
#: between 1,024 and 4,096 uint32 keys)
FULL_SORT_MAX_KEYS = 2048


def stable_topk_order(keys: np.ndarray, k: int) -> np.ndarray:
    """Exactly ``np.argsort(keys, axis=-1, kind="stable")[..., :k]``.

    The k-th smallest key of each row is found with ``np.partition``; every
    key below it is taken, then as many keys equal to it as the row still
    needs, lowest positions first.  Those k positions, still in index
    order, are stable-sorted by key, so ties keep their index order just as
    in the full stable sort.
    """
    keys = np.asarray(keys)
    n = keys.shape[-1]
    if not 1 <= k <= n:
        raise ValueError(f"k must be in [1, n={n}], got k={k}")
    if k == 1 and keys.dtype.kind in "ui":
        # the first minimum; a float NaN would break the equality
        return keys.argmin(axis=-1)[..., None]
    if k > FULL_SORT_SHARE * n or keys.size <= FULL_SORT_MAX_KEYS:
        return np.argsort(keys, axis=-1, kind="stable")[..., :k]
    # C order throughout: the tie fix-up below writes through `take.ravel()`
    rows = np.ascontiguousarray(keys).reshape(-1, n)
    kth = np.partition(rows, k - 1, axis=1)[:, k - 1 : k]
    take = rows < kth
    need = k - np.count_nonzero(take, axis=1)
    # ties with the k-th key, flat and ascending: keep each row's first `need`
    ties = np.flatnonzero(rows == kth)
    tie_row = ties // n
    first = np.searchsorted(tie_row, np.arange(rows.shape[0]))
    rank = np.arange(ties.size) - first[tie_row]
    take.ravel()[ties[rank < need[tie_row]]] = True
    pos = (np.flatnonzero(take) % n).reshape(rows.shape[0], k)
    row = np.arange(rows.shape[0])[:, None]
    order = pos[row, np.argsort(rows[row, pos], axis=1, kind="stable")]
    return order.reshape(keys.shape[:-1] + (k,))
