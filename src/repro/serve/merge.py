"""k-way merge of per-shard top-k candidates.

Dr. Top-k (Gaihre et al., SC '21) decomposes a large selection into
per-delegate sub-selections whose candidates are merged hierarchically;
the same tree shape is how a multi-device sharded top-k combines its
per-shard (value, index) candidates.  On the simulated device ``S``
shards take ``ceil(log2 S)`` merge levels, and that depth is what a
coordinator charges.  On the host the tree is not built: every partial
is concatenated once and ordered by one sort, which gives the same
answer because the order below is total.

Ordering is exact and deterministic: candidates are compared by their
monotone priority key (:func:`repro.primitives.priority_keys`, the same
encoding every algorithm selects in) with the original index as the tie
breaker, so a merged result over unique values is byte-identical to a
single-shot selection (pinned by tests/test_serve.py).
"""

from __future__ import annotations

import numpy as np

from ..primitives import priority_keys


def _order_candidates(
    values: np.ndarray, indices: np.ndarray, *, largest: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Sort candidate columns by (priority key, index), per row.

    Both paths are the same stable lexicographic sort.  Keys of at most
    32 bits with indices in ``[0, 2**32)`` are packed into one uint64
    per candidate, so a single stable argsort orders them; that sort
    also runs fast over the already-sorted runs the shards hand in.
    """
    keys = priority_keys(np.ascontiguousarray(values), largest=largest)
    if (
        keys.dtype.itemsize <= 4
        and indices.size
        and indices.min() >= 0
        and indices.max() <= 0xFFFFFFFF
    ):
        packed = (keys.astype(np.uint64) << np.uint64(32)) | indices.astype(
            np.uint64
        )
        order = np.argsort(packed, axis=1, kind="stable")
    else:
        order = np.lexsort((indices, keys), axis=1)
    return (
        np.take_along_axis(values, order, axis=1),
        np.take_along_axis(indices, order, axis=1),
    )


def hierarchical_merge(
    partials: list[tuple[np.ndarray, np.ndarray]],
    k: int,
    *,
    largest: bool = False,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Reduce per-shard candidates to one global top-k.

    ``partials`` is one ``(values, indices)`` pair per shard, each
    ``(batch, k_s)`` with *global* indices.  Returns ``(values, indices,
    levels)``: the best ``min(k, sum k_s)`` columns, best first, and
    ``levels = ceil(log2 S)``, the depth of the pairwise merge tree a
    coordinator charges to the simulated device.  The result equals
    that tree's: (priority key, index) is a total order, so the first k
    of one sort over every candidate are the first k of any fold.
    """
    if not partials:
        raise ValueError("hierarchical_merge needs at least one partial")
    values = np.concatenate([p[0] for p in partials], axis=1)
    indices = np.concatenate([p[1] for p in partials], axis=1)
    values, indices = _order_candidates(values, indices, largest=largest)
    levels = (len(partials) - 1).bit_length()
    return values[:, :k], indices[:, :k], levels
