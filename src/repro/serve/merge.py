"""k-way merge of per-shard top-k candidates.

Dr. Top-k (Gaihre et al., SC '21) decomposes a large selection into
per-delegate sub-selections whose candidates are merged hierarchically;
the same tree shape is how a multi-device sharded top-k combines its
per-shard (value, index) candidates.  On the simulated device ``S``
shards take ``ceil(log2 S)`` merge levels, and that depth is what a
coordinator charges.  On the host the tree is not built: every partial
is concatenated once and ordered by one sort, which gives the same
answer because the order below is total.

Ordering is exact and deterministic: one :func:`repro.primitives.lex_order`
by (priority key, original index), the key being the encoding every
algorithm selects in, so a merged result over unique values is
byte-identical to a single-shot selection (pinned by tests/test_serve.py).
"""

from __future__ import annotations

import numpy as np

from ..primitives import lex_order, priority_keys


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
    keys = priority_keys(np.ascontiguousarray(values), largest=largest)
    order = lex_order(keys, indices)[:, :k]
    levels = (len(partials) - 1).bit_length()
    return (
        np.take_along_axis(values, order, axis=1),
        np.take_along_axis(indices, order, axis=1),
        levels,
    )
