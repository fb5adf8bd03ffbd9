"""One ordering primitive: a stable sort by (major, minor).

Fields that both fit 32 bits are packed into one ``uint64``, ``major << 32
| minor``, whose plain order is the (major, minor) order; this is the only
module that knows that layout.  Wider fields fall back to ``np.lexsort``.
"""

from __future__ import annotations

import numpy as np

#: the minor field of a packed entry, and its largest value
LOW = np.uint64(0xFFFFFFFF)


def fits(a) -> bool:
    """Whether every value of ``a`` is an integer in ``[0, 2**32)``."""
    a = np.asarray(a)
    if a.dtype.kind not in "biu":
        return False
    if a.dtype.itemsize <= 4 and a.dtype.kind != "i" or not a.size:
        return True
    return bool(a.min() >= 0 and a.max() <= LOW)


def pack(major, minor) -> np.ndarray:
    """``major << 32 | minor`` as ``uint64``, in ``major``'s shape."""
    packed = np.left_shift(major, np.uint64(32), dtype=np.uint64, casting="unsafe")
    packed |= np.asarray(minor).astype(np.uint64, copy=False)
    return packed


def unpack(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(major, minor)`` fields of packed entries."""
    return packed >> np.uint64(32), packed & LOW


def lex_order(major, minor) -> np.ndarray:
    """Stable argsort by (major, minor) along the last axis: the order of
    ``np.lexsort((minor, major), axis=-1)``."""
    major, minor = np.broadcast_arrays(major, minor)
    if fits(major) and fits(minor):
        return np.argsort(pack(major, minor), axis=-1, kind="stable")
    return np.lexsort((minor, major), axis=-1)


def stable_sort(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.sort(keys, axis=-1)`` and the stable argsort that orders it.

    Keys packed over their positions are unique, so a plain sort of them
    is already stable and their minor fields are the argsort.
    """
    if fits(keys):
        packed = pack(keys, np.arange(keys.shape[-1], dtype=np.uint64))
        packed.sort(axis=-1)
        # split in place: a caller may be sorting every key it holds
        order = (packed & LOW).view(np.int64)
        packed >>= np.uint64(32)
        return packed.astype(keys.dtype), order
    order = np.argsort(keys, axis=-1, kind="stable")
    return np.take_along_axis(keys, order, axis=-1), order
