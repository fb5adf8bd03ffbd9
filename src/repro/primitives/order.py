"""One ordering primitive: a stable sort by (major, minor).

Fields that both fit 32 bits are packed into one ``uint64``, ``major << 32
| minor``, whose plain order is the (major, minor) order; this is the only
module that knows that layout.  Wider fields fall back to ``np.lexsort``.
:func:`smallest` is the selection on that layout: the queue family's
merges and the approximate tier's :func:`repro.primitives.partition_topc`
keep the k smallest entries with it.
"""

from __future__ import annotations

import sys

import numpy as np

#: the minor field of a packed entry, and its largest value
LOW = np.uint64(0xFFFFFFFF)
#: which of a packed entry's two native 32-bit words holds the major field
_MAJOR_WORD = 1 if sys.byteorder == "little" else 0


def fits(a) -> bool:
    """Whether every value of ``a`` is an integer in ``[0, 2**32)``."""
    a = np.asarray(a)
    if a.dtype.kind not in "biu":
        return False
    if a.dtype.itemsize <= 4 and a.dtype.kind != "i" or not a.size:
        return True
    return bool(a.min() >= 0 and a.max() <= LOW)


def pack(major, minor) -> np.ndarray:
    """``major << 32 | minor`` as ``uint64``, in ``major``'s shape.

    Each field is copied into its 32-bit word of the entry: two strided
    copies, where a shift and an or each make a pass over 64-bit words.
    """
    words = np.empty(np.shape(major) + (2,), dtype=np.uint32)
    words[..., _MAJOR_WORD] = major
    words[..., 1 - _MAJOR_WORD] = minor
    return words.view(np.uint64)[..., 0]


def unpack(packed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(major, minor)`` fields of packed entries."""
    return packed >> np.uint64(32), packed & LOW


def smallest(packed: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` smallest packed entries along the last axis, ascending.

    Entries packed over distinct minor fields are unique, so this is the
    stable order of their major fields and needs no tie pass.  May
    reorder ``packed`` in place.  ``k == 1`` is one segmented minimum over
    the flat entries (``reduceat`` runs a tight loop per row, where a
    ``min`` over a short last axis pays per row).  A partition pays off
    only once the axis is well over ``k`` long; a shorter one is sorted
    whole.
    """
    if k == 1:
        width = packed.shape[-1]
        flat = np.ascontiguousarray(packed).reshape(-1)
        low = np.minimum.reduceat(flat, np.arange(0, flat.size, width))
        return low.reshape(packed.shape[:-1] + (1,))
    if packed.shape[-1] > 3 * k:
        packed.partition(k - 1, axis=-1)
        return np.sort(packed[..., :k], axis=-1)
    packed.sort(axis=-1)
    return packed[..., :k]


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
