"""Order-preserving radix encodings and digit extraction.

Radix top-k operates on an unsigned-integer key space in which numeric
order equals lexicographic bit order.  IEEE-754 floats do not have that
property directly, so keys are transcoded with the standard monotone
bijection (flip the sign bit of non-negative values, flip every bit of
negative values).  This is exactly what CUB's radix sort and the RAFT
``select_radix`` implementation do.

Digit layout: the algorithms scan from the most significant digit to the
least significant one (Sec. 2.3 of the paper).  With ``r``-bit keys and
``b``-bit digits there are ``ceil(r/b)`` passes; when ``b`` does not divide
``r`` the final pass uses the remaining low bits (for the paper's r=32,
b=11 configuration the pass widths are 11, 11, 10).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

#: dtypes supported as radix keys, mapped to their unsigned view type
_UNSIGNED_VIEW = {
    np.dtype(np.float16): np.dtype(np.uint16),
    np.dtype(np.int16): np.dtype(np.uint16),
    np.dtype(np.uint16): np.dtype(np.uint16),
    np.dtype(np.float32): np.dtype(np.uint32),
    np.dtype(np.int32): np.dtype(np.uint32),
    np.dtype(np.uint32): np.dtype(np.uint32),
    np.dtype(np.float64): np.dtype(np.uint64),
    np.dtype(np.int64): np.dtype(np.uint64),
    np.dtype(np.uint64): np.dtype(np.uint64),
}


def key_bits(dtype) -> int:
    """Number of key bits for a supported dtype."""
    dt = np.dtype(dtype)
    if dt not in _UNSIGNED_VIEW:
        raise TypeError(f"unsupported radix key dtype {dt}")
    return dt.itemsize * 8


def _has_nan(values: np.ndarray) -> bool:
    """Whether a float array holds a NaN (``min`` propagates NaN: one pass)."""
    return values.size > 0 and bool(np.isnan(values.min()))


def encode(values: np.ndarray) -> np.ndarray:
    """Map values to unsigned keys whose integer order equals value order.

    NaNs are canonicalised to the positive quiet-NaN pattern first, so every
    NaN encodes to the same key, which is larger than the encoding of +inf:
    NaNs sort after every number and are only selected when k forces it.

    Floats are transcoded with one xor mask: the arithmetic right shift of
    the signed view is all ones for negative values (flip every bit) and
    zero otherwise, or-ed with the sign bit (flip only the sign bit).
    """
    dt = values.dtype
    if dt not in _UNSIGNED_VIEW:
        raise TypeError(f"unsupported radix key dtype {dt}")
    utype = _UNSIGNED_VIEW[dt]
    nbits = key_bits(dt)
    sign_mask = utype.type(1) << utype.type(nbits - 1)
    if dt.kind == "f":
        if _has_nan(values):
            values = np.where(np.isnan(values), np.asarray(np.nan, dtype=dt), values)
        signed = np.dtype(f"i{dt.itemsize}")
        mask = np.empty(values.shape, dtype=utype)
        np.right_shift(values.view(signed), nbits - 1, out=mask.view(signed))
        mask |= sign_mask
        mask ^= values.view(utype)
        return mask
    if dt.kind == "i":
        return values.view(utype) ^ sign_mask
    return values.astype(utype, copy=False)


def decode(keys: np.ndarray, dtype) -> np.ndarray:
    """Inverse of :func:`encode` (up to NaN canonicalisation)."""
    dt = np.dtype(dtype)
    if dt not in _UNSIGNED_VIEW:
        raise TypeError(f"unsupported radix key dtype {dt}")
    utype = _UNSIGNED_VIEW[dt]
    keys = keys.astype(utype, copy=False)
    nbits = key_bits(dt)
    sign_mask = utype.type(1) << utype.type(nbits - 1)
    if dt.kind == "f":
        was_negative = (keys & sign_mask) == 0
        u = np.where(was_negative, ~keys, keys & ~sign_mask)
        return u.astype(utype).view(dt)
    if dt.kind == "i":
        return (keys ^ sign_mask).view(dt)
    return keys.view(dt)


def invert(keys: np.ndarray) -> np.ndarray:
    """Reverse the order of encoded keys (select-largest via select-smallest)."""
    return ~keys


def priority_keys(values: np.ndarray, *, largest: bool = False) -> np.ndarray:
    """Keys whose ascending order is the selection priority.

    Implements the library's NaN policy in both directions: NaN is never
    preferred.  For smallest-first the plain encoding already places NaN
    above +inf; for largest-first a plain inversion would flip NaN to the
    front, so NaN positions are re-pinned just below the sentinel key.
    """
    keys = encode(values)
    if not largest:
        return keys
    keys = invert(keys)
    if values.dtype.kind == "f" and _has_nan(values):
        nan_key = keys.dtype.type(~keys.dtype.type(0) - keys.dtype.type(1))
        keys = np.where(np.isnan(values), nan_key, keys)
    return keys


@dataclass(frozen=True)
class DigitPass:
    """One most-significant-first radix pass."""

    index: int
    shift: int
    width: int

    @property
    def num_buckets(self) -> int:
        return 1 << self.width

    def extract(self, keys: np.ndarray) -> np.ndarray:
        """Digits of the encoded keys for this pass, as small unsigned ints."""
        kt = keys.dtype.type
        digits = keys >> kt(self.shift)
        # the top digit's shift already clears every bit above it
        if self.shift + self.width != keys.dtype.itemsize * 8:
            digits &= kt((1 << self.width) - 1)
        return digits.astype(np.uint32, copy=False)


@functools.cache
def digit_layout(total_bits: int, digit_bits: int) -> tuple[DigitPass, ...]:
    """MSB-first digit passes covering ``total_bits`` with ``digit_bits`` digits.

    Computed once per ``(total_bits, digit_bits)``: every radix run and
    schedule reads it.

    >>> [(p.shift, p.width) for p in digit_layout(32, 11)]
    [(21, 11), (10, 11), (0, 10)]
    """
    if total_bits <= 0 or digit_bits <= 0:
        raise ValueError("total_bits and digit_bits must be positive")
    if digit_bits > total_bits:
        raise ValueError(
            f"digit_bits ({digit_bits}) cannot exceed total_bits ({total_bits})"
        )
    passes: list[DigitPass] = []
    consumed = 0
    index = 0
    while consumed < total_bits:
        width = min(digit_bits, total_bits - consumed)
        shift = total_bits - consumed - width
        passes.append(DigitPass(index=index, shift=shift, width=width))
        consumed += width
        index += 1
    return tuple(passes)
