"""Tests for the order-preserving radix encoding and digit extraction."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.primitives import (
    DigitPass,
    decode,
    digit_layout,
    encode,
    invert,
    key_bits,
    priority_keys,
)


class TestEncodeOrdering:
    def test_float_order_preserved(self):
        values = np.array(
            [-np.inf, -3.5, -1.0, -1e-42, -0.0, 0.0, 1e-42, 1.0, 3.5, np.inf],
            dtype=np.float32,
        )
        keys = encode(values)
        diffs = np.diff(keys.astype(np.int64))
        assert np.all(diffs >= 0)
        # -0.0 and 0.0 are distinct bit patterns but adjacent keys
        assert keys[4] < keys[5]

    def test_strictly_increasing_for_distinct_values(self):
        values = np.array([-2.0, -1.0, 0.5, 2.0], dtype=np.float32)
        keys = encode(values)
        assert np.all(np.diff(keys.astype(np.int64)) > 0)

    def test_nan_sorts_after_inf(self):
        values = np.array([np.inf, np.nan], dtype=np.float32)
        keys = encode(values)
        assert keys[1] > keys[0]

    def test_negative_nan_canonicalised(self):
        neg_nan = np.array([np.float32(np.nan)], dtype=np.float32)
        neg_nan = (-neg_nan).astype(np.float32)
        pos_nan = np.array([np.nan], dtype=np.float32)
        assert encode(neg_nan)[0] == encode(pos_nan)[0]

    def test_sentinel_unreachable(self):
        """0xFFFFFFFF is above every encodable key, in both directions."""
        extremes = np.array(
            [np.inf, -np.inf, np.nan, 0.0, -0.0, 3.4e38, -3.4e38],
            dtype=np.float32,
        )
        keys = encode(extremes)
        assert keys.max() < np.uint32(0xFFFFFFFF)
        assert invert(keys).max() < np.uint32(0xFFFFFFFF)

    def test_int32_order(self):
        values = np.array([-(2**31), -1, 0, 1, 2**31 - 1], dtype=np.int32)
        keys = encode(values)
        assert np.all(np.diff(keys.astype(np.int64)) > 0)

    def test_uint32_identity_order(self):
        values = np.array([0, 1, 2**31, 2**32 - 1], dtype=np.uint32)
        keys = encode(values)
        assert np.array_equal(keys, values)

    def test_float64_order(self):
        values = np.array([-1e300, -1.0, 0.0, 1.0, 1e300], dtype=np.float64)
        keys = encode(values)
        assert keys.dtype == np.uint64
        assert np.all(np.diff(keys.astype(object)) > 0)

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(TypeError):
            encode(np.array([1, 2], dtype=np.complex64))

    def test_invert_reverses_order(self):
        values = np.array([-1.0, 0.0, 2.0], dtype=np.float32)
        keys = invert(encode(values))
        assert np.all(np.diff(keys.astype(np.int64)) < 0)


class TestDecode:
    @pytest.mark.parametrize(
        "dtype", [np.float32, np.float64, np.int32, np.int64, np.uint32, np.uint64]
    )
    def test_roundtrip(self, dtype, rng):
        if np.dtype(dtype).kind == "f":
            values = rng.standard_normal(256).astype(dtype)
        else:
            info = np.iinfo(dtype)
            values = rng.integers(
                info.min, info.max, size=256, dtype=dtype, endpoint=True
            )
        out = decode(encode(values), dtype)
        assert np.array_equal(out, values)

    def test_roundtrip_specials(self):
        values = np.array([np.inf, -np.inf, 0.0, -0.0], dtype=np.float32)
        out = decode(encode(values), np.float32)
        assert np.array_equal(out.view(np.uint32), values.view(np.uint32))

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(TypeError):
            decode(np.zeros(4, np.uint32), np.complex64)


def reference_encode(values: np.ndarray) -> np.ndarray:
    """The two-``np.where`` float transcoding, kept as the reference."""
    utype = np.dtype(f"u{values.dtype.itemsize}")
    sign_mask = utype.type(1) << utype.type(values.dtype.itemsize * 8 - 1)
    if values.dtype.kind == "f":
        values = np.where(
            np.isnan(values), np.asarray(np.nan, dtype=values.dtype), values
        )
        u = values.view(utype)
        negative = (u & sign_mask) != 0
        return np.where(negative, ~u, u | sign_mask)
    if values.dtype.kind == "i":
        return values.view(utype) ^ sign_mask
    return values.astype(utype, copy=False)


def reference_priority_keys(values: np.ndarray, largest: bool) -> np.ndarray:
    """Unconditional NaN re-pin under ``largest``, kept as the reference."""
    keys = reference_encode(values)
    if not largest:
        return keys
    keys = ~keys
    if values.dtype.kind == "f":
        nan_key = keys.dtype.type(~keys.dtype.type(0) - keys.dtype.type(1))
        keys = np.where(np.isnan(values), nan_key, keys)
    return keys


def float_specials(dtype) -> np.ndarray:
    """Signed zeros, infinities, extremes, subnormals and NaNs of both
    signs, including a NaN with a payload."""
    info = np.finfo(dtype)
    values = np.array(
        [0.0, -0.0, np.inf, -np.inf, info.max, -info.max, info.tiny, -info.tiny,
         info.tiny / 4, -info.tiny / 4, info.smallest_subnormal,
         -info.smallest_subnormal, 1.0, -1.0, np.nan],
        dtype=dtype,
    )
    utype = np.dtype(f"u{np.dtype(dtype).itemsize}")
    sign = utype.type(1) << utype.type(np.dtype(dtype).itemsize * 8 - 1)
    nan_bits = values[-1:].view(utype)[0]
    nans = np.array([nan_bits | sign, nan_bits | utype.type(1)], dtype=utype)
    return np.concatenate([values, nans.view(dtype)])


class TestXorMaskEncoding:
    """``encode`` and ``priority_keys`` are byte-equal to the reference."""

    @staticmethod
    def assert_same_bytes(values: np.ndarray) -> None:
        got = encode(values)
        want = reference_encode(values)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        for largest in (False, True):
            got = priority_keys(values, largest=largest)
            want = reference_priority_keys(values, largest)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_specials_with_nan(self, dtype):
        self.assert_same_bytes(float_specials(dtype))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_specials_without_nan(self, dtype):
        values = float_specials(dtype)
        self.assert_same_bytes(values[~np.isnan(values)])

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_only_nans(self, dtype):
        values = float_specials(dtype)
        self.assert_same_bytes(values[np.isnan(values)])

    @pytest.mark.parametrize(
        "dtype",
        [np.float16, np.float32, np.float64, np.int16, np.int32, np.int64,
         np.uint16, np.uint32, np.uint64],
    )
    def test_empty(self, dtype):
        self.assert_same_bytes(np.empty(0, dtype=dtype))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_random_bit_patterns(self, dtype, rng):
        """Every bit pattern, NaNs and subnormals included, 2-d too."""
        utype = np.dtype(f"u{np.dtype(dtype).itemsize}")
        bits = rng.integers(0, np.iinfo(utype).max, size=(4, 500), dtype=utype,
                            endpoint=True)
        self.assert_same_bytes(bits.view(dtype))
        self.assert_same_bytes(bits[:, ::3].view(dtype))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
    def test_zero_dimensional(self, dtype):
        for value in (-1.5, np.nan, -0.0):
            self.assert_same_bytes(np.array(value, dtype=dtype))

    def test_input_untouched(self):
        values = float_specials(np.float32)
        before = values.tobytes()
        priority_keys(values, largest=True)
        assert values.tobytes() == before


class TestDigitLayout:
    def test_paper_configuration(self):
        """32-bit keys with 11-bit digits: 3 passes of widths 11, 11, 10."""
        passes = digit_layout(32, 11)
        assert [(p.shift, p.width) for p in passes] == [(21, 11), (10, 11), (0, 10)]
        assert [p.num_buckets for p in passes] == [2048, 2048, 1024]

    def test_eight_bit_configuration(self):
        passes = digit_layout(32, 8)
        assert len(passes) == 4
        assert all(p.width == 8 for p in passes)
        assert [p.shift for p in passes] == [24, 16, 8, 0]

    def test_covers_all_bits_disjointly(self):
        for digit_bits in (3, 7, 8, 11, 13, 32):
            passes = digit_layout(32, digit_bits)
            covered = 0
            for p in passes:
                mask = ((1 << p.width) - 1) << p.shift
                assert covered & mask == 0, "passes overlap"
                covered |= mask
            assert covered == 0xFFFFFFFF

    def test_msb_first(self):
        passes = digit_layout(32, 11)
        shifts = [p.shift for p in passes]
        assert shifts == sorted(shifts, reverse=True)

    def test_extract(self):
        keys = np.array([0b1010_1100_0000_0000_0000_0000_0000_0000], np.uint32)
        p0 = digit_layout(32, 4)[0]
        assert p0.extract(keys)[0] == 0b1010

    @pytest.mark.parametrize("total_bits", [16, 32, 64])
    @pytest.mark.parametrize("digit_bits", [8, 11, 16])
    def test_extract_is_shift_and_mask(self, total_bits, digit_bits, rng):
        """Every pass's digits are ``(keys >> shift) & mask``, as uint32."""
        dtype = np.dtype(f"u{total_bits // 8}")
        keys = rng.integers(0, np.iinfo(dtype).max, size=512, dtype=dtype, endpoint=True)
        keys[:2] = (0, np.iinfo(dtype).max)
        for p in digit_layout(total_bits, digit_bits):
            mask = dtype.type((1 << p.width) - 1)
            want = (keys >> dtype.type(p.shift)) & mask
            got = p.extract(keys)
            assert got.dtype == np.uint32
            assert np.array_equal(got, want)

    def test_digit_reassembly(self, rng):
        """Concatenating extracted digits MSB-first reconstructs the key."""
        keys = rng.integers(0, 2**32, size=64, dtype=np.uint32)
        for digit_bits in (8, 11):
            rebuilt = np.zeros_like(keys)
            for p in digit_layout(32, digit_bits):
                rebuilt |= p.extract(keys).astype(np.uint32) << np.uint32(p.shift)
            assert np.array_equal(rebuilt, keys)

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            digit_layout(0, 8)
        with pytest.raises(ValueError):
            digit_layout(32, 0)
        with pytest.raises(ValueError):
            digit_layout(8, 16)

    def test_key_bits(self):
        assert key_bits(np.float16) == 16
        assert key_bits(np.float32) == 32
        assert key_bits(np.float64) == 64
        with pytest.raises(TypeError):
            key_bits(np.complex64)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(width=32, allow_nan=False),
        min_size=2,
        max_size=64,
    )
)
def test_encode_is_order_isomorphic(values):
    """For any NaN-free float32 values: a < b  <=>  enc(a) < enc(b)."""
    arr = np.array(values, dtype=np.float32)
    keys = encode(arr).astype(np.int64)
    a = arr[:, None]
    b = arr[None, :]
    lt_float = a < b
    # -0.0 == 0.0 in float comparison but their keys differ by one; treat
    # equal floats as unordered
    eq_float = a == b
    lt_key = keys[:, None] < keys[None, :]
    assert np.all(lt_key[lt_float])
    assert not np.any(lt_float & lt_key.T)
    # equal non-zero floats must have equal keys
    nonzero = (a != 0) & (b != 0)
    n = len(values)
    kk_row = np.broadcast_to(keys[:, None], (n, n))
    kk_col = np.broadcast_to(keys[None, :], (n, n))
    mask = eq_float & nonzero
    assert np.array_equal(kk_row[mask], kk_col[mask])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(width=32, allow_nan=True), min_size=1, max_size=32),
    st.sampled_from([8, 11, 16]),
)
def test_digit_order_prefix_property(values, digit_bits):
    """Comparing digit sequences MSB-first equals comparing keys."""
    arr = np.array(values, dtype=np.float32)
    keys = encode(arr)
    passes = digit_layout(32, digit_bits)
    digit_tuples = [
        tuple(int(p.extract(keys[i : i + 1])[0]) for p in passes)
        for i in range(len(arr))
    ]
    key_order = np.argsort(keys, kind="stable")
    tuple_order = sorted(range(len(arr)), key=lambda i: (digit_tuples[i], i))
    assert list(key_order) == tuple_order
