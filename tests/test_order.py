"""``lex_order``, ``stable_sort`` and ``smallest`` against NumPy's own sorts."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.primitives import lex_order, stable_sort
from repro.primitives.order import LOW, fits, pack, smallest, unpack

DTYPES = [np.uint8, np.uint16, np.uint32, np.uint64, np.int64]

#: values at both sides of the packing boundary, plus small ties
BOUNDARY = [0, 1, 2, 3, 2**32 - 1, 2**32, 2**40, 2**63 - 1, -1, -(2**40)]


def _values(dtype) -> list[int]:
    """The boundary values a dtype can hold."""
    info = np.iinfo(dtype)
    return [v for v in BOUNDARY if info.min <= v <= info.max]


@st.composite
def arrays(draw, shape):
    """An array of ``shape`` drawn from a dtype's boundary values."""
    dtype = draw(st.sampled_from(DTYPES))
    pool = draw(st.lists(st.sampled_from(_values(dtype)), min_size=1, max_size=4))
    size = int(np.prod(shape))
    picks = draw(st.lists(st.sampled_from(pool), min_size=size, max_size=size))
    return np.array(picks, dtype=dtype).reshape(shape)


def _packs(a: np.ndarray) -> bool:
    return a.size == 0 or bool(((a >= 0) & (a <= 2**32 - 1)).all())


def assert_lex_order(major: np.ndarray, minor: np.ndarray) -> None:
    """Same order as ``np.lexsort``, by the path the values call for."""
    want = np.lexsort((minor, major), axis=-1)
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as fallback:
        got = lex_order(major, minor)
    assert np.array_equal(got, want)
    assert fallback.called == (not (_packs(major) and _packs(minor)))


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.tuples(st.integers(1, 40)),
        st.tuples(st.integers(1, 4), st.integers(1, 12)),
    ).flatmap(lambda shape: st.tuples(arrays(shape), arrays(shape)))
)
def test_lex_order_equals_lexsort(fields):
    assert_lex_order(*fields)


@pytest.mark.parametrize(
    "major,minor,packs",
    [
        # the largest value that fits packs, one more falls back
        (np.array([2**32 - 1, 0, 2**32 - 1], np.uint64), np.array([2, 1, 0]), True),
        (np.array([2**32, 0, 2**32], np.uint64), np.array([2, 1, 0]), False),
        (np.array([5, 5, 3]), np.array([2**32 - 1, 0, 1], np.uint64), True),
        (np.array([5, 5, 3]), np.array([2**32, 0, 1], np.int64), False),
        # a negative minor falls back
        (np.array([1, 1, 0], dtype=np.uint32), np.array([0, -1, 3]), False),
        # one element, all ties
        (np.array([7], dtype=np.uint64), np.array([3], dtype=np.uint8), True),
        (np.zeros(9, dtype=np.uint16), np.ones(9, dtype=np.int64), True),
        (np.full((3, 5), 2**40), np.full((3, 5), 2**33), False),
    ],
)
def test_lex_order_paths_and_boundaries(major, minor, packs):
    assert (_packs(major) and _packs(minor)) == packs
    assert (fits(major) and fits(minor)) == packs
    assert_lex_order(major, minor)


def test_lex_order_broadcasts_minor():
    major = np.array([[3, 1, 3, 1], [0, 0, 0, 0]], dtype=np.uint32)
    minor = np.array([1, 1, 0, 0], dtype=np.uint32)
    assert np.array_equal(
        lex_order(major, minor),
        np.lexsort((np.broadcast_to(minor, major.shape), major), axis=-1),
    )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=50),
    st.sampled_from([np.uint32, np.uint64, np.int64]),
    st.data(),
)
def test_pack_then_unpack_returns_both_fields(majors, minor_dtype, data):
    minors = data.draw(
        st.lists(st.integers(0, 2**32 - 1), min_size=len(majors), max_size=len(majors))
    )
    major = np.array(majors, dtype=np.uint64)
    minor = np.array(minors, dtype=minor_dtype)
    packed = pack(major, minor)
    assert packed.dtype == np.uint64
    got_major, got_minor = unpack(packed)
    assert np.array_equal(got_major, major)
    assert np.array_equal(got_minor, minor.astype(np.uint64))
    # the packed order is the (major, minor) order
    assert np.array_equal(
        np.argsort(packed, kind="stable"), np.lexsort((minor, major))
    )
    assert unpack(pack(np.uint32(7), LOW)) == (7, LOW)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([(30,), (3, 17), (2, 3, 8)]).flatmap(arrays),
)
def test_stable_sort_equals_sort_and_stable_argsort(keys):
    got_keys, got_order = stable_sort(keys)
    order = np.argsort(keys, axis=-1, kind="stable")
    assert got_keys.dtype == keys.dtype
    assert np.array_equal(got_keys, np.sort(keys, axis=-1))
    assert np.array_equal(got_order, order)


def test_pack_broadcasts_minor_over_major():
    major = np.arange(24, dtype=np.uint32).reshape(2, 3, 4)
    minor = np.arange(12).reshape(3, 4) * 1000
    want = (major.astype(np.uint64) << np.uint64(32)) | minor.astype(np.uint64)
    assert np.array_equal(pack(major, minor), want)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from([(1,), (40,), (3, 9), (2, 5, 7), (4, 3, 33)]),
    st.integers(min_value=1, max_value=40),
    st.sampled_from([3, 2**32, 2**64 - 1]),
    st.booleans(),
    st.integers(min_value=0, max_value=2**31),
)
def test_smallest_equals_sorted_head(shape, k_raw, high, strided, seed):
    """The k smallest along the last axis, ascending, ties included: k = 1
    (the segmented minimum), k above a third of the axis (the whole sort)
    and below it (partition, then a sort of the head)."""
    rng = np.random.default_rng(seed)
    packed = rng.integers(0, high, size=shape, dtype=np.uint64, endpoint=True)
    if strided:
        packed = np.repeat(packed, 2, axis=-1)[..., ::2]
    k = 1 + (k_raw - 1) % shape[-1]
    want = np.sort(packed, axis=-1)[..., :k]
    got = smallest(packed, k)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_smallest_of_no_rows():
    assert smallest(np.zeros((0, 5), dtype=np.uint64), 1).shape == (0, 1)
    assert smallest(np.zeros((0, 5), dtype=np.uint64), 2).shape == (0, 2)
