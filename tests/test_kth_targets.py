"""Every radix pass's target digit is that digit of the row's k-th key.

The radix family (AIR Top-K, RadixSelect and the Dr. Top-K hybrid over
AIR) reads each pass's target digit from the row's k-th smallest key
instead of building, scanning and searching a histogram on the host.
These tests replay the histogram route pass by pass, as the modelled
kernels run it (``np.bincount``, ``cumsum``, ``find_target_bucket``,
then keep the candidates at the target with ``k_rem`` reduced by the
winners below it), and check that the k-th key names the same target with
the same counts below and at it, and that AIR's pass records agree.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.air_topk import AIRTopK
from repro.primitives import digit_layout, find_target_bucket, priority_keys

DTYPES = ("float16", "float32", "float64", "int32", "int64", "uint64")
KINDS = ("plain", "ties", "constant", "special", "shared")


def _row(rng: np.random.Generator, dtype: np.dtype, kind: str, n: int) -> np.ndarray:
    """One row of ``kind``: plain, ties (a few distinct values), constant
    (one repeated value), special (NaN/±inf/±0 among plain values; plain
    for integers) or shared (every key agrees on its leading digits)."""
    if dtype.kind == "f":
        x = rng.standard_normal(n)
        if kind == "ties":
            x = np.round(x)
        elif kind == "constant":
            x[:] = x[0]
        elif kind == "special":
            specials = np.array([0.0, np.nan, np.inf, -np.inf, -0.0])
            picks = rng.integers(0, 5, n)
            x = np.where(picks == 0, x, specials[picks])
        elif kind == "shared":
            x = 1.0 + rng.random(n) * 2.0**-8
        return x.astype(dtype)
    info = np.iinfo(dtype)
    if kind == "ties":
        return rng.integers(max(info.min, -2), 3, n).astype(dtype)
    x = rng.integers(info.min, info.max, size=n, dtype=dtype, endpoint=True)
    if kind == "constant":
        x[:] = x[0]
    elif kind == "shared":
        base = dtype.type(1) << dtype.type(info.bits - 12)
        x = base + rng.integers(0, 300, n).astype(dtype)
    return x


def histogram_route(keys: np.ndarray, k: int, layout) -> list[tuple[int, ...]]:
    """``(target, below, count, k_rem)`` of every pass, by histogram search."""
    out = []
    cand, k_rem = keys, k
    for dpass in layout:
        digits = dpass.extract(cand)
        hist = np.bincount(digits, minlength=dpass.num_buckets)
        psum = hist.cumsum()
        target = int(find_target_bucket(psum, k_rem))
        count = int(hist[target])
        below = int(psum[target]) - count
        out.append((target, below, count, k_rem))
        k_rem -= below
        cand = cand[digits == target]
    return out


@st.composite
def problems(draw):
    dtype = np.dtype(draw(st.sampled_from(DTYPES)))
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(min_value=1, max_value=400))
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(min_value=1, max_value=n)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    values = _row(np.random.default_rng(seed), dtype, kind, n)
    return values, k


@settings(max_examples=300, deadline=None)
@given(problems(), st.booleans(), st.sampled_from([8, 11]))
def test_kth_key_names_every_target(problem, largest, digit_bits):
    values, k = problem
    keys = priority_keys(values, largest=largest)
    layout = digit_layout(keys.dtype.itemsize * 8, digit_bits)
    kth = np.partition(keys, k - 1)[k - 1]
    cand = keys
    for dpass, (target, below, count, k_rem) in zip(
        layout, histogram_route(keys, k, layout)
    ):
        digits = dpass.extract(cand)
        assert int(dpass.extract(kth)) == target
        assert int(np.count_nonzero(digits < target)) == below
        assert int(np.count_nonzero(digits == target)) == count
        assert below < k_rem <= below + count
        cand = cand[digits == target]


@settings(max_examples=150, deadline=None)
@given(problems(), st.booleans(), st.sampled_from([8, 11]))
def test_air_records_follow_the_histogram_route(problem, largest, digit_bits):
    """AIR's pass records read what the histogram route reads, up to the
    pass where it stops early."""
    values, k = problem
    algo = AIRTopK(digit_bits=digit_bits)
    algo.select(values, k, largest=largest)
    keys = priority_keys(values, largest=largest)
    route = histogram_route(keys, k, algo.passes_for(keys.dtype))
    assert 1 <= len(algo.last_trace) <= len(route)
    for rec, (target, below, count, k_rem) in zip(algo.last_trace, route):
        assert (rec.target_digit, rec.candidates_out, rec.k_remaining) == (
            target, count, k_rem - below
        )
