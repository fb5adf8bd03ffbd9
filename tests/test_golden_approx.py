"""Golden pins of the approximate tier: bucketed and two-stage top-k.

Four configurations run in both directions on a simulated A100 —
``bucket_approx`` and ``twostage_approx`` with their default plans, and
each with an explicit ``buckets`` / ``partitions`` and ``stage_k`` — and
each run is pinned byte for byte:

* the SHA-256 of the selected values and of their indices;
* every timeline event in order — name, stream, start and duration as
  exact float ``repr`` — together with every argument its kernel launch
  was charged (grid, block, bytes, flops, cycles, warp efficiency);
* ``device.elapsed`` and every device counter;
* the recall annotation: ``exact``, ``recall_bound`` and the ``meta``
  fields (``expected_recall``, ``partitions``, ``keep``).

Every run is also checked for what an approximate answer must satisfy:
the values are the input at the returned indices, the indices of a row
are distinct and come best first, and a plan whose quota reaches the
partition size returns the exact top-k (checked against ``np.partition``
in monotone key space).

The cases cover f16, f32, f64, i32, u32 and u64 keys; batch 1, 3 and
100; n that no plan divides evenly (two partition sizes), a quota equal
to the smaller partition size and plans whose quota reaches the
partition size (the exact plan); ties, NaN/±inf/±0 and integer rows
that are almost all the dtype's maximum or minimum.

Regenerate (only for an intended output change, and say why in the
change log) with::

    PYTHONPATH=src python tests/test_golden_approx.py
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import itertools
import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.algos import get_algorithm
from repro.device import Device
from repro.primitives import priority_keys

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_approx.json"

#: method id -> (registry name, constructor params)
METHODS = {
    "bucket_approx": ("bucket_approx", {}),
    "bucket_approx_b24": ("bucket_approx", {"buckets": 24}),
    "twostage_approx": ("twostage_approx", {}),
    "twostage_approx_p12_k5": ("twostage_approx", {"partitions": 12, "stage_k": 5}),
}

#: launch arguments pinned per kernel: every keyword but the span args
LAUNCH_ARGS = {
    name: param.default
    for name, param in inspect.signature(Device.launch_kernel).parameters.items()
    if param.kind is inspect.Parameter.KEYWORD_ONLY and name != "span_args"
}


def _cycle(kinds: tuple[str, ...], batch: int) -> tuple[str, ...]:
    return tuple(itertools.islice(itertools.cycle(kinds), batch))


@dataclasses.dataclass(frozen=True)
class Case:
    dtype: str
    rows: tuple[str, ...]  # the kind of every row, see _row
    n: int
    k: int


CASES = {
    # every plan's quota reaches the partition size: the exact plan
    "f32-b3-n40-k30": Case("float32", ("plain", "ties", "special"), 40, 30),
    "u32-b3-n50-k50": Case("uint32", ("top", "ties", "bottom"), 50, 50),
    # buckets=24 plans (24, 4): partitions of 5 and 4, keep 4
    "f32-b3-n100-k90": Case("float32", ("special", "plain", "ties"), 100, 90),
    # two partition sizes under every plan
    "f32-b1-n1000-k4": Case("float32", ("plain",), 1000, 4),
    "f16-b3-n777-k8": Case("float16", ("plain", "ties", "special"), 777, 8),
    "f64-b3-n1000-k16": Case("float64", ("special", "plain", "ties"), 1000, 16),
    "i32-b3-n333-k16-sentinel": Case("int32", ("top", "bottom", "plain"), 333, 16),
    "u32-b3-n1001-k32": Case("uint32", ("ties", "plain", "top"), 1001, 32),
    "u64-b3-n2000-k8-sentinel": Case("uint64", ("top", "bottom", "ties"), 2000, 8),
    "f32-b100-n1000-k10": Case(
        "float32", _cycle(("plain", "ties", "special"), 100), 1000, 10
    ),
    "i32-b100-n600-k5": Case(
        "int32", _cycle(("plain", "ties", "top", "bottom"), 100), 600, 5
    ),
    # the roster's smallest shape, and a larger row
    "f32-b100-n4096-k32": Case(
        "float32", _cycle(("plain", "ties", "special"), 100), 4096, 32
    ),
    "f32-b3-n20000-k256": Case("float32", ("plain", "ties", "special"), 20000, 256),
    "u64-b1-n20000-k64": Case("uint64", ("plain",), 20000, 64),
}

#: non-sentinel elements left in a ``top``/``bottom`` row
FEW = 5


def _row(rng: np.random.Generator, dtype: np.dtype, kind: str, n: int) -> np.ndarray:
    """One row of ``kind``: plain, ties, special (NaN/±inf/±0), or top /
    bottom — all but ``FEW`` elements the dtype's maximum / minimum."""
    if dtype.kind == "f":
        x = rng.standard_normal(n)
        if kind == "ties":
            x = np.round(x * 4.0)
        elif kind == "special":
            x[rng.choice(n, size=max(1, n // 16), replace=False)] = np.nan
            x[:6] = (np.inf, -np.inf, np.inf, -np.inf, 0.0, -0.0)
        return rng.permutation(x.astype(dtype))
    info = np.iinfo(dtype)
    if kind == "ties":
        x = rng.integers(0, 40, size=n)
    else:
        x = rng.integers(info.min, info.max, size=n, dtype=dtype, endpoint=True)
        if kind in ("top", "bottom"):
            x[FEW:] = info.max if kind == "top" else info.min
    return rng.permutation(x.astype(dtype))


@functools.cache
def case_data(name: str) -> np.ndarray:
    case = CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    dtype = np.dtype(case.dtype)
    data = np.stack([_row(rng, dtype, kind, case.n) for kind in case.rows])
    data.flags.writeable = False
    return data


class RecordingDevice(Device):
    """A simulated device that also keeps what each kernel was charged."""

    def __init__(self, **kw) -> None:
        super().__init__(**kw)
        self.charges: dict[int, dict] = {}

    def launch_kernel(self, name, **kw):
        duration = super().launch_kernel(name, **kw)
        self.charges[len(self.timeline) - 1] = {
            f: repr(kw.get(f, default)) for f, default in LAUNCH_ARGS.items()
        }
        return duration


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def _algorithm(method: str):
    algo, params = METHODS[method]
    return get_algorithm(algo, params=params)


def run_case(method: str, name: str, largest: bool):
    """The pin record of one run, and its result."""
    device = RecordingDevice()
    res = _algorithm(method).select(
        case_data(name), CASES[name].k, device=device, largest=largest
    )
    events = [
        [e.name, e.stream, repr(e.start), repr(e.duration), device.charges.get(i)]
        for i, e in enumerate(device.timeline)
    ]
    counters = {
        f.name: repr(getattr(device.counters, f.name))
        for f in dataclasses.fields(device.counters)
    }
    record = {
        "values": _sha(res.values),
        "indices": _sha(res.indices),
        "exact": res.exact,
        "recall_bound": repr(res.recall_bound),
        "meta": {f: repr(v) for f, v in sorted(res.meta.items())},
        "elapsed": repr(device.elapsed),
        "counters": counters,
        "events": events,
    }
    return record, res


def _ids():
    for method in METHODS:
        for name in CASES:
            for direction in ("smallest", "largest"):
                yield f"{method}/{name}/{direction}"


IDS = list(_ids())


def _run(case_id: str):
    method, name, direction = case_id.split("/")
    return run_case(method, name, direction == "largest")


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case_id", IDS)
def test_approx_matches_golden(case_id, golden):
    record, res = _run(case_id)
    _, name, direction = case_id.split("/")
    data, k = case_data(name), CASES[name].k
    largest = direction == "largest"
    np.testing.assert_array_equal(
        np.take_along_axis(data, res.indices, axis=1), res.values
    )
    got = priority_keys(np.ascontiguousarray(res.values), largest=largest)
    assert (np.diff(got.astype(np.float64), axis=1) >= 0).all()
    assert all(len(set(row)) == k for row in res.indices.tolist())
    if res.exact:
        want = np.partition(priority_keys(data, largest=largest), k - 1, axis=1)
        np.testing.assert_array_equal(got, np.sort(want[:, :k], axis=1))
    assert record == golden[case_id]


def test_pins_cover_every_case(golden):
    assert sorted(golden) == sorted(IDS)


def test_cases_reach_every_plan_shape():
    """Some plan keeps whole partitions, some keeps exactly the smaller
    partition's size, and most split n into two partition sizes."""
    shapes = set()
    for method, name in itertools.product(METHODS, CASES):
        case = CASES[name]
        parts, keep = _algorithm(method).plan(case.n, case.k)
        small, uneven = case.n // parts, case.n % parts != 0
        shapes.add("exact" if keep >= small + uneven else "keep=small" if keep == small else "")
        shapes.add("uneven" if uneven else "")
    assert {"exact", "keep=small", "uneven"} <= shapes


def _dumps(record: dict) -> str:
    """One pin record as JSON, one timeline event a line."""
    head = {f: v for f, v in record.items() if f != "events"}
    events = ",\n".join(json.dumps(e) for e in record["events"])
    return f'{json.dumps(head, sort_keys=True)[:-1]}, "events": [\n{events}\n]}}'


def regenerate() -> None:
    pins = {case_id: _run(case_id)[0] for case_id in IDS}
    body = ",\n".join(f"{json.dumps(c)}: {_dumps(r)}" for c, r in sorted(pins.items()))
    GOLDEN.write_text("{\n" + body + "\n}\n")


if __name__ == "__main__":
    regenerate()
