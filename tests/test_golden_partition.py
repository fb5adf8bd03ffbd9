"""Golden pins of the partition family: BucketSelect, QuickSelect, SampleSelect.

Every case runs each of the three methods in both directions on a
simulated A100 and pins, byte for byte:

* the SHA-256 of the selected values and of their indices;
* every timeline event in order — name, stream, start and duration as
  exact float ``repr`` — together with the grid, bytes and flops its
  kernel launch was charged, or the bytes its PCIe copy moved;
* ``device.elapsed`` and every device counter.

A run that raises is pinned as its exception type and message.  Every
run that returns is also checked against ``np.partition`` in monotone key
space, so a pin can never hold a wrong answer.

The cases cover f16, f32, f64, i32 and u64 keys; batch 1, 3 and 100; n
at the terminal fast path (1024), just above it (1025), 4096 and 2^16;
ties, NaN/±inf/±0, keys that share their leading bits, constant rows and
rows with 2,000 copies of both extremes inside mixed batches.  The
``cap`` cases lower ``max_iterations`` in a test-local subclass to force
the iteration cap.

Regenerate (only for an intended output change, and say why in the
change log) with::

    PYTHONPATH=src python tests/test_golden_partition.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.algos import BucketSelect, QuickSelect, SampleSelect
from repro.device import A100, Device
from repro.primitives import priority_keys

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_partition.json"

METHODS = {
    "bucket_select": BucketSelect,
    "quick_select": QuickSelect,
    "sample_select": SampleSelect,
}

#: copies of each extreme in a ``heavy`` row
HEAVY = 2000


def _cycle(kinds: tuple[str, ...], batch: int) -> tuple[str, ...]:
    return tuple(itertools.islice(itertools.cycle(kinds), batch))


@dataclasses.dataclass(frozen=True)
class Case:
    dtype: str
    rows: tuple[str, ...]  # the kind of every row, see _row
    n: int
    k: int
    seed: int = 0
    max_iterations: int | None = None  # lowered to force the cap


CASES = {
    # terminal fast path: n <= max(1024, k)
    "f32-b1-n1024": Case("float32", ("plain",), 1024, 16),
    "f32-b100-n1024-kn": Case(
        "float32", _cycle(("plain", "ties", "special", "constant"), 100),
        1024, 1024,
    ),
    "u64-b3-n1024": Case("uint64", ("plain", "adversarial", "ties"), 1024, 5),
    # just above the fast path
    "f32-b3-n1025": Case("float32", ("plain", "ties", "special"), 1025, 16),
    "f64-b3-n1025": Case("float64", ("plain", "special", "ties"), 1025, 16),
    "i32-b100-n1025-k700": Case("int32", _cycle(("plain", "ties"), 100), 1025, 700),
    # n = 4096
    "f32-b100-n4096": Case(
        "float32",
        _cycle(("plain", "ties", "special", "constant", "adversarial"), 100),
        4096, 100,
    ),
    "f16-b3-n4096": Case("float16", ("plain", "ties", "adversarial"), 4096, 16),
    "f16-b3-n4096-k2100": Case(
        "float16", ("plain", "special", "constant"), 4096, 2100
    ),
    "i32-b100-n4096": Case(
        "int32", _cycle(("plain", "ties", "adversarial", "constant"), 100),
        4096, 16, seed=5,
    ),
    "u64-b3-n4096": Case("uint64", ("adversarial", "plain", "adversarial"), 4096, 16),
    # n = 2^16
    "f32-b1-n65536-ties-k40000": Case("float32", ("ties",), 2**16, 40000),
    "f32-b1-n65536-heavy": Case("float32", ("heavy",), 2**16, 16),
    "f32-b3-n65536-heavy": Case("float32", ("plain", "constant", "heavy"), 2**16, 16),
    "f32-b3-n65536-heavy-k2010": Case(
        "float32", ("heavy", "special", "heavy"), 2**16, HEAVY + 10
    ),
    "f16-b3-n65536-heavy-k2010": Case(
        "float16", ("heavy", "adversarial", "heavy"), 2**16, HEAVY + 10
    ),
    "f64-b1-n65536": Case("float64", ("plain",), 2**16, 32),
    "f64-b3-n65536-heavy-k2010": Case(
        "float64", ("heavy", "plain", "heavy"), 2**16, HEAVY + 10
    ),
    "i32-b3-n65536-heavy": Case("int32", ("heavy", "ties", "constant"), 2**16, 16),
    "u64-b1-n65536": Case("uint64", ("plain",), 2**16, 64),
    "u64-b3-n65536-heavy-k2010": Case(
        "uint64", ("heavy", "adversarial", "heavy"), 2**16, HEAVY + 10
    ),
    # iteration cap: max_iterations=1 retires every row right after the
    # rectangular iteration 0; 2 after one flat iteration
    "cap1-f32-b3-n65536": Case(
        "float32", ("plain", "constant", "heavy"), 2**16, 16, max_iterations=1
    ),
    "cap2-f32-b3-n65536": Case(
        "float32", ("plain", "ties", "heavy"), 2**16, 16, max_iterations=2
    ),
}


def _row(rng: np.random.Generator, dtype: np.dtype, kind: str, n: int) -> np.ndarray:
    """One row of ``kind``: plain, ties, special, adversarial, constant or
    heavy (``HEAVY`` copies of each extreme around plain values)."""
    if kind == "constant":
        return np.full(n, 7, dtype=dtype)
    if dtype.kind == "f":
        x = rng.standard_normal(n)
        if kind == "ties":
            x = np.round(x * 4.0)
        elif kind == "special":
            x[rng.choice(n, size=n // 32, replace=False)] = np.nan
            x[:6] = (np.inf, -np.inf, np.inf, -np.inf, 0.0, -0.0)
        elif kind == "adversarial":  # only the low mantissa bits differ
            x = 1.0 + rng.random(n) * 2.0**-8
        elif kind == "heavy":
            x[: 2 * HEAVY] = np.repeat((-1000.0, 1000.0), HEAVY)
        return rng.permutation(x.astype(dtype))
    info = np.iinfo(dtype)
    if kind == "ties":
        x = rng.integers(0, 40, size=n)
    elif kind == "adversarial":  # only the top bits differ
        shift = info.bits - 8 if dtype.kind == "i" else info.bits // 2
        x = rng.integers(0, 64, size=n).astype(dtype) << dtype.type(shift)
    else:
        x = rng.integers(info.min, info.max, size=n, dtype=dtype, endpoint=True)
        if kind == "heavy":
            x[: 2 * HEAVY] = np.repeat(np.array((info.min, info.max), dtype), HEAVY)
    return rng.permutation(x.astype(dtype))


def case_data(name: str) -> np.ndarray:
    case = CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    dtype = np.dtype(case.dtype)
    return np.stack([_row(rng, dtype, kind, case.n) for kind in case.rows])


class RecordingDevice(Device):
    """A simulated A100 that also keeps what each event was charged."""

    def __init__(self) -> None:
        super().__init__(A100)
        self.charges: dict[int, list] = {}

    def launch_kernel(self, name, **kw):
        duration = super().launch_kernel(name, **kw)
        self.charges[len(self.timeline) - 1] = [int(kw["grid_blocks"])] + [
            repr(float(kw.get(f, 0.0)))
            for f in ("bytes_read", "bytes_written", "flops")
        ]
        return duration

    def memcpy_d2h(self, name, nbytes, **kw):
        duration = super().memcpy_d2h(name, nbytes, **kw)
        self.charges[len(self.timeline) - 1] = [repr(float(nbytes))]
        return duration


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def run_case(method: str, name: str, largest: bool):
    """The pin record of one run, and its result (None if it raised)."""
    case = CASES[name]
    cls = METHODS[method]
    if case.max_iterations is not None:
        cls = type(cls.__name__, (cls,), {"max_iterations": case.max_iterations})
    device = RecordingDevice()
    try:
        res = cls().select(
            case_data(name), case.k, device=device, largest=largest, seed=case.seed
        )
    except Exception as exc:  # pinned as what it is
        return {"error": f"{type(exc).__name__}: {exc}"}, None
    events = [
        [e.name, e.stream, repr(e.start), repr(e.duration)]
        + device.charges.get(i, [])
        for i, e in enumerate(device.timeline)
    ]
    counters = {
        f.name: repr(getattr(device.counters, f.name))
        for f in dataclasses.fields(device.counters)
    }
    record = {
        "values": _sha(res.values),
        "indices": _sha(res.indices),
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
def test_partition_matches_golden(case_id, golden):
    record, res = _run(case_id)
    if res is not None:
        _, name, direction = case_id.split("/")
        data, k = case_data(name), CASES[name].k
        largest = direction == "largest"
        got = priority_keys(np.ascontiguousarray(res.values), largest=largest)
        want = np.partition(priority_keys(data, largest=largest), k - 1, axis=1)
        np.testing.assert_array_equal(np.sort(got, axis=1), np.sort(want[:, :k], axis=1))
        np.testing.assert_array_equal(
            np.take_along_axis(data, res.indices, axis=1), res.values
        )
    assert record == golden[case_id]


def test_pins_cover_every_case(golden):
    assert sorted(golden) == sorted(IDS)


def _dumps(record: dict) -> str:
    """One pin record as JSON, one timeline event a line."""
    if "events" not in record:
        return json.dumps(record)
    head = {f: v for f, v in record.items() if f != "events"}
    events = ",\n".join(json.dumps(e) for e in record["events"])
    return f'{json.dumps(head, sort_keys=True)[:-1]}, "events": [\n{events}\n]}}'


def regenerate() -> None:
    pins = {case_id: _run(case_id)[0] for case_id in sorted(IDS)}
    body = ",\n".join(f"{json.dumps(c)}: {_dumps(r)}" for c, r in pins.items())
    GOLDEN.write_text("{\n" + body + "\n}\n")


if __name__ == "__main__":
    regenerate()
