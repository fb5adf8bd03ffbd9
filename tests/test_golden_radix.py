"""Golden pins of the radix family (AIR Top-K, RadixSelect, Dr. Top-K)
and of Bitonic Top-K.

Eight methods run in both directions on a simulated A100 — AIR Top-K as
the registry builds it, its four variants (``adaptive=False``,
``early_stop=False``, ``fuse_last_filter=True``, ``digit_bits=8``),
RadixSelect, the Dr. Top-K hybrid over AIR and Bitonic Top-K (these
three replay one row's schedule per row: Bitonic skips the batch-100
cases, and every case above its ``max_k`` of 256) — and each run is
pinned byte for byte:

* the SHA-256 of the selected values and of their indices;
* every timeline event in order — name, stream, start and duration as
  exact float ``repr`` — together with every argument its kernel launch
  was charged (grid, block, bytes, flops, cycles, warp efficiency, in the
  order of ``Device.launch_kernel``'s keywords), or the bytes its PCIe
  copy moved.  RadixSelect's and the hybrid's batch-100 runs pin the
  SHA-256 of that event list instead (``events_sha256``): in full it
  would hold a hundred row schedules;
* ``device.elapsed`` and every device counter;
* AIR's ``last_trace``: one ``PassRecord`` per pass and row (for the
  hybrid, its AIR base's last call).

Every run is also checked against ``np.partition`` in monotone key space,
so a pin can never hold a wrong answer.

The cases cover f16, f32, f64, i32 and u64 keys; batch 1, 3 and 100; n =
4096, 2^14 + 3 and 2^16; k = 1, 32, 256 and k = n (AIR stops early after
its first pass); ties, NaN/±inf/±0, keys that share their leading bits
(so AIR rescans its input at pass 2 and later) and 64-bit rows that hold
both extremes of the key range.

Two more pin sets: one scaled ``simulate_topk`` point per method (the
nominal n above the materialised one), and AIR's kernel span args and
``air.*`` counters under an active trace and metrics session.

Regenerate (only for an intended output change, and say why in the
change log) with::

    PYTHONPATH=src python tests/test_golden_radix.py
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
from unittest import mock

import numpy as np
import pytest

from repro.algos import get_algorithm
from repro.device import A100, Device
from repro.obs import metrics_session, trace_session
from repro.perf import scaled, simulate_topk
from repro.primitives import priority_keys

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_radix.json"

#: method id -> (registry name, constructor params)
METHODS = {
    "air_topk": ("air_topk", {}),
    "air_no_adaptive": ("air_topk", {"adaptive": False}),
    "air_no_early_stop": ("air_topk", {"early_stop": False}),
    "air_fused_last": ("air_topk", {"fuse_last_filter": True}),
    "air_digit8": ("air_topk", {"digit_bits": 8}),
    "radix_select": ("radix_select", {}),
    "drtopk_hybrid": ("drtopk_hybrid", {}),
    "bitonic_topk": ("bitonic_topk", {}),
}

AIR_METHODS = [m for m, (algo, _) in METHODS.items() if algo == "air_topk"]

#: methods that replay one row's launch schedule per row: a batch-100 run
#: would pin 100 copies of what their batch-1 and batch-3 cases pin
PER_ROW = ("radix_select", "drtopk_hybrid", "bitonic_topk")

#: per-row methods whose batch-100 runs are pinned by their event list's
#: SHA-256 (the others skip those cases)
DIGEST_EVENTS = ("radix_select", "drtopk_hybrid")

#: launch arguments pinned per kernel, in this order: every keyword but
#: the span args
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


N_ODD = 2**14 + 3

CASES = {
    # n = 4096
    "f32-b1-n4096-k1": Case("float32", ("plain",), 4096, 1),
    "f32-b3-n4096-k32": Case("float32", ("plain", "ties", "special"), 4096, 32),
    "f32-b3-n4096-kn": Case("float32", ("plain", "ties", "special"), 4096, 4096),
    "f32-b100-n4096-k256": Case(
        "float32", _cycle(("plain", "ties", "special", "shared"), 100), 4096, 256
    ),
    "f16-b1-n4096-k32-shared": Case("float16", ("shared",), 4096, 32),
    "i32-b100-n4096-k32": Case(
        "int32", _cycle(("plain", "ties", "shared", "extremes"), 100), 4096, 32
    ),
    "u64-b1-n4096-kn": Case("uint64", ("extremes",), 4096, 4096),
    "u64-b100-n4096-k1": Case(
        "uint64", _cycle(("extremes", "plain", "shared"), 100), 4096, 1
    ),
    # n = 2^14 + 3
    "f16-b3-n16387-k256": Case("float16", ("plain", "ties", "special"), N_ODD, 256),
    "f64-b3-n16387-k32": Case("float64", ("special", "shared", "extremes"), N_ODD, 32),
    "i32-b3-n16387-k256": Case("int32", ("plain", "ties", "shared"), N_ODD, 256),
    # n = 2^16
    "f32-b1-n65536-k256-shared": Case("float32", ("shared",), 2**16, 256),
    "f32-b3-n65536-k1": Case("float32", ("shared", "special", "plain"), 2**16, 1),
    "f64-b1-n65536-k256-shared": Case("float64", ("shared",), 2**16, 256),
    "u64-b3-n65536-k256": Case("uint64", ("extremes", "shared", "plain"), 2**16, 256),
}

#: elements of a ``shared`` row that do not share the leading bits
STRAYS = 64


def _row(rng: np.random.Generator, dtype: np.dtype, kind: str, n: int) -> np.ndarray:
    """One row of ``kind``: plain, ties, special (NaN/±inf/±0), shared (all
    but ``STRAYS`` keys agree on their leading 20-odd bits) or extremes
    (an eighth of the row at each end of the key range)."""
    if dtype.kind == "f":
        x = rng.standard_normal(n)
        if kind == "ties":
            x = np.round(x * 4.0)
        elif kind == "special":
            x[rng.choice(n, size=n // 32, replace=False)] = np.nan
            x[:6] = (np.inf, -np.inf, np.inf, -np.inf, 0.0, -0.0)
        elif kind == "shared":
            x[STRAYS:] = 1.0 + rng.random(n - STRAYS) * 2.0**-14
        elif kind == "extremes":
            info = np.finfo(dtype)
            x[: n // 8] = -np.inf
            x[n // 8 : n // 4] = np.inf
            x[n // 4 : n // 4 + 4] = (info.min, info.max, info.tiny, -info.tiny)
        return rng.permutation(x.astype(dtype))
    info = np.iinfo(dtype)
    if kind == "ties":
        x = rng.integers(0, 40, size=n).astype(dtype)
    else:
        x = rng.integers(info.min, info.max, size=n, dtype=dtype, endpoint=True)
        if kind == "shared":
            base = dtype.type(1) << dtype.type(info.bits - 8)
            x[STRAYS:] = base + rng.integers(0, 512, size=n - STRAYS).astype(dtype)
        elif kind == "extremes":
            x[: n // 8] = info.min
            x[n // 8 : n // 4] = info.max
    return rng.permutation(x)


@functools.cache
def case_data(name: str) -> np.ndarray:
    case = CASES[name]
    rng = np.random.default_rng(zlib.crc32(name.encode()))
    dtype = np.dtype(case.dtype)
    data = np.stack([_row(rng, dtype, kind, case.n) for kind in case.rows])
    data.flags.writeable = False
    return data


class RecordingDevice(Device):
    """A simulated device that also keeps what each event was charged."""

    def __init__(self, spec=A100, **kw) -> None:
        super().__init__(spec, **kw)
        self.charges: dict[int, object] = {}

    def launch_kernel(self, name, **kw):
        duration = super().launch_kernel(name, **kw)
        self.charges[len(self.timeline) - 1] = [
            repr(kw.get(f, default)) for f, default in LAUNCH_ARGS.items()
        ]
        return duration

    def _memcpy(self, name, nbytes, stream, scalable):
        duration = super()._memcpy(name, nbytes, stream, scalable)
        self.charges[len(self.timeline) - 1] = [repr(float(nbytes)), scalable]
        return duration


def _sha(a: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def device_record(device: RecordingDevice) -> dict:
    """Elapsed time, counters and every event of one simulated run."""
    events = [
        [e.name, e.stream, repr(e.start), repr(e.duration), device.charges.get(i)]
        for i, e in enumerate(device.timeline)
    ]
    counters = {
        f.name: repr(getattr(device.counters, f.name))
        for f in dataclasses.fields(device.counters)
    }
    return {"elapsed": repr(device.elapsed), "counters": counters, "events": events}


def _algorithm(method: str):
    algo, params = METHODS[method]
    return get_algorithm(algo, params=params)


def _passes(algorithm) -> list | None:
    """AIR's pass trace of the last run: its own, or the hybrid's base's."""
    air = getattr(algorithm, "base", algorithm)
    trace = getattr(air, "last_trace", None)
    if trace is None:
        return None
    return [list(record) for record in trace]


def run_case(method: str, name: str, largest: bool):
    """The pin record of one run, and its result."""
    device = RecordingDevice()
    algorithm = _algorithm(method)
    res = algorithm.select(
        case_data(name), CASES[name].k, device=device, largest=largest
    )
    record = {
        "values": _sha(res.values),
        "indices": _sha(res.indices),
        "passes": _passes(algorithm),
    } | device_record(device)
    if method in PER_ROW and len(CASES[name].rows) > 3:
        events = json.dumps(record.pop("events")).encode()
        record["events_sha256"] = hashlib.sha256(events).hexdigest()
    return record, res


def scaled_record(method: str) -> dict:
    """One scaled benchmark point: 2^22 nominal elements a row, 2^13
    materialised."""
    algo, params = METHODS[method]
    with mock.patch.object(scaled, "Device", RecordingDevice):
        run = simulate_topk(
            algo, distribution="uniform", n=2**22, k=256, batch=2,
            cap=2**14, **params,
        )
    assert run.mode == "scaled"
    return {"time": repr(run.time)} | device_record(run.device)


def telemetry_record(method: str) -> dict:
    """Span args and ``air.*`` counters of one mixed run under an active
    trace and metrics session."""
    with trace_session(), metrics_session() as registry:
        device = RecordingDevice()
        _algorithm(method).select(case_data("f32-b100-n4096-k256"), 256, device=device)
    return {
        "span_args": [[e.name, e.args] for e in device.timeline],
        "metrics": registry.to_payload(),
    }


def _ids():
    for method in METHODS:
        for name, case in CASES.items():
            if (
                method in PER_ROW and method not in DIGEST_EVENTS
                and len(case.rows) > 3
            ):
                continue
            max_k = _algorithm(method).max_k
            if max_k is not None and case.k > max_k:
                continue
            for direction in ("smallest", "largest"):
                yield f"{method}/{name}/{direction}"


IDS = list(_ids())
EXTRA_IDS = [f"scaled/{m}" for m in METHODS] + [
    f"telemetry/{m}" for m in AIR_METHODS
]


def _run(case_id: str):
    method, name, direction = case_id.split("/")
    return run_case(method, name, direction == "largest")


def _extra(case_id: str) -> dict:
    kind, _, method = case_id.partition("/")
    if kind == "scaled":
        return scaled_record(method)
    return telemetry_record(method)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case_id", IDS)
def test_radix_matches_golden(case_id, golden):
    record, res = _run(case_id)
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


@pytest.mark.parametrize("case_id", EXTRA_IDS)
def test_radix_extras_match_golden(case_id, golden):
    assert _extra(case_id) == golden[case_id]


def test_pins_cover_every_case(golden):
    assert sorted(golden) == sorted(IDS + EXTRA_IDS)


def _dumps(record: dict) -> str:
    """One pin record as JSON, one timeline event or pass record a line."""
    if "events" not in record:
        items = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in record.items())
        return "{\n" + items + "\n}"
    head = {f: v for f, v in record.items() if f not in ("events", "passes")}
    lines = f'{json.dumps(head, sort_keys=True)[:-1]}, "events": [\n'
    lines += ",\n".join(json.dumps(e) for e in record["events"]) + "\n]"
    if "passes" in record:
        passes = record["passes"]
        body = "null" if passes is None else (
            "[\n" + ",\n".join(json.dumps(p) for p in passes) + "\n]"
        )
        lines += f', "passes": {body}'
    return lines + "}"


def regenerate() -> None:
    pins = {case_id: _run(case_id)[0] for case_id in IDS}
    pins |= {case_id: _extra(case_id) for case_id in EXTRA_IDS}
    body = ",\n".join(f"{json.dumps(c)}: {_dumps(r)}" for c, r in sorted(pins.items()))
    GOLDEN.write_text("{\n" + body + "\n}\n")


if __name__ == "__main__":
    regenerate()
