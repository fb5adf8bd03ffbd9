"""Golden pins of the queue family: WarpSelect, BlockSelect, GridSelect.

Four methods run in both directions on a simulated A100 — WarpSelect,
BlockSelect, GridSelect and its per-thread-queue ablation
``GridSelect(queue="thread")`` — and each run is pinned byte for byte:

* the SHA-256 of the selected values and of their indices;
* every timeline event in order — name, stream, start and duration as
  exact float ``repr`` — together with every argument its kernel launch
  was charged (grid, block, bytes, flops, cycles, warp efficiency);
* ``device.elapsed`` and every device counter.

Every run is also checked against ``np.partition`` in monotone key space,
so a pin can never hold a wrong answer.

The cases cover f16, f32, f64, i32, u32 and u64 keys; batch 1, 3 and 100;
n = 33, n that is not a multiple of the lanes, 2^14, and the multi-block
GridSelect sizes 40001 (a padded trailing block), 2^16 and 2^17; k = 1,
16, 256 and 2048; ties, NaN/±inf/±0 and integer rows that hold the
all-ones sentinel key (almost every element the dtype's maximum, selected
smallest, or its minimum, selected largest).

Three more pin sets: one scaled ``simulate_topk`` point per method (the
nominal n above the materialised one), GridSelect's kernel span args and
the ``queue.*`` counters under an active trace and metrics session, and ``repr(predict_topk_time(...))`` of every method
the predictor prices, exact and approximate, over a grid of GPUs, n, k
and batch (the shapes each method supports).

Regenerate (only for an intended output change, and say why in the
change log) with::

    PYTHONPATH=src python tests/test_golden_queue.py
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
from repro.device import A10, A100, H100, V100, Device
from repro.obs import metrics_session, trace_session
from repro.perf import scaled, simulate_topk
from repro.perf.costmodel import (
    APPROX_ALGORITHMS,
    PREDICTABLE_ALGORITHMS,
    predict_topk_time,
)
from repro.primitives import priority_keys

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_queue.json"

#: method id -> (registry name, constructor params)
METHODS = {
    "warp_select": ("warp_select", {}),
    "block_select": ("block_select", {}),
    "grid_select": ("grid_select", {}),
    "grid_select_thread": ("grid_select", {"queue": "thread"}),
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
    # tiny rows: fewer elements than one block's lanes
    "f32-b1-n33-k1": Case("float32", ("plain",), 33, 1),
    "f32-b3-n33-k33": Case("float32", ("plain", "ties", "special"), 33, 33),
    # n not a multiple of 32 or 128
    "f16-b3-n1000-k16": Case("float16", ("plain", "ties", "special"), 1000, 16),
    "f64-b3-n1000-k256": Case("float64", ("special", "plain", "ties"), 1000, 256),
    "i32-b3-n1000-k256-sentinel": Case("int32", ("top", "bottom", "plain"), 1000, 256),
    "u32-b3-n333-k300-sentinel": Case("uint32", ("top", "bottom", "ties"), 333, 300),
    "u64-b3-n1000-k16-sentinel": Case("uint64", ("top", "bottom", "ties"), 1000, 16),
    "f32-b100-n1000-k16": Case(
        "float32", _cycle(("plain", "ties", "special"), 100), 1000, 16
    ),
    "i32-b100-n2000-k256": Case(
        "int32", _cycle(("plain", "ties", "top", "bottom"), 100), 2000, 256
    ),
    # n = 2^14: the largest single-block GridSelect
    "f32-b1-n16384-k2048": Case("float32", ("plain",), 2**14, 2048),
    "f32-b3-n16384-k256": Case("float32", ("special", "ties", "plain"), 2**14, 256),
    "f16-b3-n16384-k16": Case("float16", ("ties", "special", "plain"), 2**14, 16),
    "f32-b100-n16384-k16": Case(
        "float32", _cycle(("plain", "ties", "special"), 100), 2**14, 16
    ),
    "u64-b3-n16384-k2048-sentinel": Case(
        "uint64", ("top", "plain", "bottom"), 2**14, 2048
    ),
    # multi-block GridSelect: 3 blocks with a padded trailing one, 4 and 8
    "f32-b3-n40001-k256": Case("float32", ("plain", "ties", "special"), 40001, 256),
    "i32-b3-n40001-k16-sentinel": Case("int32", ("top", "bottom", "plain"), 40001, 16),
    "f32-b100-n20000-k16": Case(
        "float32", _cycle(("plain", "ties", "special"), 100), 20000, 16
    ),
    "f32-b1-n65536-k2048": Case("float32", ("plain",), 2**16, 2048),
    "f64-b3-n65536-k16": Case("float64", ("special", "plain", "ties"), 2**16, 16),
    "u64-b1-n131072-k256": Case("uint64", ("plain",), 2**17, 256),
    "f32-b3-n131072-k1": Case("float32", ("plain", "ties", "special"), 2**17, 1),
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

    def __init__(self, spec=A100, **kw) -> None:
        super().__init__(spec, **kw)
        self.charges: dict[int, dict] = {}

    def launch_kernel(self, name, **kw):
        duration = super().launch_kernel(name, **kw)
        self.charges[len(self.timeline) - 1] = {
            f: repr(kw.get(f, default)) for f, default in LAUNCH_ARGS.items()
        }
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


def run_case(method: str, name: str, largest: bool):
    """The pin record of one run, and its result."""
    device = RecordingDevice()
    res = _algorithm(method).select(
        case_data(name), CASES[name].k, device=device, largest=largest
    )
    record = {"values": _sha(res.values), "indices": _sha(res.indices)}
    return record | device_record(device), res


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
    """Span args and queue counters of one multi-block run under an active
    trace and metrics session."""
    with trace_session(), metrics_session() as registry:
        device = RecordingDevice()
        _algorithm(method).select(case_data("f32-b3-n40001-k256"), 256, device=device)
    return {
        "span_args": [[e.name, e.args] for e in device.timeline],
        "metrics": registry.to_payload(),
    }


#: predictor grid: 4 GPUs x n 2^8..2^30 (4x steps) x k <= n x 3 batches
GPUS = (A10, A100, H100, V100)
PREDICT_NS = tuple(2**e for e in range(8, 31, 2))
PREDICT_KS = (1, 16, 256, 1024, 2048)
PREDICT_BATCHES = (1, 3, 100)


def predictor_record() -> dict:
    return {
        f"{algo}/{spec.name}/n{n}/k{k}/b{batch}": repr(
            predict_topk_time(algo, n=n, k=k, batch=batch, spec=spec)
        )
        for algo in PREDICTABLE_ALGORITHMS + APPROX_ALGORITHMS
        for spec in GPUS
        for n in PREDICT_NS
        for k in PREDICT_KS
        if k <= n and get_algorithm(algo).supports(n, k) is None
        for batch in PREDICT_BATCHES
    }


def _ids():
    for method in METHODS:
        for name in CASES:
            for direction in ("smallest", "largest"):
                yield f"{method}/{name}/{direction}"


IDS = list(_ids())
EXTRA_IDS = [f"scaled/{m}" for m in METHODS] + [
    "telemetry/grid_select",
    "telemetry/grid_select_thread",
    "predict",
]


def _run(case_id: str):
    method, name, direction = case_id.split("/")
    return run_case(method, name, direction == "largest")


def _extra(case_id: str) -> dict:
    kind, _, method = case_id.partition("/")
    if kind == "scaled":
        return scaled_record(method)
    if kind == "telemetry":
        return telemetry_record(method)
    return predictor_record()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case_id", IDS)
def test_queue_matches_golden(case_id, golden):
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
def test_queue_extras_match_golden(case_id, golden):
    assert _extra(case_id) == golden[case_id]


def test_pins_cover_every_case(golden):
    assert sorted(golden) == sorted(IDS + EXTRA_IDS)


def _dumps(record: dict) -> str:
    """One pin record as JSON, one timeline event or prediction a line."""
    if "events" not in record:
        items = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in record.items())
        return "{\n" + items + "\n}"
    head = {f: v for f, v in record.items() if f != "events"}
    events = ",\n".join(json.dumps(e) for e in record["events"])
    return f'{json.dumps(head, sort_keys=True)[:-1]}, "events": [\n{events}\n]}}'


def regenerate() -> None:
    pins = {case_id: _run(case_id)[0] for case_id in IDS}
    pins |= {case_id: _extra(case_id) for case_id in EXTRA_IDS}
    body = ",\n".join(f"{json.dumps(c)}: {_dumps(r)}" for c, r in sorted(pins.items()))
    GOLDEN.write_text("{\n" + body + "\n}\n")


if __name__ == "__main__":
    regenerate()
