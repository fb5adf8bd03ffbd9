"""One launch schedule per method: the run charges it, a replay reproduces it.

WarpSelect, BlockSelect, GridSelect (shared queue and its per-thread-queue
ablation), Sort and Bitonic Top-K each declare every launch of a run in
one ``schedule`` method.  The run charges that schedule, and the
predictor replays it with expected counts.  Here every run is replayed
with its own counts, the queue family's from ``emulate_queue_select`` over
the slices the run hands it, on a fresh device of the run's scale, plus
the result sync every run pays.  The replay's ``elapsed`` must equal the
run's to 1e-9 relative: the schedule holds all of the run's simulated
time, launch-latency overlap included.  Sort and Bitonic Top-K need no
counts, so their prediction must equal the simulated time outright.

Inputs: every golden queue and radix case in both directions (the shapes
a method supports), and a small sweep of batch 1, 3 and 100 with n not a
multiple of the lanes, in exact and scaled mode (the nominal n and k
above the materialised ones).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.algos import get_algorithm
from repro.algos.base import RunShape
from repro.algos.queue_common import QueueSelect, emulate_queue_select, slice_rows
from repro.device import A100, Device
from repro.perf import calibration as cal
from repro.perf.costmodel import _replay_schedule, predict_topk_time
from repro.primitives import priority_keys
from tests import test_golden_queue as queue_pins
from tests import test_golden_radix as radix_pins

#: method id -> (registry name, constructor params)
METHODS = {
    "warp_select": ("warp_select", {}),
    "block_select": ("block_select", {}),
    "grid_select": ("grid_select", {}),
    "grid_select_thread": ("grid_select", {"queue": "thread"}),
    "sort": ("sort", {}),
    "bitonic_topk": ("bitonic_topk", {}),
}

#: (batch, n, k, scale): the nominal problem is (n * scale, k * scale)
SWEEP = [
    (1, 1000, 16, 1),
    (3, 4099, 256, 1),
    (100, 1000, 16, 1),
    (3, 40001, 64, 1),
    (1, 4099, 16, 8),
    (3, 5000, 32, 4),
    (100, 2000, 8, 16),
]


def _sweep_data(batch: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(batch * n)
    return rng.standard_normal((batch, n)).astype(np.float32)


def _inputs():
    """(id, data, n, k, scale) of every input; data is made on first use."""
    for name, case in queue_pins.CASES.items():
        yield f"queue/{name}", partial(queue_pins.case_data, name), case.n, case.k, 1
    for name, case in radix_pins.CASES.items():
        yield f"radix/{name}", partial(radix_pins.case_data, name), case.n, case.k, 1
    for batch, n, k, scale in SWEEP:
        data = partial(_sweep_data, batch, n)
        yield f"sweep/b{batch}-n{n}-k{k}-s{scale}", data, n, k, scale


#: input id -> (data, n, k, scale)
INPUTS = {key: rest for key, *rest in _inputs()}


def _method(method_id: str):
    algo, params = METHODS[method_id]
    return get_algorithm(algo, params=params)


def _ids():
    for method_id in METHODS:
        method = _method(method_id)
        for key, (_, n, k, scale) in INPUTS.items():
            if method.supports(n * scale, k * scale) is None:
                for direction in ("smallest", "largest"):
                    yield f"{method_id}/{key}/{direction}"


def _counts(method, keys: np.ndarray, k: int, nominal_n: int):
    """The queue counts of a run, from the slices its ``_run`` hands the
    emulation; None for a method whose schedule reads none."""
    if not isinstance(method, QueueSelect):
        return None
    blocks = method.num_blocks(A100, nominal_n)
    costs = cal.queue_cost(method.cost_record)
    slices, lengths = keys, None
    if blocks > 1:
        slices, offsets = slice_rows(keys, blocks)
        lengths = np.clip(keys.shape[1] - offsets, 0, slices.shape[1])
    return emulate_queue_select(
        slices,
        k,
        lanes=method.lanes,
        mode=costs.mode,
        queue_len=costs.queue_len,
        valid_lengths=lengths,
    ).stats


@pytest.mark.parametrize("case_id", list(_ids()))
def test_replayed_schedule_reproduces_the_run(case_id):
    method_id, source, name, direction = case_id.split("/")
    make, n, k, scale = INPUTS[f"{source}/{name}"]
    data, largest = make(), direction == "largest"
    method = _method(method_id)
    device = Device(A100, scale=scale)
    method.select(
        data, k, device=device, largest=largest,
        nominal_n=n * scale, nominal_k=k * scale,
    )
    keys = priority_keys(np.ascontiguousarray(data), largest=largest)
    run = RunShape(*keys.shape, k, n * scale, k * scale, scale, keys.dtype.itemsize * 8)
    replayed = _replay_schedule(method, A100, run, _counts(method, keys, k, n * scale))
    assert replayed == pytest.approx(device.elapsed, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("algo", ["sort", "bitonic_topk"])
@pytest.mark.parametrize(
    "batch, n, k", [(b, n, k) for b, n, k, scale in SWEEP if scale == 1]
)
def test_shape_only_schedules_predict_the_simulated_time(algo, batch, n, k):
    """Sort's and Bitonic's schedules depend on the shape alone (and on
    32-bit keys for Sort), so the prediction is the simulated time."""
    run = get_algorithm(algo).select(_sweep_data(batch, n), k)
    predicted = predict_topk_time(algo, n=n, k=k, batch=batch)
    assert predicted == pytest.approx(run.time, rel=1e-9, abs=0.0)
