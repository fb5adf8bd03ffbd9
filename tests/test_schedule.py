"""One schedule per method: the run charges it, a replay reproduces it.

WarpSelect, BlockSelect, GridSelect (shared queue and its per-thread-queue
ablation), Sort, Bitonic Top-K, BucketSelect, QuickSelect, SampleSelect,
RadixSelect, AIR Top-K (and its four variants), the Dr. Top-K hybrid
(over AIR Top-K and over Sort) and the approximate tier (bucket_approx,
twostage_approx) each declare everything a run charges the device in one
``schedule`` method.  The run charges that schedule, and the predictor
replays it with expected counts.  Here every run is replayed with its own
counts on a fresh device of the run's scale, plus the result sync every
run pays: the queue family's from ``emulate_queue_select`` over the slices
the run hands it, the other methods' (the partition family's, RadixSelect's
and the hybrid's per-row records, AIR's per-launch totals) as the run
handed them to its schedule.  The replay's ``elapsed`` must equal the
run's to 1e-9 relative: the schedule holds all of the run's simulated
time, launch-latency overlap and host round trips included.  Sort,
Bitonic Top-K and the approximate tier need no counts, and neither does a
partition run on its terminal fast path, so there the prediction must
equal the simulated time outright.

Inputs: every golden queue and radix case in both directions (the shapes
a method supports) for every method but the partition family (the radix
cases hold 16- and 64-bit keys, whose pass count differs from 32-bit
keys', and k = n, where the hybrid selects the whole row), every golden
partition case (its iteration-cap subclasses included) for the partition
family, and for every method a small sweep of batch 1, 3 and 100 with n
not a multiple of the lanes, in exact and scaled mode (the nominal n and
k above the materialised ones).
"""

from __future__ import annotations

from functools import partial

import numpy as np
import pytest

from repro.algos import get_algorithm
from repro.algos.base import RunShape
from repro.algos.hybrid import DrTopKHybrid
from repro.algos.partition_common import PartitionSelect
from repro.algos.queue_common import QueueSelect, emulate_queue_select, slice_rows
from repro.algos.radix_select import RadixSelect
from repro.core.air_topk import AIRTopK
from repro.device import A100, Device
from repro.perf import calibration as cal
from repro.perf.costmodel import _replay_schedule, predict_topk_time
from repro.primitives import priority_keys
from tests import test_golden_partition as partition_pins
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
    "bucket_select": ("bucket_select", {}),
    "quick_select": ("quick_select", {}),
    "sample_select": ("sample_select", {}),
    "radix_select": ("radix_select", {}),
    "air_topk": ("air_topk", {}),
    "air_no_adaptive": ("air_topk", {"adaptive": False}),
    "air_no_early_stop": ("air_topk", {"early_stop": False}),
    "air_fused_last": ("air_topk", {"fuse_last_filter": True}),
    "air_digit8": ("air_topk", {"digit_bits": 8}),
    "drtopk_hybrid": ("drtopk_hybrid", {}),
    "drtopk_hybrid_sort": ("drtopk_hybrid", {"base": "sort"}),
    "bucket_approx": ("bucket_approx", {}),
    "twostage_approx": ("twostage_approx", {}),
}

#: the partition family runs the golden partition cases, every other
#: method the golden queue and radix cases; all run the sweep
PARTITION = ("bucket_select", "quick_select", "sample_select")
#: methods whose counts only the run knows: the test keeps what the run
#: hands its schedule
RECORDED = (PartitionSelect, RadixSelect, AIRTopK, DrTopKHybrid)
#: methods whose schedule reads the shape alone
SHAPE_ONLY = ("sort", "bitonic_topk", "bucket_approx", "twostage_approx")

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
    """(id, data, n, k, scale, max_iterations) of every input; data is made
    on first use, and ``max_iterations`` lowers a partition method's cap."""
    for name, case in queue_pins.CASES.items():
        yield f"queue/{name}", partial(queue_pins.case_data, name), case.n, case.k, 1, None
    for name, case in radix_pins.CASES.items():
        yield f"radix/{name}", partial(radix_pins.case_data, name), case.n, case.k, 1, None
    for name, case in partition_pins.CASES.items():
        data = partial(partition_pins.case_data, name)
        yield f"partition/{name}", data, case.n, case.k, 1, case.max_iterations
    for batch, n, k, scale in SWEEP:
        data = partial(_sweep_data, batch, n)
        yield f"sweep/b{batch}-n{n}-k{k}-s{scale}", data, n, k, scale, None


#: input id -> (data, n, k, scale, max_iterations)
INPUTS = {key: rest for key, *rest in _inputs()}


def _method(method_id: str, max_iterations: int | None = None):
    algo, params = METHODS[method_id]
    method = get_algorithm(algo, params=params)
    if max_iterations is not None:
        method.max_iterations = max_iterations
    return method


def _runs_input(method_id: str, key: str) -> bool:
    source = key.split("/")[0]
    if source == "sweep":
        return True
    return (source == "partition") == (method_id in PARTITION)


def _ids():
    for method_id in METHODS:
        method = _method(method_id)
        for key, (_, n, k, scale, _) in INPUTS.items():
            if _runs_input(method_id, key) and method.supports(n * scale, k * scale) is None:
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


def _keep_counts(method, seen: list) -> None:
    """Make ``method``'s run append the counts it hands its schedule to
    ``seen``."""
    schedule = method.schedule

    def recording(spec, run, counts=None):
        seen.append(counts)
        return schedule(spec, run, counts)

    method.schedule = recording


@pytest.mark.parametrize("case_id", list(_ids()))
def test_replayed_schedule_reproduces_the_run(case_id):
    method_id, source, name, direction = case_id.split("/")
    make, n, k, scale, max_iterations = INPUTS[f"{source}/{name}"]
    data, largest = make(), direction == "largest"
    method, seen = _method(method_id, max_iterations), []
    if isinstance(method, RECORDED):
        _keep_counts(method, seen)
    device = Device(A100, scale=scale)
    method.select(
        data, k, device=device, largest=largest,
        nominal_n=n * scale, nominal_k=k * scale,
    )
    keys = priority_keys(np.ascontiguousarray(data), largest=largest)
    run = RunShape(*keys.shape, k, n * scale, k * scale, scale, keys.dtype.itemsize * 8)
    if seen:
        (counts,) = seen
    else:
        counts = _counts(method, keys, k, n * scale)
    replayed = _replay_schedule(_method(method_id, max_iterations), A100, run, counts)
    assert replayed == pytest.approx(device.elapsed, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("algo", SHAPE_ONLY)
@pytest.mark.parametrize(
    "batch, n, k", [(b, n, k) for b, n, k, scale in SWEEP if scale == 1]
)
def test_shape_only_schedules_predict_the_simulated_time(algo, batch, n, k):
    """Sort's, Bitonic's and the approximate tier's schedules depend on
    the shape alone (and on 32-bit keys for Sort), so the prediction is
    the simulated time."""
    run = get_algorithm(algo).select(_sweep_data(batch, n), k)
    predicted = predict_topk_time(algo, n=n, k=k, batch=batch)
    assert predicted == pytest.approx(run.time, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("algo", PARTITION)
@pytest.mark.parametrize("batch, n, k", [(1, 1000, 16), (100, 1000, 16), (3, 2000, 2000)])
def test_partition_fast_path_predicts_the_simulated_time(algo, batch, n, k):
    """A run with n <= max(PARTITION_TERMINAL_SIZE, k) is one fused
    terminal sort, a count the shape fixes, so the prediction is the
    simulated time."""
    assert n <= max(cal.PARTITION_TERMINAL_SIZE, k)
    run = get_algorithm(algo).select(_sweep_data(batch, n), k)
    predicted = predict_topk_time(algo, n=n, k=k, batch=batch)
    assert predicted == pytest.approx(run.time, rel=1e-9, abs=0.0)


@pytest.mark.parametrize(
    "key, whole",
    [("radix/f32-b3-n4096-kn", True), ("sweep/b3-n4099-k256-s1", False)],
)
def test_hybrid_records_both_row_paths(key, whole):
    """The hybrid selects a row whole when it cannot reduce it (g <= 1 or
    no more sub-ranges than k), and otherwise through its delegates:
    the replay test above covers both, and these inputs take each."""
    make, n, k, scale, _ = INPUTS[key]
    method, seen = _method("drtopk_hybrid"), []
    _keep_counts(method, seen)
    method.select(make(), k)
    (rows,) = seen
    assert all((row.delegates is None) == whole for row in rows)
    assert all(len(row.counts) == (1 if whole else 2) for row in rows)
