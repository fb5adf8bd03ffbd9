"""Approximate top-k tier: recall math, kernel workloads, SLO planning.

The exact algorithms of the paper trade nothing for fidelity; this
package holds everything the *approximate* tier shares:

* :mod:`repro.approx.recall` — the hypergeometric bucket-occupancy
  recall model (expected recall + Hoeffding high-probability floor) and
  the ``(parts, keep)`` config planners of both approximate algorithms;
* the kernel workload helpers below — one source of truth for the
  device traffic the simulated kernels charge *and* the analytic cost
  model prices, so the dispatcher's predictions track execution by
  construction;
* :mod:`repro.approx.planner` — :class:`QualityPlan` /
  :func:`choose_plan`, the quality-aware dispatch used by
  ``repro.topk(mode=..., min_recall=...)`` and the serving layer
  (loaded lazily: the planner imports the cost model, which the
  algorithm modules must not).

See docs/approximate.md for the full derivation and the dispatch rules.
"""

from __future__ import annotations

import math

from ..perf import calibration as cal
from .recall import (
    RECALL_DELTA,
    expected_recall,
    partition_sizes,
    plan_buckets,
    plan_twostage,
    recall_floor,
)

__all__ = [
    "APPROX_WARP_EFFICIENCY",
    "RECALL_DELTA",
    "STAGE1_OPS_PER_ELEM",
    "QualityPlan",
    "choose_plan",
    "expected_recall",
    "partition_sizes",
    "plan_buckets",
    "plan_twostage",
    "recall_floor",
    "stage1_workload",
    "stage2_workload",
]

#: per-element ops of the stage-1 streaming pass (compare against the
#: partition queue's threshold + index bookkeeping)
STAGE1_OPS_PER_ELEM = 3.0

#: stage 1 streams the input in index order (fully coalesced — the
#: affine scatter only picks which register/shared-memory queue an
#: element updates), paying a small shared-memory contention discount
APPROX_WARP_EFFICIENCY = 0.95


def _queue_inserts(size: float, keep: float) -> float:
    """E[insertions] into a best-``keep`` queue over a ``size``-item stream."""
    if size <= 0 or keep <= 0:
        return 0.0
    return keep * (1.0 + math.log(max(size / keep, 1.0)))


def _bitonic_comparators(m: float) -> float:
    """Comparators of a bitonic sort network over m (power-of-two) keys."""
    if m <= 1:
        return 0.0
    stages = math.log2(m)
    return m * stages * (stages + 1) / 4.0


def stage1_workload(n: int, parts: int, keep: int, batch: int) -> dict:
    """Device workload of the partitioned stage-1 pass, all rows fused.

    One streaming read of every key, per-partition best-``keep`` register
    queues (expected-insert maintenance cost), survivors written out.
    Returned as ``launch_kernel``/``KernelCostModel.price`` keywords.
    """
    total = float(n) * batch
    inserts = batch * sum(
        count * _queue_inserts(size, keep)
        for size, count in partition_sizes(n, parts)
    )
    return {
        "bytes_read": 4.0 * total,
        "bytes_written": 8.0 * parts * keep * batch,
        "flops": STAGE1_OPS_PER_ELEM * total
        + cal.OPS_PER_COMPARATOR
        * inserts
        * (math.log2(max(2.0, float(keep))) + 1.0),
    }


def stage2_workload(m: int, k: int, batch: int) -> dict:
    """Device workload of the survivor merge: exact top-k over ``m`` keys.

    One block per row bitonic-sorts its ``m`` survivors and keeps the
    best ``k`` — the same terminal-sort shape the exact paths charge.
    """
    comps = _bitonic_comparators(2.0 ** math.ceil(math.log2(max(2, m))))
    return {
        "bytes_read": 8.0 * m * batch,
        "bytes_written": 8.0 * k * batch,
        "flops": cal.OPS_PER_COMPARATOR * batch * comps,
    }


_PLANNER_EXPORTS = {
    "QualityPlan",
    "choose_plan",
    "candidate_plans",
}


def __getattr__(name: str):
    if name in _PLANNER_EXPORTS:
        from . import planner

        return getattr(planner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
