"""Recall bench: the approximate tier's Pareto sweep and quality gate.

The approximate algorithms trade recall for time, so their benchmark is
two-dimensional: for each pinned ``(n, k, batch, distribution)`` regime
this module measures the best *exact* baseline, then walks each
approximate method across a small config ladder (bucket ratios,
per-partition quotas) and records, per point,

* ``sim_time_s`` / ``speedup`` — simulated seconds and the ratio against
  the best exact baseline (``qps_capacity = batch / sim_time_s`` is the
  serving-facing reading of the same number);
* ``expected_recall`` / ``recall_floor`` — the analytic hypergeometric
  expectation and the Hoeffding high-probability floor the result
  promises (:mod:`repro.approx.recall`);
* ``empirical_recall`` — measured against the ``np.partition`` ground
  truth of the actual payload, value-based so ties never penalise an
  equally good answer.

Every point is **gated**: ``empirical_recall >= recall_floor`` must hold
(the floor is a promise attached to served results, so an empirical miss
is a correctness bug, not noise).  Regimes marked ``acceptance=True``
additionally gate the headline claim — at least one approximate point at
recall >= :data:`ACCEPT_RECALL` must beat the best exact baseline by
:data:`ACCEPT_SPEEDUP`.  A seeded mixed exact/approx serving run rides
along and must finish with zero recall violations, tying the offline
Pareto front to the SLO dispatcher that consumes it.

The body is schema-validated (:data:`BODY_SCHEMA`) and the gates are
declared in :data:`GATES`; :mod:`repro.bench.gates` evaluates them and
writes the snapshot.  CI runs this via ``repro-topk recall-bench`` —
see docs/approximate.md.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .gates import Gate, make_snapshot
from .report import format_table, format_time

logger = logging.getLogger(__name__)

#: headline acceptance gate of ``acceptance=True`` regimes: some
#: approximate point must reach this speedup at this empirical recall
ACCEPT_SPEEDUP = 2.0
ACCEPT_RECALL = 0.95

#: exact algorithms raced per regime; the fastest one is the baseline
#: every approximate point's speedup is measured against
EXACT_BASELINES = ("air_topk", "drtopk_hybrid")


@dataclass(frozen=True)
class RecallCell:
    """One pinned regime of the recall-bench grid."""

    n: int
    k: int
    batch: int
    distribution: str = "uniform"
    #: acceptance regimes gate the headline >= 2x-at-0.95-recall claim;
    #: other regimes only gate the per-point empirical-vs-floor contract
    acceptance: bool = False


#: the pinned grid.  The adversarial cell is the acceptance regime: the
#: first radix pass cannot discriminate adversarial keys, so the exact
#: multi-pass baselines pay their worst case while the single-read
#: approximate schemes are distribution-oblivious — the regime where the
#: approximate tier's >= 2x headline honestly holds.  The uniform cells
#: track the friendlier regimes where exact methods are near their best.
DEFAULT_REGIMES: tuple[RecallCell, ...] = (
    RecallCell(1 << 16, 64, 8, "uniform"),
    RecallCell(1 << 20, 256, 4, "uniform"),
    RecallCell(1 << 22, 1024, 8, "adversarial", acceptance=True),
)

#: reduced grid for tests and smoke runs (no acceptance gate: the tiny
#: problem sizes sit in the launch-latency floor where speedup is noise)
TINY_REGIMES: tuple[RecallCell, ...] = (
    RecallCell(1 << 14, 64, 4, "uniform"),
)

#: per-method config ladder walked in every regime — the knobs that
#: trace each method's recall/time Pareto front.  ``None`` entries mean
#: "the method's default plan".
APPROX_VARIANTS: tuple[tuple[str, str, dict | None], ...] = (
    # bucket_approx: more buckets = fewer collisions = higher recall,
    # paid for with a larger stage-2 merge
    ("bucket_approx", "b=8k", {"bucket_ratio": 8}),
    ("bucket_approx", "b=16k", None),
    ("bucket_approx", "b=32k", {"bucket_ratio": 32}),
    # twostage_approx: a deeper per-partition quota k'' buys recall at
    # fixed partition count (quadratically fewer misses per unit kept)
    ("twostage_approx", "k''=1", {"stage_k": 1}),
    ("twostage_approx", "k''=2", None),
    ("twostage_approx", "k''=4", {"stage_k": 4}),
)

BODY_SCHEMA = {
    "type": "object",
    "required": ["cells", "serve"],
    "properties": {
        "cells": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "n", "k", "batch", "distribution", "acceptance",
                    "exact_algo", "exact_time_s", "points",
                ],
                "properties": {
                    "n": {"type": "integer"},
                    "k": {"type": "integer"},
                    "batch": {"type": "integer"},
                    "distribution": {"type": "string"},
                    "acceptance": {"type": "boolean"},
                    "exact_algo": {"type": "string"},
                    "exact_time_s": {"type": "number"},
                    "points": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": [
                                "algo", "label", "params", "sim_time_s",
                                "speedup", "qps_capacity", "expected_recall",
                                "recall_floor", "empirical_recall",
                            ],
                            "properties": {
                                "algo": {"type": "string"},
                                "label": {"type": "string"},
                                "params": {"type": "object"},
                                "sim_time_s": {"type": "number"},
                                "speedup": {"type": "number"},
                                "qps_capacity": {"type": "number"},
                                "expected_recall": {"type": "number"},
                                "recall_floor": {"type": "number"},
                                "empirical_recall": {"type": "number"},
                            },
                        },
                    },
                },
            },
        },
        "serve": {
            "type": "object",
            "required": [
                "requests", "served", "approx_served", "recall_violations",
                "min_recall", "approx_fraction",
            ],
            "properties": {
                "requests": {"type": "integer"},
                "served": {"type": "integer"},
                "approx_served": {"type": "integer"},
                "recall_violations": {"type": "integer"},
                "min_recall": {"type": "number"},
                "approx_fraction": {"type": "number"},
            },
        },
    },
}


def _resolve_params(algo: str, k: int, params: dict | None) -> dict | None:
    """Expand ladder shorthands (``bucket_ratio``) to constructor params."""
    if params is None:
        return None
    if "bucket_ratio" in params:
        out = dict(params)
        out["buckets"] = int(out.pop("bucket_ratio")) * k
        return out
    return dict(params)


def empirical_recall(data: np.ndarray, values: np.ndarray, k: int) -> float:
    """Value-based recall of ``values`` against ``np.partition`` truth.

    A returned value is a hit when it is at least as good as the k-th
    best of its row — ties never penalise an equally good answer.  Both
    the smallest-k convention of the repository and the approximate
    methods' best-first ordering are assumed.
    """
    th = np.partition(data, k - 1, axis=1)[:, k - 1]
    return float((values <= th[:, None]).mean())


def measure_cell(
    cell: RecallCell,
    *,
    gpu: str = "A100",
    seed: int = 0,
) -> dict:
    """Measure one regime: best exact baseline + the full config ladder."""
    from ..algos import UnsupportedProblem
    from ..api import topk
    from ..datagen import generate
    from ..device import get_spec

    spec = get_spec(gpu)
    data = generate(cell.distribution, cell.n, batch=cell.batch, seed=seed)
    exact_algo, exact_time = "", float("inf")
    for name in EXACT_BASELINES:
        try:
            run = topk(data, cell.k, algo=name, device=spec, seed=seed)
        except UnsupportedProblem:
            continue
        if run.time < exact_time:
            exact_algo, exact_time = name, run.time
    if not exact_algo:
        raise UnsupportedProblem(
            f"no exact baseline supports n={cell.n}, k={cell.k}"
        )
    points = []
    for algo, label, raw in APPROX_VARIANTS:
        params = _resolve_params(algo, cell.k, raw)
        try:
            run = topk(data, cell.k, algo=algo, device=spec, seed=seed,
                       params=params)
        except UnsupportedProblem:
            continue
        empirical = empirical_recall(data, run.values, cell.k)
        floor = 1.0 if run.exact else float(run.recall_bound)
        entry = {
            "algo": algo,
            "label": label,
            "params": params or {},
            "sim_time_s": run.time,
            "speedup": exact_time / run.time if run.time > 0 else float("inf"),
            "qps_capacity": cell.batch / run.time if run.time > 0 else 0.0,
            "expected_recall": float(run.meta.get("expected_recall", 1.0)),
            "recall_floor": floor,
            "empirical_recall": empirical,
        }
        points.append(entry)
        logger.info(
            "%s n=%d k=%d batch=%d %s: sim %s (%.2fx) empirical recall %.4f",
            algo, cell.n, cell.k, cell.batch, label,
            format_time(run.time), entry["speedup"], empirical,
        )
    return {
        "n": cell.n,
        "k": cell.k,
        "batch": cell.batch,
        "distribution": cell.distribution,
        "acceptance": cell.acceptance,
        "exact_algo": exact_algo,
        "exact_time_s": exact_time,
        "points": points,
    }


def measure_serve(
    *,
    gpu: str = "A100",
    seed: int = 0,
    min_recall: float = 0.95,
    approx_fraction: float = 0.5,
) -> dict:
    """Seeded mixed exact/approx serving run; the SLO-dispatch gate."""
    from ..serve import LoadSpec, ServeConfig, run_serve_bench

    spec = LoadSpec(
        qps=400.0,
        duration_s=1.0,
        n=1 << 16,
        k=64,
        min_recall=min_recall,
        approx_fraction=approx_fraction,
        seed=seed,
    )
    config = ServeConfig(algo="auto", device=gpu, seed=seed)
    report, _service = run_serve_bench(spec, config)
    s = report.stats
    return {
        "requests": s.total,
        "served": s.served,
        "approx_served": s.approx_served,
        "recall_violations": s.recall_violations,
        "min_recall": min_recall,
        "approx_fraction": approx_fraction,
    }


def collect_snapshot(
    *,
    tiny: bool = False,
    gpu: str = "A100",
    seed: int = 0,
    rev: str | None = None,
) -> dict:
    """Measure every regime plus the serving run into a gated snapshot."""
    regimes = TINY_REGIMES if tiny else DEFAULT_REGIMES
    logger.info(
        "recall-bench: %d regimes x %d configs + mixed-load serve run",
        len(regimes),
        len(APPROX_VARIANTS),
    )
    body = {
        "cells": [measure_cell(cell, gpu=gpu, seed=seed) for cell in regimes],
        "serve": measure_serve(gpu=gpu, seed=seed),
    }
    return make_snapshot("recall", body, gpu=gpu, seed=seed, rev=rev)


def _points_below_floor(body: dict) -> int:
    return sum(
        p["empirical_recall"] < p["recall_floor"]
        for cell in body["cells"]
        for p in cell["points"]
    )


def _acceptance_speedup(body: dict) -> float | None:
    """The worst acceptance regime's best speedup among points reaching
    :data:`ACCEPT_RECALL`; None when the grid has no acceptance regime."""
    best = [
        max(
            (p["speedup"] for p in cell["points"]
             if p["empirical_recall"] >= ACCEPT_RECALL),
            default=0.0,
        )
        for cell in body["cells"]
        if cell["acceptance"]
    ]
    return min(best) if best else None


#: the recall bench's gates: the per-point floor contract, the
#: acceptance regime's headline, and the serving run's quality dispatch
GATES = (
    Gate("points below their promised recall floor", 0, "min",
         _points_below_floor),
    Gate(f"acceptance speedup at recall >= {ACCEPT_RECALL:g}",
         ACCEPT_SPEEDUP, "max", _acceptance_speedup),
    Gate("serve recall violations", 0, "min",
         lambda body: body["serve"]["recall_violations"]),
    Gate("serve approximate results", 1, "max",
         lambda body: body["serve"]["approx_served"]),
)


def render_table(body: dict) -> str:
    """The Pareto tables ``repro-topk recall-bench`` prints."""
    out = []
    for cell in body["cells"]:
        tag = "  [acceptance regime]" if cell["acceptance"] else ""
        out.append(
            f"\nn={cell['n']:,} k={cell['k']} batch={cell['batch']} "
            f"{cell['distribution']}: exact baseline {cell['exact_algo']} "
            f"{format_time(cell['exact_time_s'])}{tag}"
        )
        rows = [
            (
                f"{p['algo']}[{p['label']}]",
                format_time(p["sim_time_s"]),
                f"{p['speedup']:.2f}x",
                f"{p['qps_capacity']:,.0f}",
                f"{p['expected_recall']:.4f}",
                f"{p['recall_floor']:.4f}",
                f"{p['empirical_recall']:.4f}",
                "ok" if p["empirical_recall"] >= p["recall_floor"] else "MISS",
            )
            for p in sorted(cell["points"], key=lambda p: p["sim_time_s"])
        ]
        out.append(
            format_table(
                ["config", "sim", "speedup", "qps", "E[recall]", "floor",
                 "empirical", "floor met"],
                rows,
            )
        )
    serve = body["serve"]
    out.append(
        f"\nserve run: {serve['requests']} requests "
        f"({serve['approx_fraction'] * 100:g}% at min_recall="
        f"{serve['min_recall']:g}): approx_served="
        f"{serve['approx_served']} recall_violations="
        f"{serve['recall_violations']}"
    )
    return "\n".join(out)
