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

Snapshots are schema-validated JSON (``repro.bench.recall/v1``); CI runs
this via ``repro-topk recall-bench`` — see docs/approximate.md.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..obs.manifest import git_revision
from ..obs.schema import validate
from .report import format_table, format_time

SCHEMA_ID = "repro.bench.recall/v1"

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

SNAPSHOT_SCHEMA = {
    "type": "object",
    "required": ["schema", "rev", "gpu", "seed", "cells", "serve"],
    "properties": {
        "schema": {"const": SCHEMA_ID},
        "rev": {"type": "string"},
        "gpu": {"type": "string"},
        "seed": {"type": "integer"},
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
                                "recall_floor", "empirical_recall", "gate_ok",
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
                                "gate_ok": {"type": "boolean"},
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
    variants: tuple = APPROX_VARIANTS,
    progress=None,
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
    for algo, label, raw in variants:
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
            "gate_ok": empirical >= floor,
        }
        points.append(entry)
        if progress is not None:
            progress(cell, entry)
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
    regimes: tuple[RecallCell, ...] = DEFAULT_REGIMES,
    *,
    gpu: str = "A100",
    seed: int = 0,
    variants: tuple = APPROX_VARIANTS,
    serve: bool = True,
    rev: str | None = None,
    progress=None,
) -> dict:
    """Measure every regime (plus the serving gate) into a validated
    ``repro.bench.recall/v1`` payload."""
    cells = [
        measure_cell(
            cell, gpu=gpu, seed=seed, variants=variants, progress=progress
        )
        for cell in regimes
    ]
    snapshot = {
        "schema": SCHEMA_ID,
        "rev": rev if rev is not None else git_revision(short=True) or "local",
        "gpu": gpu,
        "seed": int(seed),
        "cells": cells,
        "serve": (
            measure_serve(gpu=gpu, seed=seed)
            if serve
            else {
                "requests": 0,
                "served": 0,
                "approx_served": 0,
                "recall_violations": 0,
                "min_recall": 0.0,
                "approx_fraction": 0.0,
            }
        ),
    }
    validate(snapshot, SNAPSHOT_SCHEMA)
    return snapshot


def gate_recall(
    snapshot: dict,
    *,
    min_speedup: float = ACCEPT_SPEEDUP,
    at_recall: float = ACCEPT_RECALL,
) -> list[str]:
    """Every gate violation in ``snapshot`` (empty list = gate passes).

    Three contracts are checked: each measured point's empirical recall
    clears its promised floor; each acceptance regime has a point at
    ``>= at_recall`` empirical recall beating the exact baseline by
    ``>= min_speedup``; and the serving run (when it carried approximate
    traffic) finished with zero recall violations.
    """
    failures: list[str] = []
    for cell in snapshot["cells"]:
        label = (
            f"n={cell['n']} k={cell['k']} batch={cell['batch']} "
            f"{cell['distribution']}"
        )
        for p in cell["points"]:
            if not p["gate_ok"]:
                failures.append(
                    f"{label} {p['algo']}[{p['label']}]: empirical recall "
                    f"{p['empirical_recall']:.4f} below promised floor "
                    f"{p['recall_floor']:.4f}"
                )
        if cell["acceptance"]:
            best = max(
                (
                    p["speedup"]
                    for p in cell["points"]
                    if p["empirical_recall"] >= at_recall
                ),
                default=0.0,
            )
            if best < min_speedup:
                failures.append(
                    f"{label}: best speedup at recall >= {at_recall:g} is "
                    f"{best:.2f}x, need >= {min_speedup:g}x vs "
                    f"{cell['exact_algo']}"
                )
    serve = snapshot["serve"]
    if serve["requests"] and serve["recall_violations"]:
        failures.append(
            f"serve: {serve['recall_violations']} request(s) finished below "
            f"min_recall={serve['min_recall']:g}"
        )
    if serve["requests"] and not serve["approx_served"]:
        failures.append(
            "serve: mixed load served no approximate results — the quality "
            "dispatcher never engaged"
        )
    return failures


def render_recall_report(snapshot: dict) -> str:
    """The Pareto tables ``repro-topk recall-bench`` prints."""
    out = [f"recall-bench on {snapshot['gpu']} (rev {snapshot['rev']}, "
           f"seed {snapshot['seed']})"]
    for cell in snapshot["cells"]:
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
                "ok" if p["gate_ok"] else "FAIL",
            )
            for p in sorted(cell["points"], key=lambda p: p["sim_time_s"])
        ]
        out.append(
            format_table(
                ["config", "sim", "speedup", "qps", "E[recall]", "floor",
                 "empirical", "gate"],
                rows,
            )
        )
    serve = snapshot["serve"]
    if serve["requests"]:
        out.append(
            f"\nserve gate: {serve['requests']} requests "
            f"({serve['approx_fraction'] * 100:g}% at min_recall="
            f"{serve['min_recall']:g}): approx_served="
            f"{serve['approx_served']} recall_violations="
            f"{serve['recall_violations']}"
        )
    return "\n".join(out)
