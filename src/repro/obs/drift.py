"""Cost-model drift tracking: predicted vs simulated time, per point.

The ``auto`` dispatcher is only as good as the analytic predictions of
``repro.perf.costmodel`` (optionally corrected by a
:class:`repro.perf.adaptive.CorrectionStore`).  This module makes
their quality observable:

* during a sweep with metrics enabled, every measured point's
  ``log2(simulated / predicted)`` residual is recorded into the metrics
  stream (histogram ``costmodel.log2_ratio`` labelled by algorithm) — see
  :func:`record_point_drift`, called by the execution engine;
* after the fact, ``repro-topk drift <sweep.csv>`` rebuilds per-point
  residuals from any sweep CSV and summarises them per algorithm
  (:func:`drift_report`), with a corrected column when a correction
  store is given so the effect of its corrections on bias is visible.

A geomean ratio of 1.0 means the model is unbiased for that algorithm; a
widening rmse is drift the online ``CorrectionStore`` should absorb.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable


def _predictable_algo(point) -> str | None:
    """The concrete algorithm to predict for a point, or None to skip."""
    from ..perf.costmodel import PREDICTABLE_ALGORITHMS

    algo = point.algo
    detail = getattr(point, "detail", "")
    if algo == "auto" and detail.startswith("dispatch="):
        algo = detail.split("=", 1)[1]
    return algo if algo in PREDICTABLE_ALGORITHMS else None


@dataclass(frozen=True)
class PointDrift:
    """One measured point against its analytic (and corrected) prediction."""

    algo: str
    distribution: str
    n: int
    k: int
    batch: int
    measured: float
    predicted: float
    #: prediction rescaled by the correction store (== predicted without one)
    corrected: float

    @property
    def ratio(self) -> float:
        return self.measured / self.predicted

    @property
    def log2_ratio(self) -> float:
        return math.log2(self.ratio)


def point_drift(
    points: Iterable, *, spec=None, corrections=None
) -> list[PointDrift]:
    """Per-point residuals for every measured, predictable point.

    Sweep rows are float32, so ``corrections`` (a
    :class:`repro.perf.adaptive.CorrectionStore`) applies its float32
    regimes.
    """
    from ..perf.costmodel import predict_topk_time

    if spec is None:
        from ..device import A100

        spec = A100
    out: list[PointDrift] = []
    for p in points:
        if getattr(p, "time", None) is None or p.status != "ok":
            continue
        algo = _predictable_algo(p)
        if algo is None:
            continue
        predicted = predict_topk_time(algo, n=p.n, k=p.k, batch=p.batch, spec=spec)
        corrected = predicted
        if corrections is not None:
            corrected = corrections.apply(
                algo, predicted, n=p.n, k=p.k, batch=p.batch,
                spec_name=spec.name, dtype="float32",
            )
        out.append(
            PointDrift(
                algo=algo,
                distribution=p.distribution,
                n=p.n,
                k=p.k,
                batch=p.batch,
                measured=p.time,
                predicted=predicted,
                corrected=corrected,
            )
        )
    return out


@dataclass(frozen=True)
class DriftSummary:
    """Residual statistics of one algorithm over a sweep."""

    algo: str
    points: int
    #: geomean of measured/predicted (1.0 = unbiased model)
    geomean_ratio: float
    min_ratio: float
    max_ratio: float
    #: rms of log2(measured/predicted) — spread the bias cannot explain
    rmse_log2: float
    #: geomean of measured/corrected (how much the corrections fix)
    corrected_geomean: float


def summarise(drifts: list[PointDrift]) -> list[DriftSummary]:
    """Per-algorithm summary rows, sorted by |log2 geomean| descending."""
    by_algo: dict[str, list[PointDrift]] = {}
    for d in drifts:
        by_algo.setdefault(d.algo, []).append(d)
    rows = []
    for algo, ds in by_algo.items():
        logs = [d.log2_ratio for d in ds]
        corrected_logs = [math.log2(d.measured / d.corrected) for d in ds]
        mean_log = sum(logs) / len(logs)
        rows.append(
            DriftSummary(
                algo=algo,
                points=len(ds),
                geomean_ratio=2.0 ** mean_log,
                min_ratio=2.0 ** min(logs),
                max_ratio=2.0 ** max(logs),
                rmse_log2=math.sqrt(sum(l * l for l in logs) / len(logs)),
                corrected_geomean=2.0 ** (sum(corrected_logs) / len(ds)),
            )
        )
    return sorted(rows, key=lambda r: -abs(math.log2(r.geomean_ratio)))


def drift_report(
    points: Iterable, *, spec=None, corrections=None
) -> list[DriftSummary]:
    """End-to-end: residuals of a sweep's points, summarised per algorithm."""
    return summarise(point_drift(points, spec=spec, corrections=corrections))


def record_point_drift(registry, point, *, spec=None) -> None:
    """Log one finished point's residual into the metrics stream.

    Called by the execution engine for every ``ok`` point when metrics
    are enabled; emits histogram ``costmodel.log2_ratio{algo=...}`` and
    counter ``costmodel.points{algo=...}``.
    """
    if getattr(point, "time", None) is None or point.status != "ok":
        return
    algo = _predictable_algo(point)
    if algo is None:
        return
    from ..perf.costmodel import predict_topk_time

    if spec is None:
        from ..device import A100

        spec = A100
    predicted = predict_topk_time(algo, n=point.n, k=point.k, batch=point.batch, spec=spec)
    if predicted <= 0 or point.time <= 0:
        return
    registry.counter("costmodel.points", algo=algo).inc()
    registry.histogram("costmodel.log2_ratio", algo=algo).observe(
        math.log2(point.time / predicted)
    )
