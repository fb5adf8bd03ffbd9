"""Quality-aware dispatch: pick the cheapest plan meeting a recall SLO.

This is the decision layer behind ``repro.topk(mode=..., min_recall=...)``
and the serving stack's SLO-aware request planning.  It combines the
analytic cost model (:mod:`repro.perf.costmodel`) with the analytic
recall curves (:mod:`repro.approx.recall`): for a given ``(n, k, batch)``
problem it enumerates candidate plans — the best exact algorithm plus
each approximate method's planned config — and returns the cheapest one
whose *expected* recall clears the target with a safety margin.

The margin matters: the recall target is a promise to the caller, and
the analytic expectation is a mean, not a floor.  An approximate plan is
eligible for target ``r`` only when its expected recall covers half the
allowed slack (``E >= 1 - (1 - r) / 2``); the reported
:attr:`QualityPlan.recall_floor` is the Hoeffding high-probability bound
actually attached to results.  Exact plans are always eligible — the
dispatcher degrades to exact, never to silence.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..perf.costmodel import (
    APPROX_ALGORITHMS,
    PREDICTABLE_ALGORITHMS,
    predict_topk_time,
    rank_algorithms,
)
from .recall import expected_recall, recall_floor

__all__ = [
    "QualityPlan",
    "candidate_plans",
    "choose_plan",
]


@dataclass(frozen=True)
class QualityPlan:
    """One dispatchable (algorithm, config) point with its predictions."""

    #: registry name to run (``get_algorithm(algo, params=params)``)
    algo: str
    #: constructor tuning for the algorithm (empty for exact defaults)
    params: dict = field(default_factory=dict)
    #: analytic run-time prediction, seconds
    predicted_time: float = 0.0
    #: analytic E[recall] (1.0 for exact plans)
    predicted_recall: float = 1.0
    #: high-probability recall floor attached to results (1.0 when exact)
    recall_floor: float = 1.0
    #: whether the plan guarantees the exact top-k
    exact: bool = True


def _approx_plan(algo: str, n: int, k: int, batch: int, spec) -> QualityPlan:
    from ..algos.registry import get_algorithm  # lazy: algos import perf

    instance = get_algorithm(algo)
    parts, keep = instance.plan(n, k)
    exact = instance.plan_is_exact(n, k)
    time = predict_topk_time(algo, n=n, k=k, batch=batch, spec=spec)
    return QualityPlan(
        algo=algo,
        params={},
        predicted_time=time,
        predicted_recall=1.0 if exact else expected_recall(n, k, parts, keep),
        recall_floor=1.0 if exact else recall_floor(n, k, parts, keep),
        exact=exact,
    )


def candidate_plans(
    *,
    n: int,
    k: int,
    batch: int = 1,
    spec=None,
    include_exact: bool = True,
) -> list[QualityPlan]:
    """Every dispatchable plan for the problem, cheapest first.

    At most one exact plan is emitted — the cost model's pick among
    :data:`PREDICTABLE_ALGORITHMS` — plus one plan per approximate
    method at its default config.  Ties break by name for determinism.
    """
    if spec is None:
        from ..device import A100  # lazy: device imports perf

        spec = A100
    plans: list[QualityPlan] = []
    if include_exact:
        best = rank_algorithms(n=n, k=k, batch=batch, spec=spec)[0]
        plans.append(
            QualityPlan(algo=best.algo, predicted_time=best.time, exact=True)
        )
    from ..algos.registry import get_algorithm  # lazy: algos import perf

    for algo in APPROX_ALGORITHMS:
        if get_algorithm(algo).supports(n, k) is not None:
            continue
        plans.append(_approx_plan(algo, n, k, batch, spec))
    return sorted(plans, key=lambda p: (p.predicted_time, p.algo))


def choose_plan(
    *,
    n: int,
    k: int,
    batch: int = 1,
    spec=None,
    min_recall: float | None = None,
    include_exact: bool = True,
) -> QualityPlan:
    """Cheapest plan whose expected recall clears ``min_recall``.

    ``min_recall=None`` means any recall is acceptable and the overall
    cheapest plan wins.  With a target set, approximate plans must clear
    it with the safety margin described in the module docstring; exact
    plans always qualify.  ``include_exact=False`` restricts dispatch to
    the approximate tier (``mode="approx"``) and raises ``ValueError``
    when no approximate plan can meet the target — the caller asked for
    something the tier cannot promise, which must not silently degrade.
    """
    if min_recall is not None and not 0.0 <= min_recall <= 1.0:
        raise ValueError(f"min_recall must be in [0, 1], got {min_recall!r}")
    plans = candidate_plans(
        n=n, k=k, batch=batch, spec=spec, include_exact=include_exact
    )
    required = 0.0
    if min_recall is not None:
        required = 1.0 - (1.0 - min_recall) / 2.0
    eligible = [
        p for p in plans if p.exact or p.predicted_recall >= required
    ]
    if not eligible:
        raise ValueError(
            f"no approximate plan meets min_recall={min_recall} for "
            f"n={n}, k={k}; use mode='auto' to allow exact fallback"
        )
    return eligible[0]
