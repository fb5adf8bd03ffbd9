"""Open-loop load generator and latency report for serve-bench.

Builds a deterministic virtual-time request trace (Poisson or uniform
arrivals, drawn independently of completions, so the offered load never
backs off when the service falls behind), drives a :class:`TopKService`
over it, runs the sequential per-request baseline the paper's batched
regime is measured against, and condenses everything into a
:class:`ServeBenchReport` — the p50/p95/p99 latency table and
served/shed/timeout tallies that ``repro-topk serve-bench`` prints.

Payloads are drawn from a bounded pool (``LoadSpec.payload_pool``): real
serving traffic repeats hot queries, and a finite pool is what gives the
LRU result cache something to do.  The pool is materialised as distinct
sliding windows over one generated base buffer, so memory stays
O(n + pool) however large the pool is; shrink ``payload_pool`` to raise
the cache-hit rate, grow it toward the request count to make payloads
effectively unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..bench.report import REPORT_QUANTILES
from ..datagen import generate
from ..errors import InputError, check_problem
from .request import Request
from .service import ServeConfig, ServeStats, TopKService

#: arrival process names accepted by :func:`build_requests`
ARRIVALS = ("poisson", "uniform")


def poisson_arrivals(qps: float, duration_s: float, *, seed: int = 0) -> np.ndarray:
    """Virtual arrival times of a Poisson process at rate ``qps``.

    Gaps are i.i.d. exponential with mean ``1/qps``; the trace covers
    ``[0, duration_s)``.
    """
    if qps <= 0 or duration_s <= 0:
        raise ValueError(f"qps and duration must be positive, got {qps}, {duration_s}")
    rng = np.random.default_rng(seed)
    # draw in chunks until the horizon is passed
    times: list[np.ndarray] = []
    total = 0.0
    while total < duration_s:
        gaps = rng.exponential(1.0 / qps, size=max(16, int(qps * duration_s)))
        chunk = total + np.cumsum(gaps)
        times.append(chunk)
        total = float(chunk[-1])
    arrivals = np.concatenate(times)
    return arrivals[arrivals < duration_s]


def uniform_arrivals(qps: float, duration_s: float) -> np.ndarray:
    """Evenly spaced arrivals at rate ``qps`` over ``[0, duration_s)``."""
    if qps <= 0 or duration_s <= 0:
        raise ValueError(f"qps and duration must be positive, got {qps}, {duration_s}")
    count = int(round(qps * duration_s))
    return np.arange(count) / qps


@dataclass
class LoadSpec:
    """One serve-bench workload; out-of-range fields raise
    :class:`~repro.errors.InputError` at construction."""

    qps: float = 200.0
    duration_s: float = 2.0
    n: int = 1 << 16
    k: int = 64
    largest: bool = False
    distribution: str = "uniform"
    #: "poisson" | "uniform"
    arrival: str = "poisson"
    #: distinct payloads the trace draws from (repeats feed the cache)
    payload_pool: int = 4096
    #: per-request latency SLO; None disables timeouts
    deadline_s: float | None = None
    #: recall target attached (as ``Request.slo``) to a fraction of the
    #: trace — the mixed exact/approx load of quality-aware serving.
    #: ``min_recall=None`` or ``approx_fraction=0`` keeps the trace
    #: byte-identical to a pre-quality build
    min_recall: float | None = None
    approx_fraction: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.qps <= 0 or self.duration_s <= 0:
            raise InputError(
                f"qps and duration must be positive, got {self.qps}, {self.duration_s}"
            )
        self.k = check_problem(self.n, self.k)
        if self.arrival not in ARRIVALS:
            raise InputError(f"arrival must be one of {ARRIVALS}, got {self.arrival!r}")
        if self.payload_pool < 1:
            raise InputError(f"payload_pool must be >= 1, got {self.payload_pool}")
        if self.deadline_s is not None and self.deadline_s < 0:
            raise InputError(f"deadline_s must be >= 0, got {self.deadline_s}")
        if not 0.0 <= self.approx_fraction <= 1.0:
            raise InputError(
                f"approx_fraction must be in [0, 1], got {self.approx_fraction}"
            )
        if (
            self.min_recall is not None
            and self.approx_fraction > 0
            and not 0.0 < self.min_recall <= 1.0
        ):
            raise InputError(f"min_recall must be in (0, 1], got {self.min_recall}")


def build_requests(spec: LoadSpec) -> list[Request]:
    """Materialise the virtual-time request trace of a :class:`LoadSpec`."""
    if spec.arrival == "poisson":
        arrivals = poisson_arrivals(spec.qps, spec.duration_s, seed=spec.seed)
    else:
        arrivals = uniform_arrivals(spec.qps, spec.duration_s)
    # the payload pool: `payload_pool` distinct sliding windows over one
    # base buffer — O(n + pool) memory however large the pool is
    base = generate(
        spec.distribution,
        spec.n + spec.payload_pool - 1,
        batch=1,
        seed=spec.seed,
    )[0]
    rng = np.random.default_rng(spec.seed + 1)
    picks = rng.integers(0, spec.payload_pool, size=len(arrivals))
    # quality mix: a separate rng stream (seed + 2) decides which requests
    # carry the recall target, so enabling it never perturbs the arrival
    # or payload draws above — a quality-off trace stays byte-identical
    quality = np.zeros(len(arrivals), dtype=bool)
    if spec.min_recall is not None and spec.approx_fraction > 0:
        if spec.approx_fraction >= 1.0:
            quality[:] = True
        else:
            qrng = np.random.default_rng(spec.seed + 2)
            quality = qrng.random(len(arrivals)) < spec.approx_fraction
    return [
        Request(
            rid=rid,
            data=base[pick : pick + spec.n],
            k=spec.k,
            largest=spec.largest,
            arrival_s=float(t),
            deadline_s=(
                None if spec.deadline_s is None else float(t) + spec.deadline_s
            ),
            slo=((None, spec.min_recall) if quality[rid] else None),
        )
        for rid, (t, pick) in enumerate(zip(arrivals, picks))
    ]


@dataclass
class SequentialBaseline:
    """Per-request dispatch cost with no batching and no caching."""

    #: simulated seconds one single-query selection takes (mean of samples)
    per_request_s: float
    #: how many distinct payloads were sampled to estimate it
    sampled: int

    @property
    def capacity_rps(self) -> float:
        return 1.0 / self.per_request_s if self.per_request_s > 0 else 0.0


def sequential_baseline(
    spec: LoadSpec, config: ServeConfig, *, samples: int = 4
) -> SequentialBaseline:
    """Measure the one-request-per-launch dispatch the service replaces.

    Runs ``samples`` distinct single-query selections through the same
    algorithm/device the service uses (batch = 1, no cache) and averages
    their simulated times — the per-request cost of sequential dispatch.
    """
    from ..api import topk

    samples = max(1, min(samples, spec.payload_pool))
    pool = generate(spec.distribution, spec.n, batch=samples, seed=spec.seed)
    service = TopKService(config)  # reuse its plan resolution, fresh caches
    algo = config.algo
    if algo == "auto":
        plan, _ = service.cache.make_plan(
            n=spec.n, k=spec.k, batch=1, spec=service.spec, largest=spec.largest
        )
        algo = plan.algo
    times = []
    for row in range(samples):
        result = topk(
            pool[row],
            spec.k,
            algo=algo,
            device=service.spec,
            largest=spec.largest,
            seed=config.seed,
            params=config.params,
        )
        times.append(result.time)
    return SequentialBaseline(
        per_request_s=float(np.mean(times)), sampled=samples
    )


@dataclass
class ServeBenchReport:
    """Everything ``repro-topk serve-bench`` prints, as data."""

    spec: LoadSpec
    stats: ServeStats
    baseline: SequentialBaseline
    #: simulated-latency percentiles of served requests, {q: seconds}
    latency: dict = field(default_factory=dict)
    #: the windowed, SLO-graded ``repro.obs.serve_report/v1`` payload;
    #: set by :func:`repro.serve.serve_bench` when it built one
    serve_report: dict | None = None

    @property
    def speedup(self) -> float:
        """Micro-batched capacity over sequential per-request capacity."""
        if self.stats.capacity_rps <= 0 or self.baseline.capacity_rps <= 0:
            return 0.0
        return self.stats.capacity_rps / self.baseline.capacity_rps

    def lines(self) -> list[str]:
        s = self.stats
        counts = f"served={s.served} shed={s.shed} timeout={s.timeout}"
        if s.degraded or s.failed:
            counts += f" degraded={s.degraded} failed={s.failed}"
        out = [
            f"serve-bench: {self.spec.qps:g} qps x {self.spec.duration_s:g}s "
            f"(n={self.spec.n}, k={self.spec.k}, {self.spec.arrival} arrivals)",
            f"  requests: {s.total}  {counts}",
            f"  batches: {s.batches}  mean occupancy={s.mean_occupancy:.1f}",
        ]
        if self.latency:
            parts = "  ".join(
                f"p{q:g}={self.latency[q] * 1e3:.3f}ms"
                for q in sorted(self.latency)
            )
            out.append(f"  simulated latency: {parts}")
        out.append(
            f"  capacity: {s.capacity_rps:,.0f} req/s batched vs "
            f"{self.baseline.capacity_rps:,.0f} req/s sequential "
            f"(speedup {self.speedup:.1f}x)"
        )
        if s.cache:
            out.append(
                "  cache: "
                f"result {s.cache.get('result_hits', 0)} hit / "
                f"{s.cache.get('result_misses', 0)} miss, "
                f"plan {s.cache.get('plan_hits', 0)} hit / "
                f"{s.cache.get('plan_misses', 0)} miss"
            )
        # the quality report only appears once approximate traffic exists,
        # so an exact-only run prints byte-identically to a pre-quality
        # build (same convention as the availability block below)
        if s.approx_served or s.recall_violations:
            out.append(
                f"  quality: approx_served={s.approx_served} "
                f"recall_violations={s.recall_violations}"
            )
        # the availability report only appears once faults actually fired
        # or degraded/failed traffic exists, so a run with no fault plan
        # (or an empty one) prints byte-identically to a fault-free build
        if s.faults or s.degraded or s.failed or s.retries or s.hedges:
            fired = (
                " ".join(f"{kind}={count}" for kind, count in sorted(s.faults.items()))
                or "none"
            )
            out.append(
                f"  faults: {fired}  retries={s.retries} hedges={s.hedges} "
                f"breaker_trips={s.breaker_trips}"
            )
            out.append(
                f"  availability: {s.availability * 100:.2f}%  "
                f"(answered {s.answered}/{s.total}: {s.served} full + "
                f"{s.degraded} degraded)"
            )
        return out

    def format(self) -> str:
        return "\n".join(self.lines())


def run_serve_bench(
    spec: LoadSpec, config: ServeConfig | None = None
) -> tuple[ServeBenchReport, TopKService]:
    """Drive one full load test; returns (report, the finished service)."""
    config = config or ServeConfig()
    service = TopKService(config)
    requests = build_requests(spec)
    stats = service.run(requests)
    baseline = sequential_baseline(spec, config)
    # histogram-backed once the sample cap truncated the raw list, exact
    # order statistics otherwise (ServeStats.latency_percentiles)
    latency = (
        stats.latency_percentiles(REPORT_QUANTILES) if stats.answered else {}
    )
    return (
        ServeBenchReport(
            spec=spec, stats=stats, baseline=baseline, latency=latency
        ),
        service,
    )
