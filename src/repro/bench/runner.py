"""Benchmark points and sweep results — the data behind every figure and table.

Measures (algorithm, distribution, N, K, batch) points through
:func:`repro.perf.simulate_topk` (grids of them run through
:func:`repro.exec.sweep`), records simulated times, and computes the
paper's virtual SOTA baseline (the best prior algorithm per point,
Sec. 5.1: "we regard the best performance of all previous algorithms for
each combination of N, K, and batch size as ... SOTA").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..algos import UnsupportedProblem
from ..device import A100, DeviceCounters, GPUSpec, timeline_spans
from ..obs.spans import get_tracer, span, tracing_enabled
from ..perf import DEFAULT_EXACT_CAP, simulate_topk

#: the paper's contributions — excluded from the SOTA baseline
OUR_ALGORITHMS = ("air_topk", "grid_select")

#: the eight prior methods of Table 1
BASELINE_ALGORITHMS = (
    "sort",
    "warp_select",
    "block_select",
    "bitonic_topk",
    "quick_select",
    "bucket_select",
    "sample_select",
    "radix_select",
)

ALL_ALGORITHMS = OUR_ALGORITHMS + BASELINE_ALGORITHMS


@dataclass(frozen=True)
class BenchPoint:
    """One benchmark point (time is None for any non-``ok`` status)."""

    algo: str
    distribution: str
    n: int
    k: int
    batch: int
    time: float | None
    mode: str = "exact"
    #: "ok", or why there is no time: "unsupported" (the algorithm cannot
    #: handle this (n, k) — the gaps of the paper's Fig. 6/7, recorded
    #: explicitly so SOTA denominators stay auditable), "error" (the point
    #: crashed; sweeps record it and carry on) or "timeout"
    status: str = "ok"
    #: free-form annotation: the unsupported/error reason, or the concrete
    #: algorithm an ``auto`` point dispatched to ("dispatch=<name>")
    detail: str = ""
    #: per-point simulated device counters (None for non-``ok`` rows);
    #: excluded from equality/CSV so result semantics are unchanged —
    #: manifests aggregate them via repro.device.aggregate_counters
    counters: DeviceCounters | None = field(default=None, compare=False)

    @property
    def key(self) -> tuple[str, int, int, int]:
        """Problem coordinates shared by all algorithms at this point."""
        return (self.distribution, self.n, self.k, self.batch)


@dataclass
class SweepResult:
    """All points of one sweep, with SOTA lookup helpers."""

    points: list[BenchPoint] = field(default_factory=list)

    def add(self, point: BenchPoint) -> None:
        self.points.append(point)

    def time_of(
        self, algo: str, distribution: str, n: int, k: int, batch: int
    ) -> float | None:
        for p in self.points:
            if (
                p.algo == algo
                and p.key == (distribution, n, k, batch)
            ):
                return p.time
        return None

    def sota_time(
        self, distribution: str, n: int, k: int, batch: int
    ) -> float | None:
        """Best prior-algorithm time at a point (the paper's virtual SOTA)."""
        times = [
            p.time
            for p in self.points
            if p.algo in BASELINE_ALGORITHMS
            and p.key == (distribution, n, k, batch)
            and p.time is not None
        ]
        return min(times) if times else None

    def keys(self) -> list[tuple[str, int, int, int]]:
        """Distinct problem coordinates, in first-seen order."""
        seen: dict[tuple[str, int, int, int], None] = {}
        for p in self.points:
            seen.setdefault(p.key, None)
        return list(seen)

    def series(
        self, algo: str, *, distribution: str, batch: int, vary: str, fixed: dict
    ) -> list[tuple[int, float | None]]:
        """(x, time) series for one algorithm along the ``vary`` axis."""
        if vary not in ("n", "k"):
            raise ValueError(f"vary must be 'n' or 'k', got {vary!r}")
        out = []
        for p in self.points:
            if p.algo != algo or p.distribution != distribution or p.batch != batch:
                continue
            if all(getattr(p, key) == val for key, val in fixed.items()):
                out.append((getattr(p, vary), p.time))
        return sorted(out)


def trace_sim_streams(run, point_span) -> None:
    """With tracing on, add a :class:`~repro.perf.SimulatedRun`'s simulated
    device streams to the trace, re-based onto the wall clock at the
    start of ``point_span`` (the host span that ran it) so the merged
    trace shows them inside that span's gap, on lanes labelled by the
    point."""
    if not tracing_enabled():
        return
    label = f"sim {run.algo} {run.distribution} n={run.n} k={run.k} b={run.batch}"
    get_tracer().extend(
        timeline_spans(
            run.device.timeline,
            lane_prefix=label,
            base_us=point_span.start_us,
            device=run.device,
        )
    )


def run_point(
    algo: str,
    *,
    distribution: str,
    n: int,
    k: int,
    batch: int = 1,
    spec: GPUSpec = A100,
    cap: int = DEFAULT_EXACT_CAP,
    seed: int = 0,
) -> BenchPoint:
    """Measure one point; unsupported (n, k) yields an explicit
    ``status="unsupported"`` row with ``time=None`` and the reason."""
    with span(
        f"point {algo}",
        cat="point",
        algo=algo,
        distribution=distribution,
        n=n,
        k=k,
        batch=batch,
    ) as point_span:
        try:
            run = simulate_topk(
                algo,
                distribution=distribution,
                n=n,
                k=k,
                batch=batch,
                spec=spec,
                cap=cap,
                seed=seed,
            )
        except UnsupportedProblem as exc:
            point_span.set(status="unsupported")
            return BenchPoint(
                algo=algo,
                distribution=distribution,
                n=n,
                k=k,
                batch=batch,
                time=None,
                mode="unsupported",
                status="unsupported",
                detail=str(exc),
            )
        point_span.set(status="ok", mode=run.mode, sim_time_s=run.time)
        trace_sim_streams(run, point_span)
    return BenchPoint(
        algo=algo,
        distribution=distribution,
        n=n,
        k=k,
        batch=batch,
        time=run.time,
        mode=run.mode,
        detail=f"dispatch={run.dispatch}" if run.dispatch else "",
        counters=run.device.counters,
    )
