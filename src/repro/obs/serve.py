"""Serving observability: request tracing, windowed telemetry, SLOs.

The serving stack (docs/serving.md) runs on a **virtual clock**, so its
telemetry lives in a different time domain than the wall-clock span
tracer of :mod:`.spans`.  This module is the bridge — ``repro.obs.serve``
gives the :class:`~repro.serve.service.TopKService` three coordinated
capabilities (docs/serving-observability.md):

* **request-scoped tracing** — :class:`ServeTelemetry` buffers a
  virtual-time span tree per request (admission → queued → batch →
  shard → merge → finish, with retry/hedge/fault/breaker annotations)
  plus node-level batch lanes, and re-bases them onto the wall clock
  (:meth:`ServeTelemetry.spans`) exactly the way simulated device
  timelines are re-based, so one ``--trace`` file opens in Perfetto with
  per-request lanes alongside the device streams;
* **windowed time-series metrics** — outcomes, queue-depth samples,
  batch occupancy, cache lookups and fault/recovery events are folded
  into fixed ``window_s`` buckets of virtual time as they happen
  (bounded memory: one :class:`~repro.obs.metrics.Histogram` per window,
  never raw sample lists), producing per-window p50/p95/p99 latency,
  availability, queue depth, occupancy, cache hit rate and
  fault/retry/hedge counts;
* **SLO tracking** — declarative :class:`SLOSpec` targets (availability
  and latency-threshold SLOs), evaluated per window into error-budget
  burn rates and an overall verdict, rendered by
  ``repro-topk serve-report`` and gating ``serve-bench --slo`` exit
  status.

Everything here is deterministic in virtual time: the same request trace
produces a byte-identical ``serve_report/v1`` artifact whatever the host
worker count (pinned by tests/test_serve_obs.py).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import InputError
from .metrics import Histogram, count
from .schema import validate_serve_report, validate_slo_spec
from .spans import SpanEvent

#: fine geometric latency grid (16 buckets per decade, 1 us .. 10 s) —
#: shared by the per-window histograms and the capped-sample overall
#: percentile fallback, so quantile estimates stay within ~7.5% of the
#: raw-sample answer
LATENCY_EDGES = tuple(10.0 ** (-6.0 + i / 16.0) for i in range(113))

#: the windowed latency quantiles every report carries
WINDOW_QUANTILES = (50.0, 95.0, 99.0)

#: serve-trace lane naming: the per-request process and the node process
REQUEST_PROCESS = "serve:req"
NODE_PROCESS = "serve:node"

SLO_KINDS = ("availability", "latency", "recall")


# --------------------------------------------------------------------------- #
# histogram quantiles
# --------------------------------------------------------------------------- #
def histogram_quantile(hist: Histogram, q: float) -> float | None:
    """The q-th percentile estimated from a fixed-bound histogram.

    Linear interpolation inside the bucket containing the target rank,
    with the first/last bucket edges clamped to the observed min/max so
    single-sample and narrow distributions stay exact.  Returns None for
    an empty histogram.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"quantile q must be in [0, 100], got {q}")
    if hist.count == 0:
        return None
    rank = (q / 100.0) * hist.count
    cum = 0
    bounds = hist.bounds
    for i, n in enumerate(hist.counts):
        if n == 0:
            continue
        lo = bounds[i - 1] if i > 0 else hist.min
        hi = bounds[i] if i < len(bounds) else hist.max
        lo = max(lo, hist.min)
        hi = min(hi, hist.max)
        if hi < lo:
            lo = hi = hist.min if i == 0 else hist.max
        if cum + n >= rank:
            frac = (rank - cum) / n if n else 0.0
            return lo + frac * (hi - lo)
        cum += n
    return hist.max


def histogram_count_below(hist: Histogram, threshold: float) -> float:
    """Estimated number of observations ``<= threshold``.

    Exact at bucket edges, linearly interpolated inside the bucket the
    threshold falls in — the deterministic good-event count latency SLOs
    are evaluated from.
    """
    if hist.count == 0:
        return 0.0
    if threshold >= hist.max:
        return float(hist.count)
    if threshold < hist.min:
        return 0.0
    cum = 0.0
    bounds = hist.bounds
    for i, n in enumerate(hist.counts):
        if n == 0:
            continue
        lo = max(bounds[i - 1] if i > 0 else hist.min, hist.min)
        hi = min(bounds[i] if i < len(bounds) else hist.max, hist.max)
        if threshold >= hi:
            cum += n
            continue
        if threshold > lo and hi > lo:
            cum += n * (threshold - lo) / (hi - lo)
        break
    return min(cum, float(hist.count))


# --------------------------------------------------------------------------- #
# windowed accumulation
# --------------------------------------------------------------------------- #
@dataclass
class WindowAccum:
    """Everything observed inside one virtual-time window."""

    index: int
    served: int = 0
    degraded: int = 0
    shed: int = 0
    timeout: int = 0
    failed: int = 0
    #: latency histogram of answered requests finishing in this window
    latency: Histogram = field(
        default_factory=lambda: Histogram(bounds=LATENCY_EDGES)
    )
    queue_depth_sum: float = 0.0
    queue_depth_samples: int = 0
    queue_depth_max: float = 0.0
    occupancy_sum: float = 0.0
    occupancy_samples: int = 0
    occupancy_max: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    faults: int = 0
    retries: int = 0
    hedges: int = 0
    breaker: int = 0
    #: answered outcomes served by the approximate tier (exact=False)
    approx: int = 0
    #: outcomes that carried a ``min_recall`` target, and how many of
    #: them were served by a plan meeting it — the "recall" SLO's
    #: good/total events
    recall_requests: int = 0
    recall_met: int = 0
    #: online-adaptation activity (docs/adaptive.md): batches fed back
    #: into the learner, correction folds triggered, exploration picks
    adapt_observations: int = 0
    adapt_folds: int = 0
    adapt_explored: int = 0

    @property
    def requests(self) -> int:
        return self.served + self.degraded + self.shed + self.timeout + self.failed

    @property
    def answered(self) -> int:
        return self.served + self.degraded

    @property
    def bad(self) -> int:
        return self.shed + self.timeout + self.failed


class ServeTelemetry:
    """Per-run collector of the serving layer's virtual-time telemetry.

    The :class:`~repro.serve.service.TopKService` owns one instance and
    feeds it from every seam of the event loop; span buffering only
    happens when ``trace=True`` (the service passes
    :func:`repro.obs.tracing_enabled` at construction), so a run without
    a tracing session records no span events (pinned by
    tests/test_serve_obs.py).  Window accumulation is always on — it
    backs both the ``serve_report`` artifact and the capped-latency
    percentile fallback — and is bounded: one histogram per window, no
    raw sample lists.
    """

    def __init__(self, *, window_s: float = 0.25, trace: bool = False) -> None:
        if window_s <= 0:
            raise InputError(f"window_s must be positive, got {window_s}")
        self.window_s = float(window_s)
        self.trace = bool(trace)
        self.windows: dict[int, WindowAccum] = {}
        #: overall latency histogram of every answered request (the
        #: percentile source once the raw sample list hits its cap)
        self.latency_hist = Histogram(bounds=LATENCY_EDGES)
        self._spans: list[tuple] = []
        self.fault_kinds: dict[str, int] = {}

    # -- window feed ----------------------------------------------------- #
    def window(self, t_s: float) -> WindowAccum:
        index = max(0, int(t_s / self.window_s))
        accum = self.windows.get(index)
        if accum is None:
            accum = WindowAccum(index=index)
            self.windows[index] = accum
        return accum

    def on_outcome(
        self,
        status: str,
        finish_s: float,
        latency_s: float | None,
        *,
        exact: bool = True,
        recall_target: bool = False,
        recall_met: bool = True,
    ) -> None:
        accum = self.window(finish_s)
        setattr(accum, status, getattr(accum, status) + 1)
        if status in ("served", "degraded") and not exact:
            accum.approx += 1
        if recall_target:
            accum.recall_requests += 1
            if recall_met:
                accum.recall_met += 1
        if latency_s is not None:
            accum.latency.observe(latency_s)
            self.latency_hist.observe(latency_s)

    def on_queue_depth(self, t_s: float, depth: int) -> None:
        accum = self.window(t_s)
        accum.queue_depth_sum += depth
        accum.queue_depth_samples += 1
        accum.queue_depth_max = max(accum.queue_depth_max, depth)

    def on_batch(self, t_s: float, size: int) -> None:
        accum = self.window(t_s)
        accum.occupancy_sum += size
        accum.occupancy_samples += 1
        accum.occupancy_max = max(accum.occupancy_max, size)

    def on_cache_lookup(self, t_s: float, hit: bool) -> None:
        accum = self.window(t_s)
        if hit:
            accum.cache_hits += 1
        else:
            accum.cache_misses += 1

    def on_event(
        self, t_s: float, tally: str, count: int = 1, kind: str | None = None
    ) -> None:
        """Add ``count`` to one event tally of the window at ``t_s``:
        ``faults`` (which also counts toward its fault ``kind``),
        ``retries``, ``hedges``, ``breaker`` or an ``adapt_*`` tally."""
        accum = self.window(t_s)
        setattr(accum, tally, getattr(accum, tally) + count)
        if kind is not None:
            self.fault_kinds[kind] = self.fault_kinds.get(kind, 0) + count

    # -- virtual-time spans ---------------------------------------------- #
    @staticmethod
    def request_lane(rid: int) -> str:
        """Per-request trace lane (one Perfetto track per request)."""
        return f"{REQUEST_PROCESS}/r{rid:05d}"

    @staticmethod
    def node_lane(track: str) -> str:
        """Node-level trace lane (device, cache, ...)."""
        return f"{NODE_PROCESS}/{track}"

    def emit(
        self,
        name: str,
        *,
        cat: str,
        lane: str,
        ts_s: float,
        dur_s: float = 0.0,
        **args,
    ) -> None:
        """Buffer one virtual-time span; no-op unless tracing is on."""
        if self.trace:
            self._spans.append((name, cat, lane, ts_s, dur_s, args))

    def __len__(self) -> int:
        return len(self._spans)

    def spans(self, base_us: float = 0.0) -> list[SpanEvent]:
        """The buffered request/node spans as wall-clock SpanEvents.

        ``base_us`` is the wall-clock moment virtual time 0 maps to
        (callers pass the start of their enclosing host span, the same
        re-basing convention as :func:`repro.device.timeline_spans`), so
        the serve lanes line up with the host lanes in one trace file.
        """
        return [
            SpanEvent(
                name=name,
                cat=cat,
                ts_us=base_us + ts_s * 1e6,
                dur_us=max(0.0, dur_s * 1e6),
                lane=lane,
                args=dict(args),
            )
            for name, cat, lane, ts_s, dur_s, args in self._spans
        ]

    def traced_requests(self) -> set[int]:
        """rids that have a root ``request`` span in the buffer."""
        return {
            args["rid"]
            for name, _cat, _lane, _ts, _dur, args in self._spans
            if name == "request" and "rid" in args
        }


# --------------------------------------------------------------------------- #
# the run ledger
# --------------------------------------------------------------------------- #
def _add_counts(totals: dict, counts: dict) -> None:
    for key, value in counts.items():
        totals[key] = totals.get(key, 0) + value


class ServeLedger:
    """The bookkeeping of one serving run, shared by a node and a cluster.

    A :class:`~repro.serve.service.TopKService` and a
    :class:`~repro.cluster.ClusterRouter` each keep one over their own
    ``ServeStats`` and :class:`ServeTelemetry`:

    * :meth:`finish` books a terminal outcome: status counts, makespan,
      approximate and recall tallies, the window feed and the capped
      latency samples;
    * :meth:`record` books one seam event (retry, hedge, fault, breaker,
      adaptation step) into every sink at once;
    * :meth:`absorb` folds a finished node's totals into a cluster's.
    """

    def __init__(
        self, stats, telemetry: ServeTelemetry, sample_cap: int | None
    ) -> None:
        self.stats = stats
        self.telemetry = telemetry
        self.sample_cap = sample_cap

    def finish(self, outcome, min_recall: float | None) -> None:
        """Book one terminal outcome of a request with recall target
        ``min_recall`` (None for exact-only traffic).

        An answered outcome meets its target when it is exact, or when
        its quality reaches it: the planner's ``expected_recall`` for the
        approximate tier, the ``recall_bound`` for a degraded answer.
        Unanswered outcomes carry no recall target.
        """
        stats = self.stats
        status = outcome.status
        setattr(stats, status, getattr(stats, status) + 1)
        stats.makespan_s = max(stats.makespan_s, outcome.finish_s)
        if status == "served" and not outcome.exact:
            stats.approx_served += 1
        recall_target = min_recall is not None and outcome.ok
        recall_met = True
        if recall_target and not outcome.exact:
            quality = outcome.expected_recall
            if quality is None:
                quality = outcome.recall_bound or 0.0
            recall_met = quality >= min_recall
        if not recall_met:
            stats.recall_violations += 1
        self.telemetry.on_outcome(
            status,
            outcome.finish_s,
            outcome.latency_s,
            exact=outcome.exact,
            recall_target=recall_target,
            recall_met=recall_met,
        )
        if outcome.latency_s is not None:
            cap = self.sample_cap
            if cap is None or len(stats.latencies_s) < cap:
                stats.latencies_s.append(outcome.latency_s)
            else:
                stats.latency_truncated = True

    def record(
        self,
        t_s: float,
        tally: str,
        amount: int = 1,
        *,
        stat: str | None = None,
        metric: str | None = None,
        sites: dict | None = None,
        span: str | None = None,
        rid: int | None = None,
        track: str = "device",
        batch_id: int | None = None,
        **labels,
    ) -> None:
        """Book ``amount`` events of one seam at virtual time ``t_s``.

        The amount goes to the window ``tally``, to the stats counter
        ``stat`` and to the ``metric`` counter with ``labels`` (each when
        given); ``sites`` splits the metric by its ``site`` label.  Only
        while tracing, a ``serve.fault`` span ``span`` (``fault:<kind>``
        for a fault) goes on request ``rid``'s lane, or else on the node
        lane ``track``; it carries the count and batch when ``batch_id``
        is given.  A zero amount books nothing.
        """
        if not amount:
            return
        telemetry = self.telemetry
        telemetry.on_event(t_s, tally, amount, labels.get("kind"))
        if stat is not None:
            setattr(self.stats, stat, getattr(self.stats, stat) + amount)
        if metric is not None and sites is None:
            count(metric, amount, **labels)
        elif metric is not None:
            for site, n in sites.items():
                if n:
                    count(metric, n, site=site, **labels)
        if span is not None and telemetry.trace:
            if "kind" in labels:
                span = f"{span}:{labels['kind']}"
            lane = (
                telemetry.request_lane(rid)
                if rid is not None
                else telemetry.node_lane(track)
            )
            if batch_id is None:
                telemetry.emit(span, cat="serve.fault", lane=lane, ts_s=t_s)
            else:
                telemetry.emit(
                    span, cat="serve.fault", lane=lane, ts_s=t_s,
                    count=amount, batch_id=batch_id,
                )

    def absorb(self, node) -> None:
        """Fold one finished node's ``ServeStats`` into these totals."""
        stats = self.stats
        stats.batches += node.batches
        stats.busy_s += node.busy_s
        stats.occupancies.extend(node.occupancies)
        stats.retries += node.retries
        stats.hedges += node.hedges
        stats.breaker_trips += node.breaker_trips
        stats.makespan_s = max(stats.makespan_s, node.makespan_s)
        _add_counts(stats.faults, node.faults)
        _add_counts(stats.cache, node.cache)

    def absorb_faults(self, counts: dict) -> None:
        """Add fault counts fired outside every node (the router's seams)."""
        _add_counts(self.stats.faults, counts)


# --------------------------------------------------------------------------- #
# SLO specs
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class SLOSpec:
    """One declarative service-level objective.

    ``kind="availability"``: the fraction of requests answered (served or
    degraded) must reach ``target``.  ``kind="latency"``: the fraction of
    requests answered within ``threshold_s`` must reach ``target``
    (shed/timeout/failed requests count against it).  ``kind="recall"``:
    among requests that carried a ``min_recall`` target, the fraction
    answered by a plan meeting it must reach ``target`` — threshold-free,
    and vacuously satisfied in windows with no recall-targeted traffic.
    ``target`` is an open fraction in (0, 1) so the error budget
    ``1 - target`` is never zero and burn rates stay finite.
    """

    name: str
    kind: str
    target: float
    threshold_s: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in SLO_KINDS:
            raise ValueError(f"kind must be one of {SLO_KINDS}, got {self.kind!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1), got {self.target}")
        if self.kind == "latency":
            if self.threshold_s is None or self.threshold_s <= 0:
                raise ValueError(
                    f"latency SLOs need a positive threshold_s, got {self.threshold_s}"
                )

    def to_payload(self) -> dict:
        payload = {"name": self.name, "kind": self.kind, "target": self.target}
        if self.threshold_s is not None:
            payload["threshold_s"] = self.threshold_s
        return payload


#: the serve-bench defaults: three nines of answering, 50 ms p99-ish bound
DEFAULT_SLOS = (
    SLOSpec(name="availability-99", kind="availability", target=0.99),
    SLOSpec(name="latency-50ms-99", kind="latency", target=0.99, threshold_s=0.05),
)


def load_slo_specs(path) -> tuple[SLOSpec, ...]:
    """Parse a ``repro.obs.slo/v1`` JSON file into :class:`SLOSpec` s."""
    payload = json.loads(Path(path).read_text())
    validate_slo_spec(payload)
    return tuple(
        SLOSpec(
            name=entry["name"],
            kind=entry["kind"],
            target=entry["target"],
            threshold_s=entry.get("threshold_s"),
        )
        for entry in payload["slos"]
    )


def _good_bad(accum: WindowAccum, slo: SLOSpec) -> tuple[float, float]:
    """(good, bad) event counts of one window under one SLO.

    Availability and latency SLOs count every request; the recall SLO
    counts only requests that carried a ``min_recall`` target, so the
    two populations (and their totals) differ.
    """
    if slo.kind == "recall":
        good = float(accum.recall_met)
        return good, float(accum.recall_requests) - good
    total = accum.requests
    if slo.kind == "availability":
        good = float(accum.answered)
    else:
        good = histogram_count_below(accum.latency, slo.threshold_s)
    return good, total - good


def evaluate_slos(
    accums: list[WindowAccum], slos: tuple[SLOSpec, ...]
) -> list[dict]:
    """Per-SLO verdicts with per-window error-budget burn rates.

    The burn rate of a window is its bad-event fraction over the error
    budget ``1 - target`` — 1.0 means the budget is being consumed
    exactly at the sustainable rate, above it the SLO is being burned
    down.  ``budget_consumed`` is the run-total equivalent; ``violated``
    is the overall verdict (run-wide SLI below target).
    """
    results = []
    for slo in slos:
        burn_rates: list[float] = []
        violating: list[int] = []
        good_total = 0.0
        total = 0
        budget = 1.0 - slo.target
        for accum in accums:
            good, bad = _good_bad(accum, slo)
            count = good + bad
            if count <= 0:
                burn_rates.append(0.0)
                continue
            good_total += good
            total += count
            burn_rates.append((bad / count) / budget)
            if good / count < slo.target:
                violating.append(accum.index)
        sli = good_total / total if total else 1.0
        entry = slo.to_payload()
        entry.update(
            {
                "threshold_s": slo.threshold_s,
                "sli": sli,
                "violated": bool(total) and sli < slo.target,
                "good": good_total,
                "bad": total - good_total,
                "budget_consumed": ((total - good_total) / (budget * total))
                if total
                else 0.0,
                "max_burn_rate": max(burn_rates, default=0.0),
                "burn_rates": burn_rates,
                "violating_windows": violating,
            }
        )
        results.append(entry)
    return results


# --------------------------------------------------------------------------- #
# the serve-report artifact
# --------------------------------------------------------------------------- #
def _window_payload(accum: WindowAccum, window_s: float) -> dict:
    requests = accum.requests
    lookups = accum.cache_hits + accum.cache_misses
    quantile_fields = {
        f"latency_p{q:g}_s": histogram_quantile(accum.latency, q)
        for q in WINDOW_QUANTILES
    }
    return {
        "index": accum.index,
        "start_s": accum.index * window_s,
        "end_s": (accum.index + 1) * window_s,
        "requests": requests,
        "served": accum.served,
        "degraded": accum.degraded,
        "shed": accum.shed,
        "timeout": accum.timeout,
        "failed": accum.failed,
        "availability": accum.answered / requests if requests else 1.0,
        **quantile_fields,
        "queue_depth_mean": (
            accum.queue_depth_sum / accum.queue_depth_samples
            if accum.queue_depth_samples
            else 0.0
        ),
        "queue_depth_max": accum.queue_depth_max,
        "batch_occupancy_mean": (
            accum.occupancy_sum / accum.occupancy_samples
            if accum.occupancy_samples
            else 0.0
        ),
        "batch_occupancy_max": accum.occupancy_max,
        "cache_hit_rate": accum.cache_hits / lookups if lookups else None,
        "cache_lookups": lookups,
        "faults": accum.faults,
        "retries": accum.retries,
        "hedges": accum.hedges,
        "breaker": accum.breaker,
        "approx": accum.approx,
        "recall_requests": accum.recall_requests,
        "recall_met": accum.recall_met,
        "adapt_observations": accum.adapt_observations,
        "adapt_folds": accum.adapt_folds,
        "adapt_explored": accum.adapt_explored,
    }


def dense_windows(telemetry: ServeTelemetry) -> list[WindowAccum]:
    """Every window from 0 through the last observed one, gaps filled."""
    if not telemetry.windows:
        return []
    last = max(telemetry.windows)
    return [
        telemetry.windows.get(i) or WindowAccum(index=i)
        for i in range(last + 1)
    ]


def build_serve_report(
    telemetry: ServeTelemetry,
    stats,
    *,
    config: dict | None = None,
    slos: tuple[SLOSpec, ...] = DEFAULT_SLOS,
) -> dict:
    """Assemble (and schema-validate) one ``repro.obs.serve_report/v1``.

    ``stats`` is the finished run's :class:`~repro.serve.service.ServeStats`;
    ``config`` is an arbitrary JSON-able echo of the load/service knobs
    that produced it.  Everything in the payload derives from virtual
    time, so the same request trace yields a byte-identical report
    whatever the host worker count.
    """
    accums = dense_windows(telemetry)
    latency = stats.latency_percentiles(WINDOW_QUANTILES)
    totals = {
        "requests": stats.total,
        "served": stats.served,
        "degraded": stats.degraded,
        "shed": stats.shed,
        "timeout": stats.timeout,
        "failed": stats.failed,
        "availability": stats.availability,
        "batches": stats.batches,
        "mean_occupancy": stats.mean_occupancy,
        "capacity_rps": stats.capacity_rps,
        "busy_s": stats.busy_s,
        "makespan_s": stats.makespan_s,
        "latency_samples": stats.answered,
        "latency_truncated": stats.latency_truncated,
        **{
            f"latency_p{q:g}_s": latency.get(q)
            for q in WINDOW_QUANTILES
        },
        "faults": dict(stats.faults),
        "retries": stats.retries,
        "hedges": stats.hedges,
        "breaker_trips": stats.breaker_trips,
        "approx_served": stats.approx_served,
        "recall_violations": stats.recall_violations,
        "adapt_observations": stats.adapt_observations,
        "adapt_folds": stats.adapt_folds,
        "adapt_explored": stats.adapt_explored,
    }
    slo_results = evaluate_slos(accums, slos)
    report = {
        "schema": "repro.obs.serve_report/v1",
        "config": dict(config or {}),
        "window_s": telemetry.window_s,
        "windows": [_window_payload(a, telemetry.window_s) for a in accums],
        "totals": totals,
        "slos": slo_results,
        "violations": [r["name"] for r in slo_results if r["violated"]],
    }
    validate_serve_report(report)
    return report


def write_serve_report(report: dict, path) -> Path:
    """Validate and write a serve report JSON; returns the path."""
    validate_serve_report(report)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1) + "\n")
    return path


# --------------------------------------------------------------------------- #
# the text health dashboard
# --------------------------------------------------------------------------- #
def _fmt_ms(value) -> str:
    return "-" if value is None else f"{value * 1e3:.3f}ms"


def render_serve_report(report: dict) -> str:
    """The ``repro-topk serve-report`` dashboard: sparklined windowed
    series plus one verdict line per SLO."""
    from ..bench.ascii_plot import sparkline

    windows = report["windows"]
    totals = report["totals"]
    lines = [
        f"serve report: {totals['requests']} requests over "
        f"{totals['makespan_s']:.3f}s virtual "
        f"({len(windows)} windows x {report['window_s']:g}s)",
        f"  outcomes: served={totals['served']} degraded={totals['degraded']} "
        f"shed={totals['shed']} timeout={totals['timeout']} "
        f"failed={totals['failed']}  "
        f"availability={totals['availability'] * 100:.2f}%",
        "  latency: "
        + "  ".join(
            f"p{q:g}={_fmt_ms(totals[f'latency_p{q:g}_s'])}"
            for q in WINDOW_QUANTILES
        )
        + ("  (histogram-backed)" if totals.get("latency_truncated") else ""),
        f"  throughput: {totals['capacity_rps']:,.0f} req/s capacity, "
        f"{totals['batches']} batches, "
        f"mean occupancy {totals['mean_occupancy']:.1f}",
    ]
    if totals.get("faults"):
        fired = " ".join(
            f"{kind}={count}" for kind, count in sorted(totals["faults"].items())
        )
        lines.append(
            f"  faults: {fired}  retries={totals['retries']} "
            f"hedges={totals['hedges']} breaker_trips={totals['breaker_trips']}"
        )
    if totals.get("approx_served") or totals.get("recall_violations"):
        lines.append(
            f"  quality: approx_served={totals['approx_served']} "
            f"recall_violations={totals['recall_violations']}"
        )
    if totals.get("adapt_observations"):
        lines.append(
            f"  adaptation: observations={totals['adapt_observations']} "
            f"folds={totals['adapt_folds']} explored={totals['adapt_explored']}"
        )

    def series(key) -> list:
        return [w[key] for w in windows]

    def spark_row(label: str, values, fmt) -> str:
        present = [v for v in values if v is not None]
        if not present:
            return f"  {label:<14} (no samples)"
        lo, hi = min(present), max(present)
        return (
            f"  {label:<14} [{sparkline(values)}]  "
            f"min={fmt(lo)} max={fmt(hi)}"
        )

    lines.append("windowed series:")
    lines.append(
        spark_row("p99 latency", series("latency_p99_s"), _fmt_ms)
    )
    lines.append(
        spark_row(
            "availability",
            series("availability"),
            lambda v: f"{v * 100:.1f}%",
        )
    )
    lines.append(
        spark_row("queue depth", series("queue_depth_mean"), lambda v: f"{v:.1f}")
    )
    lines.append(
        spark_row(
            "occupancy", series("batch_occupancy_mean"), lambda v: f"{v:.1f}"
        )
    )
    lines.append(
        spark_row(
            "cache hit rate",
            series("cache_hit_rate"),
            lambda v: f"{v * 100:.0f}%",
        )
    )
    if any(w["faults"] or w["retries"] or w["hedges"] for w in windows):
        lines.append(spark_row("faults", series("faults"), lambda v: f"{v:g}"))
        lines.append(spark_row("retries", series("retries"), lambda v: f"{v:g}"))
    lines.append("SLOs:")
    for slo in report["slos"]:
        verdict = "VIOLATED" if slo["violated"] else "ok"
        threshold = (
            f" within {slo['threshold_s'] * 1e3:g}ms"
            if slo.get("threshold_s") is not None
            else ""
        )
        lines.append(
            f"  [{verdict:>8}] {slo['name']}: sli {slo['sli'] * 100:.2f}% vs "
            f"target {slo['target'] * 100:g}%{threshold}  "
            f"budget consumed {slo['budget_consumed'] * 100:.0f}%  "
            f"max burn {slo['max_burn_rate']:.2f}x"
        )
        if slo["violating_windows"]:
            burn = spark_row(
                "burn rate", slo["burn_rates"], lambda v: f"{v:.2f}x"
            )
            lines.append(f"  {burn.strip()}")
            lines.append(
                f"    violating windows: "
                f"{', '.join(str(i) for i in slo['violating_windows'])}"
            )
    if report["violations"]:
        lines.append(
            f"SLO VIOLATIONS: {', '.join(report['violations'])}"
        )
    else:
        lines.append("all SLOs met")
    return "\n".join(lines)
