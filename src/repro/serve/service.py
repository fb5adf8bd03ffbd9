"""The top-k serving event loop: admission, batching, dispatch, SLOs.

:class:`TopKService` is a discrete-event simulation of a single-device
serving node.  Requests arrive on a **virtual clock**; the device is a
resource with a ``free-at`` cursor; service times are the simulated
device times of the underlying algorithms.  The loop interleaves three
event sources in time order:

1. **arrivals** — admission control sheds a request immediately when the
   queue is at ``queue_limit`` (bounded queue, load shedding);
2. **size triggers** — a batch group reaching ``max_batch`` flushes at
   once;
3. **delay triggers** — a group whose oldest request has waited
   ``max_delay_s`` flushes even if under-full.

A flush runs four stages over one per-batch record:

1. **expire** — pop the group and time out every request whose deadline
   passes before the device is free, without burning device time;
2. **plan** — pick the algorithm (the configured one, the plan cache's
   quality-aware choice, or the adaptive bandit's);
3. **run** — execute through the fault seams (crash retries with
   backoff, sharding, injected slowdowns) and book the batch's faults,
   retries and hedges;
4. **deliver** — advance the device cursor, book the batch, and finish
   each request (served and cached, degraded, or timed out); per-request
   latency is ``completion − arrival``.

Every seam books through one :class:`~repro.obs.serve.ServeLedger`,
shared with the cluster router: outcomes via ``finish`` and seam events
via ``record``, which updates the :class:`ServeStats` counter, the
``serve.*`` metric (when a metrics session is active), the telemetry
window and, only while tracing, the span.

Under faults (``ServeConfig.faults``, docs/faults.md) the loop degrades
instead of breaking: a crashing batch is retried with capped exponential
backoff and, past the retry budget, its requests are finished ``failed``
— never silently dropped; a sharded batch that loses a shard
irrecoverably comes back ``degraded`` with a recall bound; a corrupted
result-cache entry is detected by checksum, repaired, and — after
repeated corruption — the cache is bypassed behind a circuit breaker
until a cooldown passes.  Every request always gets exactly one terminal
outcome (pinned by tests/test_faults.py).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from ..api import resolve_device, topk
from ..errors import InputError
from ..faults import CircuitBreaker, FaultPlan, HedgePolicy, RetryPolicy
from ..obs import get_metrics, tracing_enabled
from ..obs.metrics import count, gauge, observe
from ..obs.serve import ServeLedger, ServeTelemetry
from .batcher import GroupKey, MicroBatcher, quality_class
from .cache import ServeCache
from .request import Outcome, Request, admission_failure
from .sharder import AllShardsLost, sharded_topk

#: histogram bounds for serve.latency (simulated seconds)
_LATENCY_BOUNDS = (1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1)
#: histogram bounds for serve.batch_occupancy (requests per launch)
_OCCUPANCY_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0)


@dataclass
class ServeConfig:
    """Policy knobs of one serving node; out-of-range counts and deadlines
    raise :class:`~repro.errors.InputError` at construction."""

    #: registry algorithm; "auto" consults the cost model via the plan cache
    algo: str = "auto"
    #: device model — GPUSpec, preset name, or None for A100
    device: object = None
    #: size trigger: flush a group at this many requests
    max_batch: int = 64
    #: delay trigger: flush a group once its oldest request waited this long
    max_delay_s: float = 0.05
    #: admission bound: shed arrivals once this many requests are queued
    queue_limit: int = 512
    #: default per-request latency SLO; None disables timeouts
    default_deadline_s: float | None = None
    #: split each batch row-wise across this many simulated devices (>= 2
    #: enables sharded execution; results stay identical to single-shot)
    shards: int = 1
    #: only shard problems at least this large
    shard_min_n: int = 1 << 16
    #: result LRU capacity (0 disables the cache); the plan LRU keeps
    #: :class:`ServeCache`'s default
    result_cache: int = 256
    #: seed forwarded to the algorithms' internal sampling
    seed: int = 0
    #: algorithm tuning params forwarded to the registry
    params: dict | None = None
    #: windowed-telemetry bucket width, virtual seconds (the serve_report
    #: time series resolution — docs/serving-observability.md)
    window_s: float = 0.25
    #: cap on the raw served-latency samples kept in ``ServeStats``; past
    #: it the list stops growing and percentiles come from the bounded
    #: latency histogram instead (``latency_truncated``).  None keeps
    #: every sample.
    latency_sample_cap: int | None = 65536
    #: host threads for sharded execution's numpy fan-out; never changes
    #: results or the serve report (pinned by tests/test_serve_obs.py)
    workers: int = 1
    #: deterministic fault plan; None (and the empty plan) leaves every
    #: fault seam a strict no-op (docs/faults.md)
    faults: FaultPlan | None = None
    #: how many times a crashing batch execution is re-attempted before
    #: its requests are finished "failed"
    batch_retries: int = 1
    #: open the result-cache circuit breaker after this many corruption
    #: detections, bypassing the cache for `breaker_cooldown_s`
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 0.25
    #: online adaptation (docs/adaptive.md): fold each executed batch's
    #: drift residual into a per-regime correction on the cost model and
    #: explore alternative algorithms epsilon-greedily.  Requires
    #: ``algo="auto"`` and an active metrics session — with telemetry off
    #: the whole path is a strict no-op (pinned by tests/test_adaptive.py)
    adaptive: bool = False
    #: exploration probability of the adaptive dispatcher
    adapt_epsilon: float = 0.1
    #: residuals accumulated per regime before a correction folds in
    adapt_min_window: int = 8
    #: seed of the pure exploration draws; None reuses ``seed``
    adapt_seed: int | None = None
    #: optional pre-built :class:`repro.perf.adaptive.CorrectionStore`
    #: shared across services (cluster nodes) or loaded from a prior run
    corrections: object = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise InputError(f"shards must be >= 1, got {self.shards}")
        if self.workers < 1:
            raise InputError(f"workers must be >= 1, got {self.workers}")
        if self.queue_limit < 0:
            raise InputError(f"queue_limit must be >= 0, got {self.queue_limit}")
        if self.default_deadline_s is not None and self.default_deadline_s < 0:
            raise InputError(
                f"default_deadline_s must be >= 0, got {self.default_deadline_s}"
            )


@dataclass
class BatchRecord:
    """One executed micro-batch (the serving analogue of a BenchPoint)."""

    batch_id: int
    algo: str
    n: int
    k: int
    size: int
    start_s: float
    finish_s: float
    duration_s: float
    largest: bool
    plan_hit: bool = False
    #: execution attempts this batch took (1 = first try succeeded)
    attempts: int = 1
    #: whether the batch came back degraded (a shard was lost)
    degraded: bool = False
    #: whether the batch's results are exact (False for the approximate
    #: tier and for degraded sharded results)
    exact: bool = True


@dataclass
class ServeStats:
    """Aggregate outcome of one :meth:`TopKService.run`."""

    served: int = 0
    degraded: int = 0
    shed: int = 0
    timeout: int = 0
    failed: int = 0
    batches: int = 0
    #: total simulated device-busy seconds across all batches
    busy_s: float = 0.0
    #: virtual time the last event finished
    makespan_s: float = 0.0
    #: answered-request latencies, seconds (ordered by completion).  The
    #: list stops growing at ``ServeConfig.latency_sample_cap``; after
    #: that ``latency_truncated`` flips and quantiles come from
    #: ``latency_hist``
    latencies_s: list = field(default_factory=list)
    #: bounded latency histogram covering *every* answered request (the
    #: run's :class:`~repro.obs.serve.ServeTelemetry` shares this object)
    latency_hist: object = None
    #: True once ``latencies_s`` hit the sample cap and stopped recording
    latency_truncated: bool = False
    #: per-batch request counts
    occupancies: list = field(default_factory=list)
    cache: dict = field(default_factory=dict)
    #: injected faults by kind (empty without a fault plan)
    faults: dict = field(default_factory=dict)
    #: recovery counters: batch/shard retries paid, hedges dispatched,
    #: circuit-breaker trips
    retries: int = 0
    hedges: int = 0
    breaker_trips: int = 0
    #: "served" outcomes answered by the approximate tier (exact=False
    #: but not degraded); a subset of ``served``
    approx_served: int = 0
    #: answered requests carrying a ``min_recall`` target whose plan's
    #: expected recall fell below it — zero by planner construction
    #: unless a fixed-algo config overrides the quality dispatch
    recall_violations: int = 0
    #: adaptation activity (zero without ``ServeConfig.adaptive`` + an
    #: active metrics session): batch residuals fed back, correction
    #: folds triggered, and exploration overrides taken
    adapt_observations: int = 0
    adapt_folds: int = 0
    adapt_explored: int = 0

    @property
    def total(self) -> int:
        return self.served + self.degraded + self.shed + self.timeout + self.failed

    @property
    def answered(self) -> int:
        """Requests that got results back (full fidelity or degraded)."""
        return self.served + self.degraded

    @property
    def availability(self) -> float:
        """Answered fraction of all requests — the serve-bench SLO."""
        return self.answered / self.total if self.total else 1.0

    @property
    def mean_occupancy(self) -> float:
        if not self.occupancies:
            return 0.0
        return sum(self.occupancies) / len(self.occupancies)

    @property
    def capacity_rps(self) -> float:
        """Served requests per second of device-busy time.

        The device-limited throughput ceiling — what the node could
        sustain at 100% utilisation — independent of the offered load's
        idle gaps, so it is comparable across arrival patterns.
        """
        if self.busy_s <= 0:
            return 0.0
        # cache hits consume no device time; count only executed requests
        executed = sum(self.occupancies)
        return executed / self.busy_s

    def latency_percentiles(self, qs=(50.0, 95.0, 99.0)) -> dict:
        """``{q: seconds}`` over answered requests (None values if none).

        Exact order statistics while every sample was kept; once the
        sample cap truncated ``latencies_s`` the estimates come from the
        bounded histogram (16 buckets/decade — within ~7.5% of exact).
        """
        if self.latency_truncated and self.latency_hist is not None:
            from ..obs.serve import histogram_quantile

            return {q: histogram_quantile(self.latency_hist, q) for q in qs}
        if not self.latencies_s:
            return {q: None for q in qs}
        from ..bench.report import percentiles

        return percentiles(self.latencies_s, qs)


@dataclass
class _Batch:
    """One flushed group on its way through plan → run → deliver."""

    key: GroupKey
    #: the group's requests still inside their deadlines
    requests: list
    #: virtual start time; ``run`` adds any retry backoff
    start_s: float
    batch_id: int = 0
    algo: str = ""
    #: tuning the quality planner chose; None keeps ``ServeConfig.params``
    params: dict | None = None
    #: False for approximate plans, which never shard
    exact_plan: bool = True
    plan_hit: bool = False
    explored: bool = False
    #: the TopKResult, or None once every attempt failed (see ``error``)
    result: object = None
    attempts: int = 1
    error: str = ""
    #: simulated device seconds, injected slowdown included
    duration_s: float = 0.0

    @property
    def finish_s(self) -> float:
        return self.start_s + self.duration_s


class TopKService:
    """Discrete-event top-k serving node over the simulated device."""

    def __init__(self, config: ServeConfig | None = None) -> None:
        self.config = config or ServeConfig()
        run_device, spec = resolve_device(self.config.device)
        if run_device is not None:
            raise ValueError(
                "TopKService owns its device timeline; pass a GPUSpec or "
                "preset name, not an existing Device"
            )
        self.spec = spec
        self.batcher = MicroBatcher(
            max_batch=self.config.max_batch,
            max_delay_s=self.config.max_delay_s,
        )
        self.cache = ServeCache(result_capacity=self.config.result_cache)
        self.injector = (
            self.config.faults.injector() if self.config.faults is not None else None
        )
        #: retry backoff and straggler hedging run on the policies' own
        #: defaults (docs/faults.md)
        self.retry = RetryPolicy()
        self.hedge = HedgePolicy()
        self.breaker = CircuitBreaker(
            threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
        )
        #: the online learner; None unless the config opts in.  The
        #: correction store also hooks the plan cache so plan keys carry
        #: each regime's correction epoch (stale plans miss, not serve)
        self.adaptation = None
        if self.config.adaptive:
            from ..perf.adaptive import AdaptiveDispatcher, CorrectionStore

            store = self.config.corrections
            if store is None:
                store = CorrectionStore(min_window=self.config.adapt_min_window)
            self.adaptation = AdaptiveDispatcher(
                corrections=store,
                epsilon=self.config.adapt_epsilon,
                seed=(
                    self.config.adapt_seed
                    if self.config.adapt_seed is not None
                    else self.config.seed
                ),
            )
            self.cache.corrections = store
        self.outcomes: list[Outcome] = []
        self.batch_records: list[BatchRecord] = []
        #: windowed telemetry + request-span buffer; span recording is
        #: locked to whether a tracing session is active *now* so a plain
        #: run stays a strict no-op (pinned by tests/test_serve_obs.py)
        self.telemetry = ServeTelemetry(
            window_s=self.config.window_s, trace=tracing_enabled()
        )
        self.stats = ServeStats(latency_hist=self.telemetry.latency_hist)
        self.ledger = ServeLedger(
            self.stats, self.telemetry, self.config.latency_sample_cap
        )
        self._device_free_s = 0.0
        #: monotone batch sequence — namespaces fault draws per batch, so
        #: it must tick for failed batches too (they drew from the plan)
        self._batch_seq = 0
        #: virtual "now" — the batcher/cache hooks carry no timestamp, so
        #: the event loop keeps this current for them
        self._now_s = 0.0
        #: injector fault totals already booked
        self._faults_seen: dict[str, int] = {}
        self.batcher.observer = self._on_queue_event
        self.cache.on_event = self._on_cache_event

    # -- telemetry hooks ------------------------------------------------- #
    def _on_queue_event(self, event: str, key, pending: int) -> None:
        """Batcher observer: queue depth at every admission and flush."""
        gauge("serve.queue_depth", pending)
        self.telemetry.on_queue_depth(self._now_s, pending)

    def _on_cache_event(self, event: str) -> None:
        """Cache hook: ``serve.cache`` metrics plus the windowed hit rate
        (a corrupt read counts as a miss — it was not served)."""
        count("serve.cache", event=event)
        if event in ("result_hit", "result_miss", "result_corrupt"):
            self.telemetry.on_cache_lookup(self._now_s, event == "result_hit")

    def _drain_faults(
        self, t_s: float, *, rid: int | None = None, batch_id: int | None = None
    ) -> None:
        """Book the injector's faults fired since the last drain, with a
        span on request ``rid``'s lane or on the device lane of batch
        ``batch_id`` (no span when neither is given)."""
        if self.injector is None:
            return
        span = None if rid is None and batch_id is None else "fault"
        for kind, total in self.injector.fault_counts().items():
            fired = total - self._faults_seen.get(kind, 0)
            if fired > 0:
                self._faults_seen[kind] = total
                self.ledger.record(
                    t_s, "faults", fired, metric="serve.faults", span=span,
                    rid=rid, batch_id=batch_id, kind=kind,
                )

    # -- outcome bookkeeping -------------------------------------------- #
    def _finish(self, outcome: Outcome, min_recall: float | None = None) -> Outcome:
        """Book one terminal outcome: the shared ledger, the node's
        ``serve.*`` metrics and, while tracing, its request spans."""
        self.outcomes.append(outcome)
        self.ledger.finish(outcome, min_recall)
        if outcome.status == "served" and not outcome.exact:
            count("serve.approx")
        count("serve.requests", status=outcome.status)
        # the status-labelled latency series also charges non-served
        # verdicts with the time the caller actually waited
        wait_s = outcome.latency_s
        if wait_s is None and outcome.arrival_s is not None:
            wait_s = outcome.finish_s - outcome.arrival_s
        if wait_s is not None:
            observe("serve.latency", wait_s, _LATENCY_BOUNDS, status=outcome.status)
        if outcome.latency_s is not None:
            observe("serve.latency", outcome.latency_s, _LATENCY_BOUNDS)
        if self.telemetry.trace:
            self._request_spans(outcome)
        return outcome

    # -- admission ------------------------------------------------------ #
    def _cache_hit(self, request: Request) -> Outcome | None:
        """The served outcome of a result-cache hit, or None.

        Looks up through the corruption/breaker seams: injected
        corruption is detected by checksum, the entry repaired (evicted)
        and reported as a miss, and each detection feeds the circuit
        breaker that bypasses the cache entirely while open.
        """
        if self.config.result_cache <= 0:
            return None
        now_s = request.arrival_s
        if not self.breaker.allow(now_s):
            self.ledger.record(
                now_s, "breaker", metric="serve.breaker",
                span="breaker_bypass", rid=request.rid, event="bypass",
            )
            return None
        corrupt = None
        if self.injector is not None:
            corrupt = partial(
                self.injector.decide,
                "cache_corruption", "serve.cache", f"rid={request.rid}",
            )
        before = self.cache.corruptions
        cached = self.cache.get_result(
            request.data,
            request.k,
            request.largest,
            quality_class(request.min_recall),
            corrupt=corrupt,
            content_key=request._content_key,
        )
        if self.cache.corruptions > before:
            # the cache hook already counted the result_corrupt event
            self._drain_faults(now_s, rid=request.rid)
            if self.breaker.record_failure(now_s):
                self.ledger.record(
                    now_s, "breaker", metric="serve.breaker",
                    span="breaker_open", track="cache", event="open",
                )
            return None
        if cached is None:
            return None
        self.breaker.record_success()
        values, indices, meta = cached
        exact = bool(meta.get("exact", True))
        return Outcome(
            rid=request.rid,
            status="served",
            finish_s=now_s,
            arrival_s=now_s,
            latency_s=0.0,
            batch_size=1,
            algo="cache",
            cache_hit=True,
            values=values,
            indices=indices,
            exact=exact,
            recall_bound=meta.get("recall_bound"),
            expected_recall=None if exact else meta.get("expected_recall", 1.0),
        )

    def submit(self, request: Request) -> Outcome | None:
        """Admit one request at its virtual arrival time.

        Returns an :class:`Outcome` immediately for a malformed request
        (failed, see :func:`~repro.serve.request.admission_failure`), a shed
        request or a result-cache hit; returns None when the request was
        queued.
        """
        cfg = self.config
        self._now_s = request.arrival_s
        rejected = admission_failure(request)
        if rejected is not None:
            self._admission_span(request, "failed")
            return self._finish(rejected)
        if (
            request.deadline_s is None
            and request.slo is not None
            and request.slo[0] is not None
        ):
            request.deadline_s = request.arrival_s + float(request.slo[0])
        if request.deadline_s is None and cfg.default_deadline_s is not None:
            request.deadline_s = request.arrival_s + cfg.default_deadline_s
        hit = self._cache_hit(request)
        if hit is not None:
            self._admission_span(request, "cache_hit")
            return self._finish(hit, request.min_recall)
        if self.batcher.pending >= cfg.queue_limit:
            self._admission_span(request, "shed")
            # a shed admission leaves the queue untouched but is still a
            # depth observation (the queue *was* full when we looked)
            self._on_queue_event("shed", None, self.batcher.pending)
            return self._finish(
                Outcome(
                    rid=request.rid,
                    status="shed",
                    finish_s=request.arrival_s,
                    arrival_s=request.arrival_s,
                )
            )
        self._admission_span(request, "queued")
        # the batcher observer emits the queue-depth gauge + window sample
        self.batcher.add(request)
        return None

    # -- the flush stages: expire → plan → run → deliver ------------------ #
    def _execute(self, key: GroupKey, trigger_s: float) -> None:
        """Flush one group through the four stages."""
        batch = self._expire(key, trigger_s)
        if batch is not None:
            self._plan(batch)
            self._run(batch)
            self._deliver(batch)

    def _expire(self, key: GroupKey, trigger_s: float) -> _Batch | None:
        """Pop one group and time out each request whose deadline passes
        before the device is free; the rest form the batch (None if no
        request is left)."""
        self._now_s = max(self._now_s, trigger_s)
        group = self.batcher.pop(key)
        start_s = max(trigger_s, self._device_free_s)
        alive = []
        for request in group:
            if request.deadline_s is not None and request.deadline_s < start_s:
                self._queued_span(request, request.deadline_s)
                self._finish(
                    Outcome(
                        rid=request.rid,
                        status="timeout",
                        finish_s=request.deadline_s,
                        arrival_s=request.arrival_s,
                    )
                )
            else:
                alive.append(request)
        return _Batch(key=key, requests=alive, start_s=start_s) if alive else None

    def _plan(self, batch: _Batch) -> None:
        """Pick the batch's algorithm: the configured one, or under
        ``algo="auto"`` the plan cache's choice (quality-aware when the
        group carries a recall target), which the adaptive bandit step
        may override on exact traffic."""
        cfg, key = self.config, batch.key
        batch.algo = cfg.algo
        if cfg.algo != "auto":
            return
        # the cache hook counts the serve.cache plan_hit/plan_miss
        plan, batch.plan_hit = self.cache.make_plan(
            n=key.n,
            k=key.k,
            batch=len(batch.requests),
            spec=self.spec,
            largest=key.largest,
            min_recall=key.quality,
            dtype=key.dtype,
        )
        batch.algo = plan.algo
        batch.exact_plan = plan.exact
        if plan.params:
            batch.params = dict(plan.params)
        if (
            self.adaptation is not None
            and get_metrics() is not None
            and plan.exact
            and key.quality is None
            and len(plan.ranking) > 1
        ):
            # exploit the regime's observed winner over the plan's
            # (already corrected) ranking, explore epsilon-greedily via
            # pure seeded draws (workers=1 == workers=N, docs/adaptive.md)
            decision = self.adaptation.decide(
                plan.ranking,
                n=key.n,
                k=key.k,
                batch=len(batch.requests),
                spec_name=self.spec.name,
                dtype=key.dtype,
                site="serve.dispatch",
            )
            batch.algo = decision.algo
            batch.explored = decision.explored

    def _run(self, batch: _Batch) -> None:
        """Execute the batch through the fault seams.

        A crashing attempt is retried up to ``batch_retries`` times, each
        after a capped-exponential backoff that delays the start; past the
        budget ``result`` stays None and ``error`` keeps the last failure.
        Approximate plans never shard: the sharder's merge and recall
        contract assume exact per-shard results.  The batch's faults,
        retries and hedges are booked at its start.
        """
        cfg, key = self.config, batch.key
        batch.batch_id = bid = self._batch_seq
        self._batch_seq += 1
        data = np.stack([r.data for r in batch.requests])
        params = batch.params if batch.params is not None else cfg.params
        sharded = batch.exact_plan and cfg.shards > 1 and key.n >= cfg.shard_min_n
        delay_s = 0.0
        for attempt in range(1 + max(0, cfg.batch_retries)):
            batch.attempts = attempt + 1
            if attempt:
                delay_s += self.retry.backoff(attempt - 1)
            if self.injector is not None and self.injector.decide(
                "worker_crash", "serve.batch", f"batch={bid}", f"attempt={attempt}"
            ):
                batch.error = "injected worker crash"
                continue
            try:
                if sharded:
                    batch.result = sharded_topk(
                        data, key.k, shards=cfg.shards, algo=batch.algo,
                        device=self.spec, largest=key.largest, seed=cfg.seed,
                        params=params, workers=cfg.workers,
                        injector=self.injector, retry=self.retry,
                        hedge=self.hedge, fault_scope=f"batch={bid}/try={attempt}",
                    )
                else:
                    batch.result = topk(
                        data, key.k, algo=batch.algo, device=self.spec,
                        largest=key.largest, seed=cfg.seed, params=params,
                    )
                break
            except AllShardsLost as exc:
                batch.error = str(exc)
            except Exception as exc:  # noqa: BLE001 — becomes failed outcomes
                batch.error = f"{type(exc).__name__}: {exc}"
        batch.start_s += delay_s
        meta = batch.result.meta if batch.result is not None else {}
        if batch.result is not None:
            batch.duration_s = batch.result.time
            if self.injector is not None:
                slow = self.injector.decide("timeout", "serve.batch", f"batch={bid}")
                if slow is not None:
                    batch.duration_s = batch.duration_s * slow.factor
        start_s = batch.start_s
        self._drain_faults(start_s, batch_id=bid)
        batch_retries, shard_retries = batch.attempts - 1, meta.get("retries", 0)
        self.ledger.record(
            start_s, "retries", batch_retries + shard_retries, stat="retries",
            metric="serve.retries", span="retry", batch_id=bid,
            sites={"serve.batch": batch_retries, "serve.shard": shard_retries},
        )
        self.ledger.record(
            start_s, "hedges", meta.get("hedges", 0), stat="hedges",
            metric="serve.hedges", span="hedge", batch_id=bid,
        )

    def _deliver(self, batch: _Batch) -> None:
        """Finish every request of the run batch.

        A batch whose every attempt failed finishes each request
        ``failed`` — outcomes are never silently dropped.  Otherwise the
        batch is booked and each request answered: timed out if its
        deadline passed before the batch finished, ``degraded`` with the
        recall bound if a shard was lost, else ``served`` and written to
        the result cache.
        """
        if batch.result is None:
            for request in batch.requests:
                self._queued_span(request, batch.start_s)
                self._finish(
                    Outcome(
                        rid=request.rid,
                        status="failed",
                        finish_s=batch.start_s,
                        arrival_s=request.arrival_s,
                        batch_size=len(batch.requests),
                        error=batch.error,
                    )
                )
            return
        self._book_batch(batch)
        for row, request in enumerate(batch.requests):
            self._answer(batch, row, request)

    def _book_batch(self, batch: _Batch) -> None:
        """Advance the device cursor and book one executed batch: stats,
        windows, metrics, spans, its :class:`BatchRecord` and the
        adaptive feedback."""
        result, size = batch.result, len(batch.requests)
        finish_s = batch.finish_s
        self._device_free_s = finish_s
        self._now_s = max(self._now_s, finish_s)
        self.stats.batches += 1
        self.stats.busy_s += batch.duration_s
        self.stats.occupancies.append(size)
        self.telemetry.on_batch(batch.start_s, size)
        observe("serve.batch_occupancy", size, _OCCUPANCY_BOUNDS)
        if self.telemetry.trace:
            self._batch_spans(batch)
        self.batch_records.append(
            BatchRecord(
                batch_id=len(self.batch_records),
                algo=result.algo,
                n=batch.key.n,
                k=batch.key.k,
                size=size,
                start_s=batch.start_s,
                finish_s=finish_s,
                duration_s=batch.duration_s,
                largest=batch.key.largest,
                plan_hit=batch.plan_hit,
                attempts=batch.attempts,
                degraded=result.degraded,
                exact=result.exact,
            )
        )
        if (
            self.adaptation is not None
            and get_metrics() is not None
            and self.config.algo == "auto"
            and not result.degraded
            and result.exact
            and not result.meta.get("shard_times_s")
        ):
            # feed the measured wall time (including any injected slowdown
            # — that *is* live drift) back into the learner; sharded and
            # degraded results measure a different code path and are
            # excluded so residuals stay attributable to one algorithm
            self._adapt_feedback(batch)

    def _answer(self, batch: _Batch, row: int, request: Request) -> None:
        """Finish one request of an executed batch from result row ``row``."""
        result, finish_s = batch.result, batch.finish_s
        if request.deadline_s is not None and request.deadline_s < finish_s:
            self._finish(
                Outcome(
                    rid=request.rid,
                    status="timeout",
                    finish_s=request.deadline_s,
                    arrival_s=request.arrival_s,
                )
            )
            return
        # a lossy degraded result is neither cached nor reported as full
        # fidelity: it is flagged and carries its recall contract
        exact = bool(result.exact) and not result.degraded
        approx = not exact and not result.degraded
        expected_recall = result.meta.get("expected_recall", 1.0) if approx else None
        values = np.array(result.values[row], copy=True)
        indices = np.array(result.indices[row], copy=True)
        if (
            not result.degraded
            and self.config.result_cache > 0
            and self.breaker.allow(request.arrival_s)
        ):
            # approximate results are cached under the request's quality
            # class with their quality annotations, so an exact lookup for
            # the same payload can never alias them
            meta = None
            if approx:
                meta = {
                    "exact": False,
                    "recall_bound": result.recall_bound,
                    "expected_recall": expected_recall,
                    "algo": result.algo,
                }
            self.cache.put_result(
                request.data,
                request.k,
                request.largest,
                values,
                indices,
                quality_class(request.min_recall),
                meta,
                content_key=request._content_key,
            )
        self._finish(
            Outcome(
                rid=request.rid,
                status="degraded" if result.degraded else "served",
                finish_s=finish_s,
                arrival_s=request.arrival_s,
                latency_s=finish_s - request.arrival_s,
                batch_size=len(batch.requests),
                algo=result.algo,
                values=values,
                indices=indices,
                exact=exact,
                recall_bound=None if exact else result.recall_bound,
                expected_recall=expected_recall,
            ),
            request.min_recall,
        )

    # -- online adaptation feedback --------------------------------------- #
    def _adapt_feedback(self, batch: _Batch) -> None:
        """Fold one executed batch's measured time into the learner.

        Updates the per-regime EMA and (through the dispatcher's
        :class:`~repro.perf.adaptive.CorrectionStore`) the windowed
        residual fold, then emits the same ``costmodel.log2_ratio``
        drift histogram the offline sweep pipeline produces — so the
        serve loop and ``repro-topk drift`` read one stream.
        """
        key, size, algo = batch.key, len(batch.requests), batch.result.algo
        folded = self.adaptation.observe(
            algo,
            n=key.n,
            k=key.k,
            batch=size,
            measured_s=batch.duration_s,
            spec=self.spec,
            dtype=key.dtype,
        )
        for tally, event, fired in (
            ("adapt_observations", "observe", True),
            ("adapt_folds", "fold", folded),
            ("adapt_explored", "explore", batch.explored),
        ):
            if fired:
                self.ledger.record(
                    batch.start_s, tally, stat=tally, metric="serve.adapt", event=event
                )
        from types import SimpleNamespace

        from ..obs.drift import record_point_drift

        record_point_drift(
            get_metrics(),
            SimpleNamespace(
                algo=algo,
                n=key.n,
                k=key.k,
                batch=size,
                time=batch.duration_s,
                status="ok",
                detail="",
            ),
            spec=self.spec,
        )

    # -- request-trace emission (no-ops unless tracing) ------------------ #
    def _admission_span(self, request: Request, verdict: str) -> None:
        if self.telemetry.trace:
            self.telemetry.emit(
                "admission",
                cat="serve.admission",
                lane=self.telemetry.request_lane(request.rid),
                ts_s=request.arrival_s,
                verdict=verdict,
            )

    def _queued_span(self, request: Request, until_s: float) -> None:
        """The time one request sat in the micro-batcher's queue."""
        if self.telemetry.trace:
            self.telemetry.emit(
                "queued",
                cat="serve.queue",
                lane=self.telemetry.request_lane(request.rid),
                ts_s=request.arrival_s,
                dur_s=max(0.0, until_s - request.arrival_s),
            )

    def _request_spans(self, outcome: Outcome) -> None:
        """The ``finish`` marker and the root ``request`` span of one
        terminal outcome."""
        telemetry = self.telemetry
        lane = telemetry.request_lane(outcome.rid)
        telemetry.emit(
            "finish",
            cat="serve.request",
            lane=lane,
            ts_s=outcome.finish_s,
            status=outcome.status,
        )
        args: dict = {"rid": outcome.rid, "status": outcome.status}
        if outcome.latency_s is not None:
            args["latency_s"] = outcome.latency_s
        if outcome.cache_hit:
            args["cache_hit"] = True
        if outcome.recall_bound is not None:
            args["recall_bound"] = outcome.recall_bound
        if outcome.error:
            args["error"] = outcome.error
        start_s = outcome.arrival_s
        if start_s is None:
            start_s = outcome.finish_s
        telemetry.emit(
            "request",
            cat="serve.request",
            lane=lane,
            ts_s=start_s,
            dur_s=outcome.finish_s - start_s,
            **args,
        )

    def _batch_spans(self, batch: _Batch) -> None:
        """Per-request batch/shard/merge spans plus the node-lane view of
        one executed micro-batch."""
        telemetry, result = self.telemetry, batch.result
        start_s, finish_s, duration_s = batch.start_s, batch.finish_s, batch.duration_s
        shard_times = result.meta.get("shard_times_s") or {}
        slowest = max(shard_times.values()) if shard_times else 0.0
        batch_args = dict(
            batch_id=batch.batch_id,
            algo=result.algo,
            size=len(batch.requests),
            attempts=batch.attempts,
        )
        telemetry.emit(
            "batch",
            cat="serve.batch",
            lane=telemetry.node_lane("device"),
            ts_s=start_s,
            dur_s=duration_s,
            **batch_args,
        )
        for shard_id, shard_s in sorted(shard_times.items()):
            telemetry.emit(
                "shard",
                cat="serve.shard",
                lane=telemetry.node_lane(f"shard{shard_id}"),
                ts_s=start_s,
                dur_s=shard_s,
                batch_id=batch.batch_id,
                shard=shard_id,
            )
        for request in batch.requests:
            lane = telemetry.request_lane(request.rid)
            self._queued_span(request, start_s)
            telemetry.emit(
                "batch",
                cat="serve.batch",
                lane=lane,
                ts_s=start_s,
                dur_s=duration_s,
                **batch_args,
            )
            if shard_times:
                telemetry.emit(
                    "shards",
                    cat="serve.shard",
                    lane=lane,
                    ts_s=start_s,
                    dur_s=slowest,
                    shards=len(shard_times),
                    lost=len(result.meta.get("lost_shards", ())),
                )
                telemetry.emit(
                    "merge",
                    cat="serve.merge",
                    lane=lane,
                    ts_s=start_s + slowest,
                    dur_s=max(0.0, finish_s - (start_s + slowest)),
                    merge_s=result.meta.get("merge_s"),
                )
            else:
                telemetry.emit(
                    "execute",
                    cat="serve.batch",
                    lane=lane,
                    ts_s=start_s,
                    dur_s=duration_s,
                    algo=result.algo,
                )

    # -- the event loop -------------------------------------------------- #
    def run(self, requests: list[Request]) -> ServeStats:
        """Serve a full virtual-time trace of requests to completion."""
        pending = sorted(requests, key=lambda r: (r.arrival_s, r.rid))
        i = 0
        while i < len(pending) or self.batcher.pending:
            next_arrival = pending[i].arrival_s if i < len(pending) else None
            flush = self.batcher.next_flush_time()
            if next_arrival is not None and (
                flush is None or next_arrival <= flush[0]
            ):
                request = pending[i]
                i += 1
                self.submit(request)
                key = self.batcher.size_ready()
                if key is not None:
                    self._execute(key, request.arrival_s)
            else:
                deadline, key = flush
                self._execute(key, deadline)
        self.stats.cache = self.cache.stats()
        self.stats.breaker_trips = self.breaker.trips
        if self.injector is not None:
            # book any seam that fired after the last per-batch drain so
            # the windowed and metric fault totals match the injector's
            self._drain_faults(self.stats.makespan_s)
            self.stats.faults = self.injector.fault_counts()
        return self.stats
