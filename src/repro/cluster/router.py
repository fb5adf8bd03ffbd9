"""The cluster front-end: route, replicate, quorum-merge.

:class:`ClusterRouter` serves the same virtual-time request traces as a
single :class:`~repro.serve.TopKService`, but across N replicas:

1. **Route** (phase 1, arrival order): each request's payload is either
   routed *whole* (small payloads and every approximate-tier request —
   partitioning an approx plan would stack two loss models) or split
   into P contiguous partitions via the sharder's
   :func:`~repro.serve.sharder.shard_bounds`.  A placement policy maps
   (:func:`~repro.cluster.placement.payload_key`, partition) to a
   preference-ordered replica set; the router dispatches to the first
   ``dispatch_replicas`` reachable entries, paying ``FAILOVER_DETECT_S``
   of virtual time for every crashed or partitioned replica it walks
   past.
2. **Execute** (phase 2): every node serves its dispatched sub-trace
   through a full, independent ``TopKService`` — micro-batching, caches,
   sharded execution and fault seams included.  Nodes share no state, so
   ``workers`` only shortens host wall-clock (workers=1 == workers=N).
3. **Merge** (phase 3, submission order): per request, the fastest
   reachable reply per partition wins; stragglers past the
   :class:`~repro.faults.HedgePolicy` threshold race a clean duplicate;
   once ``P - quorum_f`` partitions are in, the rest are dropped
   (degraded, with the :func:`~repro.faults.recall_bound` contract) and
   the survivors fold through the sharder's (priority-key, index)
   :func:`~repro.serve.merge.hierarchical_merge` — so a fully healthy
   cluster answer is byte-identical to a single-shot ``repro.topk()``.

Node unreachability comes from the ``node_crash`` / ``node_partition``
fault kinds at the ``cluster.node`` site, drawn per (node, fault epoch)
with the same pure :func:`~repro.faults.fault_draw` seeding as every
other seam: sticky rules strip the epoch (the node has left for good),
transient rules re-draw each epoch (crash + rejoin churn).  A
partitioned node still executes its sub-query — the device time is paid,
visible in that node's telemetry — but the reply is dropped and the
router fails over regardless.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..faults import FaultPlan, HedgePolicy, recall_bound
from ..serve import Outcome, Request, ServeConfig, ServeStats, admission_failure
from ..serve.merge import hierarchical_merge
from ..serve.sharder import shard_bounds
from ..exec.engine import fanout
from ..obs.serve import ServeLedger, ServeTelemetry
from .node import ClusterNode, build_nodes
from .placement import PLACEMENTS, make_placement, payload_key

#: simulated one-way router<->node network hop, seconds (paid once at
#: dispatch and once on the merged reply)
NET_HOP_S = 5e-5

#: virtual seconds to detect an unreachable replica and fail over (paid
#: per unreachable replica walked past)
FAILOVER_DETECT_S = 1e-3

#: per-candidate, per-merge-level cost of the router's k-way fold,
#: seconds (the coordinator-side analogue of the sharder's merge charge)
MERGE_PER_CANDIDATE_S = 2e-9


@dataclass
class ClusterConfig:
    """Topology and routing knobs of one simulated cluster."""

    #: replica count
    nodes: int = 4
    #: how many nodes hold each partition (failover breadth)
    replication: int = 2
    #: placement policy name — one of :data:`~repro.cluster.PLACEMENTS`
    placement: str = "consistent-hash"
    #: data partitions per large request; None means one per node
    partitions: int | None = None
    #: payloads below this stay whole (routed to a single replica)
    partition_min_n: int = 1 << 14
    #: proceed once ``P - quorum_f`` partitions replied; later partitions
    #: are dropped from the merge (degraded, recall-bounded).  0 waits
    #: for everything and keeps results byte-identical to single-shot.
    quorum_f: int = 0
    #: concurrently dispatch each partition to this many replicas and
    #: take the first reply (read-quorum style tail-cutting; the losers'
    #: work is wasted).  1 dispatches to the preferred replica only.
    dispatch_replicas: int = 1
    #: width of the node-fault epoch: transient ``node_crash`` /
    #: ``node_partition`` rules draw once per (node, epoch), modelling
    #: leave/rejoin churn rather than per-packet blips
    fault_epoch_s: float = 0.25
    #: cluster-level telemetry window width, virtual seconds
    window_s: float = 0.25
    #: cap on raw cluster-latency samples (histogram fallback past it)
    latency_sample_cap: int | None = 65536
    #: host threads for the node fan-out; never changes results
    workers: int = 1
    #: placement/ring seed
    seed: int = 0
    #: cluster fault plan: ``node_crash``/``node_partition`` rules fire
    #: at the router, every other kind is re-seeded per node
    faults: FaultPlan | None = None
    #: per-node service template (``faults`` field is derived, not taken
    #: from the template — pass the plan above instead)
    node_config: ServeConfig | None = None

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"nodes must be >= 1, got {self.nodes}")
        if not 1 <= self.replication <= self.nodes:
            raise ValueError(
                f"replication must be in [1, nodes={self.nodes}], "
                f"got {self.replication}"
            )
        if not 1 <= self.dispatch_replicas <= self.replication:
            raise ValueError(
                "dispatch_replicas must be in [1, replication="
                f"{self.replication}], got {self.dispatch_replicas}"
            )
        parts = self.partitions if self.partitions is not None else self.nodes
        if parts < 1:
            raise ValueError(f"partitions must be >= 1, got {parts}")
        if not 0 <= self.quorum_f < parts:
            raise ValueError(
                f"quorum_f must be in [0, partitions={parts}), got {self.quorum_f}"
            )
        if self.fault_epoch_s <= 0:
            raise ValueError(
                f"fault_epoch_s must be positive, got {self.fault_epoch_s}"
            )
        if self.placement not in PLACEMENTS:
            raise ValueError(
                f"placement must be one of {PLACEMENTS}, got {self.placement!r}"
            )


@dataclass
class ClusterStats(ServeStats):
    """Cluster-level :class:`~repro.serve.ServeStats` plus router counters.

    Inherits the full single-node surface (outcome counts, latency
    percentiles with histogram fallback, availability) so the cluster
    drops straight into :func:`repro.obs.build_serve_report`; ``busy_s``
    / ``batches`` / ``occupancies`` aggregate over every node, and
    ``capacity_rps`` is redefined against the *bottleneck* node (the
    replica that would saturate first).
    """

    #: replica count the run used
    nodes: int = 0
    #: dispatches re-routed past an unreachable replica
    failovers: int = 0
    #: partitions with no reachable replica or no surviving sub-outcome
    lost_partitions: int = 0
    #: partitions that replied after the quorum was already met
    dropped_partitions: int = 0
    #: executions whose replies were never used: orphaned work on
    #: partitioned nodes plus the losers of replica-fan-out races
    wasted_dispatches: int = 0
    #: answered requests satisfied entirely from node result caches
    cache_served: int = 0
    #: per-node simulated device-busy seconds (index = node id)
    node_busy_s: list = field(default_factory=list)
    #: per-node answered sub-request counts (index = node id)
    node_answered: list = field(default_factory=list)

    @property
    def bottleneck_busy_s(self) -> float:
        """Device-busy seconds of the most loaded node."""
        return max(self.node_busy_s, default=0.0)

    @property
    def capacity_rps(self) -> float:
        """Executed cluster requests per bottleneck-busy second.

        The cluster's throughput ceiling: how many requests it could
        answer per second with its most loaded replica at 100%
        utilisation.  Cache-only answers consume no device time and are
        excluded, mirroring the single-node definition.
        """
        busy = self.bottleneck_busy_s
        if busy <= 0:
            return 0.0
        return (self.answered - self.cache_served) / busy


@dataclass
class _SubRef:
    """One dispatched sub-query: where it went and what slice it holds."""

    node_id: int
    node_rid: int


@dataclass
class _Partition:
    """Routing record of one partition of one cluster request."""

    index: int
    start: int
    end: int
    refs: list = field(default_factory=list)
    failovers: int = 0
    extra_delay_s: float = 0.0

    @property
    def size(self) -> int:
        return self.end - self.start


class ClusterRouter:
    """N replicated ``TopKService`` nodes behind one routing front-end."""

    def __init__(self, config: ClusterConfig | None = None) -> None:
        self.config = config or ClusterConfig()
        cfg = self.config
        self.nodes: list[ClusterNode] = build_nodes(
            cfg.nodes, cfg.node_config, cfg.faults
        )
        self.placement = make_placement(
            cfg.placement,
            nodes=cfg.nodes,
            replication=cfg.replication,
            seed=cfg.seed,
        )
        self.injector = cfg.faults.injector() if cfg.faults is not None else None
        #: straggler-partition hedging, same default policy as the sharder's
        self.hedge = HedgePolicy()
        #: cluster-level windowed telemetry (per-node telemetry lives on
        #: each node's own service)
        self.telemetry = ServeTelemetry(window_s=cfg.window_s, trace=False)
        self.stats = ClusterStats(
            nodes=cfg.nodes, latency_hist=self.telemetry.latency_hist
        )
        self.ledger = ServeLedger(self.stats, self.telemetry, cfg.latency_sample_cap)
        self.outcomes: list[Outcome] = []
        #: per request: its partitions, or the failed outcome of a
        #: malformed request that was never routed
        self._routes: list[tuple[Request, list[_Partition], Outcome | None]] = []
        self._ran = False

    # -- phase 1: routing ------------------------------------------------ #
    def _node_down(self, kind: str, node_id: int, t_s: float) -> bool:
        """Consult the ``cluster.node`` seam for one dispatch attempt."""
        if self.injector is None:
            return False
        epoch = int(t_s / self.config.fault_epoch_s)
        event = self.injector.decide(
            kind, "cluster.node", f"node={node_id}", f"attempt=epoch:{epoch}"
        )
        if event is not None:
            self.ledger.record(t_s, "faults", kind=kind)
            return True
        return False

    def _partition_count(self, request: Request) -> int:
        cfg = self.config
        if request.min_recall is not None:
            # approximate-tier requests are never partitioned: stacking
            # the partition-loss model on the sampling-loss model would
            # invalidate both recall contracts (same rule as the
            # single-node sharder's never-sharded approx plans)
            return 1
        if request.n < cfg.partition_min_n:
            return 1
        parts = cfg.partitions if cfg.partitions is not None else cfg.nodes
        return max(1, min(parts, request.n))

    def _route(self, request: Request) -> list[_Partition]:
        cfg = self.config
        count = self._partition_count(request)
        bounds = shard_bounds(request.n, count) if count > 1 else [(0, request.n)]
        key = payload_key(request.data)
        parts: list[_Partition] = []
        for p, (start, end) in enumerate(bounds):
            part = _Partition(index=p, start=start, end=end)
            data = request.data[start:end] if count > 1 else request.data
            # node caches key the sub-query by the placement hash: a slice
            # is named by its whole payload, so it is never hashed again
            content = (key, start, end) if count > 1 else key
            k_p = min(request.k, end - start)
            replicas = self.placement.replica_set(key, p)
            for node_id in replicas:
                if len(part.refs) == cfg.dispatch_replicas:
                    break
                arrival = (
                    request.arrival_s + NET_HOP_S + part.extra_delay_s
                )
                if self._node_down("node_crash", node_id, request.arrival_s):
                    part.failovers += 1
                    part.extra_delay_s += FAILOVER_DETECT_S
                    continue
                if self._node_down("node_partition", node_id, request.arrival_s):
                    # the partitioned node does the work; the reply is lost
                    self.nodes[node_id].dispatch(
                        data,
                        k_p,
                        request.largest,
                        arrival,
                        deadline_s=request.deadline_s,
                        slo=request.slo if count == 1 else None,
                        orphan=True,
                        content_key=content,
                    )
                    self.stats.wasted_dispatches += 1
                    part.failovers += 1
                    part.extra_delay_s += FAILOVER_DETECT_S
                    continue
                rid = self.nodes[node_id].dispatch(
                    data,
                    k_p,
                    request.largest,
                    arrival,
                    deadline_s=request.deadline_s,
                    slo=request.slo if count == 1 else None,
                    content_key=content,
                )
                part.refs.append(_SubRef(node_id=node_id, node_rid=rid))
                self.placement.record(node_id, float(end - start))
            self.ledger.record(
                request.arrival_s, "retries", part.failovers, stat="failovers"
            )
            parts.append(part)
        return parts

    # -- phase 3: merging ------------------------------------------------ #
    def _terminal_failure(
        self, request: Request, parts: list[_Partition], sub_statuses: list[str]
    ) -> Outcome:
        """No quorum: exactly one terminal verdict, never a silent drop."""
        if "timeout" in sub_statuses:
            status = "timeout"
        elif sub_statuses and all(s == "shed" for s in sub_statuses):
            status = "shed"
        else:
            status = "failed"
        delay = max((p.extra_delay_s for p in parts), default=0.0)
        finish = request.arrival_s + delay + 2 * NET_HOP_S
        lost = sum(1 for p in parts if not p.refs)
        return Outcome(
            rid=request.rid,
            status=status,
            finish_s=finish,
            arrival_s=request.arrival_s,
            error=(
                f"quorum not met: {lost}/{len(parts)} partitions had no "
                f"reachable replica, sub-statuses {sorted(set(sub_statuses))}"
            ),
        )

    def _merge_request(self, request: Request, parts: list[_Partition]) -> Outcome:
        """Collect one request's replies and answer it: the single reply
        of a whole-routed request, or the quorum merge of its partitions."""
        arrival = request.arrival_s
        candidates: list[tuple[_Partition, Outcome]] = []
        sub_statuses: list[str] = []
        for part in parts:
            replies = [
                self.nodes[ref.node_id].outcomes[ref.node_rid]
                for ref in part.refs
            ]
            ok = [o for o in replies if o.ok]
            if ok:
                winner = min(ok, key=lambda o: o.finish_s)
                # replica-fan-out losers executed for nothing
                self.stats.wasted_dispatches += len(ok) - 1
                candidates.append((part, winner))
            else:
                sub_statuses.extend(o.status for o in replies)
                self.stats.lost_partitions += 1
        need = max(1, len(parts) - self.config.quorum_f)
        if len(candidates) < need:
            return self._terminal_failure(request, parts, sub_statuses)
        if len(parts) == 1:
            # whole-routed: the node's answer, one network hop later
            _, reply = candidates[0]
            finish = reply.finish_s + NET_HOP_S
            return replace(
                reply,
                rid=request.rid,
                finish_s=finish,
                arrival_s=arrival,
                latency_s=finish - arrival,
            )
        return self._fold(request, parts, self._quorum(arrival, candidates, need))

    def _quorum(self, arrival: float, candidates: list, need: int) -> list:
        """The ``(partition, reply, effective duration)`` triples that
        make the merge, after hedging stragglers and the quorum cut.

        A partition slower than the HedgePolicy threshold of its siblings
        races a clean duplicate dispatched at the threshold, whose cost
        estimate is the sibling quantile itself (threshold / factor) —
        a no-op on healthy runs.  With ``quorum_f > 0``, every reply in
        by the time the ``need``-th partition replied makes the merge;
        later replies are dropped and charged against recall.
        """
        cfg = self.config
        durations = [o.finish_s - arrival for _, o in candidates]
        effective = list(durations)
        if self.injector is not None:
            threshold = self.hedge.threshold(durations)
            for i, d in enumerate(durations):
                if d > threshold:
                    hedged = min(d, threshold + threshold / self.hedge.factor)
                    if hedged < d:
                        self.ledger.record(arrival + threshold, "hedges", stat="hedges")
                        effective[i] = hedged
        merged = [(part, o, eff) for (part, o), eff in zip(candidates, effective)]
        if cfg.quorum_f > 0 and len(candidates) > need:
            t_quorum = sorted(effective)[need - 1]
            merged = [m for m in merged if m[2] <= t_quorum]
            self.stats.dropped_partitions += len(candidates) - len(merged)
        return merged

    def _fold(self, request: Request, parts: list[_Partition], merged: list) -> Outcome:
        """Fold the merged partitions' replies into one answer, degraded
        with a composed recall bound when partitions or shards were lost."""
        arrival = request.arrival_s
        partials = [
            (o.values[None, :], o.indices[None, :] + part.start)
            for part, o, _ in merged
        ]
        values, indices, levels = hierarchical_merge(
            partials, request.k, largest=request.largest
        )
        n_candidates = sum(p[0].shape[1] for p in partials)
        merge_s = NET_HOP_S + levels * n_candidates * MERGE_PER_CANDIDATE_S
        finish = arrival + max(eff for _, _, eff in merged) + merge_s

        merged_parts = {part.index for part, _, _ in merged}
        n_lost = sum(p.size for p in parts if p.index not in merged_parts)
        sub_degraded = any(o.status == "degraded" for _, o, _ in merged)
        exact = n_lost == 0 and all(o.exact for _, o, _ in merged)

        bound = None
        if n_lost > 0:
            _, bound = recall_bound(request.k, request.n, n_lost)
        sub_bounds = [
            o.recall_bound for _, o, _ in merged if o.recall_bound is not None
        ]
        if sub_bounds:
            # conservative composition: independent loss stages multiply
            combined = bound if bound is not None else 1.0
            for b in sub_bounds:
                combined *= b
            bound = combined

        return Outcome(
            rid=request.rid,
            status="degraded" if n_lost > 0 or sub_degraded else "served",
            finish_s=finish,
            arrival_s=arrival,
            latency_s=finish - arrival,
            batch_size=max(o.batch_size for _, o, _ in merged),
            algo=f"cluster:{merged[0][1].algo}",
            cache_hit=all(o.cache_hit for _, o, _ in merged),
            values=values[0],
            indices=indices[0],
            recall_bound=bound,
            exact=exact,
        )

    # -- public API ------------------------------------------------------ #
    def run(self, requests: list[Request]) -> ClusterStats:
        """Serve a full virtual-time trace across the cluster.

        Every request gets exactly one terminal :class:`Outcome`
        (collected in :attr:`outcomes`, submission order), mirroring the
        single-node service contract, and is booked through the same
        :class:`~repro.obs.serve.ServeLedger` rules as a node's.

        A router serves one trace: its nodes keep every sub-query they
        were dispatched, so a second call raises ``RuntimeError``.
        """
        if self._ran:
            raise RuntimeError(
                "ClusterRouter.run serves one trace; build a new "
                "ClusterRouter to serve another"
            )
        self._ran = True
        ordered = sorted(requests, key=lambda r: (r.arrival_s, r.rid))
        self._routes = []
        for request in ordered:
            rejected = admission_failure(request)
            parts = self._route(request) if rejected is None else []
            self._routes.append((request, parts, rejected))
        fanout(
            lambda node: node.run(), self.nodes, workers=self.config.workers
        )
        stats = self.stats
        for request, parts, rejected in self._routes:
            outcome = rejected or self._merge_request(request, parts)
            self.ledger.finish(outcome, request.min_recall)
            if outcome.ok and outcome.cache_hit:
                stats.cache_served += 1
            self.outcomes.append(outcome)
        for node in self.nodes:
            self.ledger.absorb(node.stats)
            stats.node_busy_s.append(node.stats.busy_s)
            stats.node_answered.append(node.stats.answered)
        if self.injector is not None:
            self.ledger.absorb_faults(self.injector.fault_counts())
        return stats

    def node_reports(self) -> list[dict]:
        """Per-node ``repro.obs.serve_report/v1`` payloads (node order)."""
        from ..obs.serve import build_serve_report

        return [
            build_serve_report(
                node.telemetry,
                node.stats,
                config={"node": node.node_id, "role": "cluster-replica"},
            )
            for node in self.nodes
        ]

    def cluster_report(self, config: dict | None = None) -> dict:
        """The cluster-level ``repro.obs.serve_report/v1`` payload."""
        from ..obs.serve import build_serve_report

        echo = {"nodes": self.config.nodes, "placement": self.config.placement}
        echo.update(config or {})
        return build_serve_report(self.telemetry, self.stats, config=echo)
