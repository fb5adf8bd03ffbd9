"""The benchmark's four workloads.

Each workload builds its inputs from a seed (through ``repro.datagen`` and
``repro.serve.loadgen`` only), then replays them through the public API as
one *round*.  A round returns every answer for the oracle, the
simulated-clock figures, and the layer facts the trace ledger reports.
A round is deterministic: the same inputs give the same answers and the
same simulated numbers, which the harness checks on every round.

``scale`` shrinks a workload for tests: roster problem sizes are divided
by a power of two and serve traces are shortened.  The benchmark itself
always runs at ``scale=1``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import repro
from repro.cluster import ClusterConfig, ClusterRouter
from repro.datagen import generate
from repro.faults import FaultPlan
from repro.serve import LoadSpec, ServeConfig, TopKService, build_requests

#: roster problems: (n, k, batch, distribution)
ROSTER_SHAPES = (
    (1 << 12, 32, 100, "uniform"),
    (1 << 14, 8, 1, "uniform"),
    (1 << 16, 256, 8, "normal"),
    (1 << 18, 1024, 1, "adversarial"),
)

#: a copy of benchmarks/fault_plans/cluster.json, so later edits there
#: cannot silently change cluster-chaos
CLUSTER_PLAN = Path(__file__).with_name("cluster_chaos_plan.json")


@dataclass
class Answer:
    """One operation's outcome, as the oracle sees it."""

    data: np.ndarray
    k: int
    #: "ok" for a returned result; otherwise why there is none
    status: str
    values: np.ndarray | None = None
    indices: np.ndarray | None = None
    exact: bool = True
    recall_bound: float | None = None
    #: simulated seconds: the call's device time, or the request's latency
    sim_s: float | None = None


@dataclass
class Round:
    """Everything one replay of a workload produced."""

    #: operations attempted: facade calls (roster) or requests (serve)
    ops: int
    answers: list[Answer]
    #: simulated-clock figures; identical on every round of one seed
    sim: dict[str, float]
    #: layer facts for the trace ledger (counts and ratios)
    facts: dict[str, float] = field(default_factory=dict)


class Roster:
    """Closed loop, one client: every roster method on four problem shapes."""

    name = "roster"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        shrink = 1 << max(0, round(-math.log2(scale)))
        self.cells: list[tuple[str, np.ndarray, int]] = []
        for i, (n, k, batch, dist) in enumerate(ROSTER_SHAPES):
            n = max(n // shrink, 4 * k)
            batch = max(1, round(batch * scale))
            data = generate(dist, n, batch=batch, seed=seed * len(ROSTER_SHAPES) + i)
            if batch == 1:
                data = data[0]
            for algo in repro.algorithm_names():
                if repro.get_algorithm(algo).supports(n, k) is None:
                    self.cells.append((algo, data, k))

    def run(self) -> Round:
        answers, sim_s = [], []
        for algo, data, k in self.cells:
            try:
                result = repro.topk(data, k, algo=algo)
            except Exception as exc:  # noqa: BLE001 - a raised call is a failed op
                answers.append(Answer(data, k, f"{type(exc).__name__}: {exc}"))
                continue
            sim_s.append(result.time)
            answers.append(
                Answer(
                    data, k, "ok", result.values, result.indices,
                    result.exact, result.recall_bound, result.time,
                )
            )
        sim_ms = np.asarray(sim_s or [0.0]) * 1e3
        sim = {
            "sim_ms_p50": float(np.percentile(sim_ms, 50)),
            "sim_ms_p99": float(np.percentile(sim_ms, 99)),
            "sim_capacity_rps": len(sim_s) / sum(sim_s) if sim_s else 0.0,
        }
        return Round(ops=len(self.cells), answers=answers, sim=sim)


def _serve_answers(requests, outcomes) -> list[Answer]:
    answers = []
    for o in sorted(outcomes, key=lambda o: o.rid):
        request = requests[o.rid]
        status = "ok" if o.ok else o.status
        answers.append(
            Answer(
                request.data, request.k, status, o.values, o.indices,
                o.exact, o.recall_bound, o.latency_s,
            )
        )
    return answers


def _service_facts(services) -> dict[str, float]:
    """Batcher, cache and fault facts summed over one or more services."""
    facts = dict.fromkeys(
        (
            "busy_s", "makespan_s", "batches", "executed", "wait_s",
            "latency_exec_s", "result_hits", "result_misses",
            "result_evictions", "plan_hits", "plan_misses", "faults_fired",
            "retries", "hedges",
        ),
        0.0,
    )
    for svc in services:
        st = svc.stats
        facts["busy_s"] += st.busy_s
        facts["makespan_s"] = max(facts["makespan_s"], st.makespan_s)
        facts["batches"] += st.batches
        facts["executed"] += sum(st.occupancies)
        # executed requests wait from arrival to their batch's start:
        # total latency minus the device time each one rode through
        latency = sum(
            o.latency_s for o in svc.outcomes
            if o.latency_s is not None and not o.cache_hit
        )
        ridden = sum(b.duration_s * b.size for b in svc.batch_records)
        facts["latency_exec_s"] += latency
        facts["wait_s"] += max(0.0, latency - ridden)
        for key in ("result_hits", "result_misses", "result_evictions",
                    "plan_hits", "plan_misses"):
            facts[key] += st.cache.get(key, 0)
        facts["faults_fired"] += sum(st.faults.values())
        facts["retries"] += st.retries
        facts["hedges"] += st.hedges
    return facts


def _serve_sim(stats) -> dict[str, float]:
    p = stats.latency_percentiles((50.0, 99.0))
    return {
        "sim_ms_p50": (p[50.0] or 0.0) * 1e3,
        "sim_ms_p99": (p[99.0] or 0.0) * 1e3,
        "sim_capacity_rps": stats.capacity_rps,
        "served": stats.served,
        "degraded": stats.degraded,
        "shed": stats.shed,
        "timeout": stats.timeout,
        "failed": stats.failed,
        "approx_served": stats.approx_served,
    }


class ServeTrace:
    """Open loop in virtual time: a fresh single-node service per round."""

    def __init__(self, spec: LoadSpec, scale: float = 1.0) -> None:
        spec.duration_s *= scale
        self.requests = build_requests(spec)

    def run(self) -> Round:
        service = TopKService(ServeConfig(workers=1))
        stats = service.run(self.requests)
        return Round(
            ops=len(self.requests),
            answers=_serve_answers(self.requests, service.outcomes),
            sim=_serve_sim(stats),
            facts=_service_facts([service]),
        )


class ServeFresh(ServeTrace):
    """Unique payloads: every request misses the result cache and inserts."""

    name = "serve-fresh"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(
            LoadSpec(
                qps=4000.0, duration_s=1.0, n=4096, k=32, payload_pool=1 << 22,
                min_recall=0.9, approx_fraction=0.25, seed=seed,
            ),
            scale,
        )


class ServeHot(ServeTrace):
    """64 hot payloads: almost every request is a result-cache hit."""

    name = "serve-hot"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        super().__init__(
            LoadSpec(
                qps=2000.0, duration_s=1.0, n=1 << 16, k=64, payload_pool=64,
                seed=seed,
            ),
            scale,
        )


class ClusterChaos:
    """A fresh 4-node cluster per round under the pinned fault plan."""

    name = "cluster-chaos"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        # two virtual seconds span eight fault epochs of the plan; node
        # partitions first fire after the fourth
        self.requests = build_requests(
            LoadSpec(
                qps=150.0, duration_s=2.0 * scale, n=1 << 16, k=256,
                payload_pool=1 << 22, seed=seed,
            )
        )
        self.plan = FaultPlan.load(CLUSTER_PLAN)

    def run(self) -> Round:
        router = ClusterRouter(
            ClusterConfig(
                nodes=4,
                # three replicas: the pinned plan crashes one node for good
                # and partitions others now and then, and every request must
                # still find a live replica
                replication=3,
                placement="consistent-hash",
                partitions=4,
                workers=1,
                faults=self.plan,
                node_config=ServeConfig(shards=2, shard_min_n=1 << 14, workers=1),
            )
        )
        stats = router.run(self.requests)
        facts = _service_facts([node.service for node in router.nodes])
        busy = stats.node_busy_s
        facts.update(
            failovers=stats.failovers,
            wasted_dispatches=stats.wasted_dispatches,
            dispatches=sum(len(node.requests) for node in router.nodes),
            node_busy_imbalance=max(busy) / (sum(busy) / len(busy)) if sum(busy) else 0.0,
            lost_partitions=stats.lost_partitions,
            faults_fired=sum(stats.faults.values()),
            hedges=stats.hedges,
            retries=stats.retries,
        )
        sim = _serve_sim(stats)
        sim.update(failovers=stats.failovers, lost_partitions=stats.lost_partitions)
        return Round(
            ops=len(self.requests),
            answers=_serve_answers(self.requests, router.outcomes),
            sim=sim,
            facts=facts,
        )


WORKLOADS = {w.name: w for w in (Roster, ServeFresh, ServeHot, ClusterChaos)}
