"""Cluster bench: node-count scaling sweep plus the chaos acceptance cell.

Two measurements into one gated snapshot body:

* **Sweep** — the same 200 QPS request trace served by clusters of
  1, 2, 4... nodes.  The headline is ``capacity_rps`` — executed
  requests per second of *bottleneck-node* busy time, the cluster's
  throughput ceiling — and ``speedup`` against the single-node cell.
  The acceptance gate requires near-linear scaling:
  >= :data:`ACCEPT_SPEEDUP` x at :data:`ACCEPT_NODES` nodes, judged on
  the full acceptance load only (the ``tiny`` smoke load is launch-bound).
* **Chaos** — the pinned cluster fault plan
  (``benchmarks/fault_plans/cluster.json``: one sticky ``node_crash``
  replica plus transient ``node_partition`` churn and node-level
  stragglers) against a 4-node R=2 cluster at 200 QPS.  The gate
  requires >= :data:`ACCEPT_AVAILABILITY` availability with at least
  one actually-crashed replica (so the assertion can never pass
  vacuously).

Both cells run entirely in virtual time on the simulated device, so a
snapshot is a pure function of (seed, config) — re-runs are
byte-identical and the gates (:data:`GATES`, evaluated by
:mod:`repro.bench.gates`) are deterministic, not flaky.  CI runs this
via ``repro-topk cluster-bench`` — see docs/cluster.md.
"""

from __future__ import annotations

import logging
from typing import TYPE_CHECKING

from ..faults import FaultPlan, FaultRule, fault_draw
from .gates import Gate, make_snapshot
from .report import format_table, format_time

if TYPE_CHECKING:  # real imports are lazy: cluster -> serve -> bench cycle
    from ..cluster import ClusterRouter
    from ..serve import LoadSpec, ServeConfig

logger = logging.getLogger(__name__)

#: acceptance gate: the sweep's ACCEPT_NODES-node cell must reach this
#: capacity multiple of the single-node cell
ACCEPT_NODES = 4
ACCEPT_SPEEDUP = 3.0
#: chaos gate: answered fraction under the pinned fault plan
ACCEPT_AVAILABILITY = 0.99

#: node counts the sweep visits
DEFAULT_NODE_COUNTS = (1, 2, 4)

#: replicas per data partition and the replica placement policy of
#: every cluster the bench builds
REPLICATION = 2
PLACEMENT = "least-loaded"

#: the pinned chaos scenario, mirrored on disk at
#: benchmarks/fault_plans/cluster.json (tests assert they stay in sync).
#: Under seed 3 the sticky node_crash rule takes down exactly node 0 of
#: a 4-node cluster — one crashed replica, per the acceptance wording.
DEFAULT_CHAOS_PLAN = FaultPlan(
    seed=3,
    rules=(
        FaultRule(kind="node_crash", rate=0.3, site="cluster.node", sticky=True),
        FaultRule(kind="node_partition", rate=0.05, site="cluster.node"),
        FaultRule(kind="straggler", rate=0.05, site="serve.shard", factor=4.0),
    ),
)


def sweep_spec(*, seed: int = 0, tiny: bool = False) -> LoadSpec:
    """The pinned scaling workload (200 QPS acceptance load).

    n = 2^22 puts the per-request device time well past the launch
    overheads, so partitioning has real linear work to divide; the
    bounded payload pool keeps host wall-clock down (repeats come from
    node result caches, which the capacity metric excludes on both
    sides of the comparison).
    """
    from ..serve import LoadSpec

    if tiny:
        return LoadSpec(
            qps=200.0, duration_s=0.25, n=1 << 16, k=64,
            payload_pool=16, seed=seed,
        )
    return LoadSpec(
        qps=200.0, duration_s=1.0, n=1 << 22, k=256,
        payload_pool=32, seed=seed,
    )


def chaos_spec(*, seed: int = 0, tiny: bool = False) -> LoadSpec:
    """The chaos-cell workload: availability, not throughput, so the
    payloads stay small and the request count high."""
    from ..serve import LoadSpec

    return LoadSpec(
        qps=200.0,
        duration_s=0.25 if tiny else 1.0,
        n=1 << 15,
        k=32,
        payload_pool=24,
        seed=seed,
    )


def node_template(*, gpu: str | None = None, seed: int = 0) -> ServeConfig:
    """The per-node service config both cells use."""
    from ..serve import ServeConfig

    return ServeConfig(
        algo="auto",
        device=gpu,
        max_batch=64,
        max_delay_s=0.15,
        seed=seed,
    )


BODY_SCHEMA = {
    "type": "object",
    "required": ["tiny", "spec", "sweep", "chaos"],
    "properties": {
        "tiny": {"type": "boolean"},
        "spec": {
            "type": "object",
            "required": ["qps", "duration_s", "n", "k", "payload_pool"],
            "properties": {
                "qps": {"type": "number"},
                "duration_s": {"type": "number"},
                "n": {"type": "integer"},
                "k": {"type": "integer"},
                "payload_pool": {"type": "integer"},
            },
        },
        "sweep": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "nodes", "requests", "served", "degraded", "shed",
                    "timeout", "failed", "availability", "capacity_rps",
                    "speedup", "latency_p50_s", "latency_p99_s",
                    "bottleneck_busy_s", "node_busy_s", "batches",
                    "mean_occupancy", "failovers",
                ],
                "properties": {
                    "nodes": {"type": "integer"},
                    "requests": {"type": "integer"},
                    "served": {"type": "integer"},
                    "degraded": {"type": "integer"},
                    "shed": {"type": "integer"},
                    "timeout": {"type": "integer"},
                    "failed": {"type": "integer"},
                    "availability": {"type": "number"},
                    "capacity_rps": {"type": "number"},
                    "speedup": {"type": "number"},
                    "latency_p50_s": {"type": ["number", "null"]},
                    "latency_p99_s": {"type": ["number", "null"]},
                    "bottleneck_busy_s": {"type": "number"},
                    "node_busy_s": {"type": "array"},
                    "batches": {"type": "integer"},
                    "mean_occupancy": {"type": "number"},
                    "failovers": {"type": "integer"},
                },
            },
        },
        "chaos": {
            "type": "object",
            "required": [
                "nodes", "replication", "plan_seed", "crashed_nodes",
                "requests", "availability", "served", "degraded", "failed",
                "timeout", "shed", "failovers", "lost_partitions",
                "wasted_dispatches", "faults", "capacity_rps",
            ],
            "properties": {
                "nodes": {"type": "integer"},
                "replication": {"type": "integer"},
                "plan_seed": {"type": "integer"},
                "crashed_nodes": {"type": "array"},
                "requests": {"type": "integer"},
                "availability": {"type": "number"},
                "served": {"type": "integer"},
                "degraded": {"type": "integer"},
                "failed": {"type": "integer"},
                "timeout": {"type": "integer"},
                "shed": {"type": "integer"},
                "failovers": {"type": "integer"},
                "lost_partitions": {"type": "integer"},
                "wasted_dispatches": {"type": "integer"},
                "faults": {"type": "object"},
                "capacity_rps": {"type": "number"},
            },
        },
    },
}


def crashed_nodes(plan: FaultPlan, nodes: int) -> list[int]:
    """Nodes a plan's *sticky* ``node_crash`` rules keep down for the
    whole run (the epoch key is stripped, so one pure draw per node)."""
    down = []
    for node in range(nodes):
        for rule in plan.rules:
            if rule.kind != "node_crash" or not rule.sticky:
                continue
            if not rule.matches("cluster.node") or rule.rate <= 0.0:
                continue
            draw = fault_draw(
                plan.seed, "node_crash", "cluster.node", f"node={node}"
            )
            if draw < rule.rate:
                down.append(node)
                break
    return down


def measure_point(
    nodes: int,
    requests: list,
    *,
    template: ServeConfig | None = None,
    seed: int = 0,
) -> tuple[dict, ClusterRouter]:
    """Serve one trace on an N-node cluster; returns (cell, router)."""
    from ..cluster import ClusterConfig, ClusterRouter

    router = ClusterRouter(
        ClusterConfig(
            nodes=nodes,
            replication=min(REPLICATION, nodes),
            placement=PLACEMENT,
            node_config=template or node_template(seed=seed),
            seed=seed,
        )
    )
    stats = router.run(requests)
    pcts = stats.latency_percentiles((50.0, 99.0))
    cell = {
        "nodes": nodes,
        "requests": stats.total,
        "served": stats.served,
        "degraded": stats.degraded,
        "shed": stats.shed,
        "timeout": stats.timeout,
        "failed": stats.failed,
        "availability": stats.availability,
        "capacity_rps": stats.capacity_rps,
        "speedup": 1.0,  # filled against the 1-node cell by the caller
        "latency_p50_s": pcts[50.0],
        "latency_p99_s": pcts[99.0],
        "bottleneck_busy_s": stats.bottleneck_busy_s,
        "node_busy_s": [float(b) for b in stats.node_busy_s],
        "batches": stats.batches,
        "mean_occupancy": stats.mean_occupancy,
        "failovers": stats.failovers,
    }
    return cell, router


def measure_chaos(
    *,
    plan: FaultPlan,
    nodes: int = 4,
    gpu: str | None = None,
    seed: int = 0,
    tiny: bool = False,
) -> dict:
    """The availability cell: the pinned plan against an R-replicated
    cluster at the 200 QPS acceptance load."""
    from ..cluster import ClusterConfig, ClusterRouter
    from ..serve import build_requests

    requests = build_requests(chaos_spec(seed=seed, tiny=tiny))
    router = ClusterRouter(
        ClusterConfig(
            nodes=nodes,
            replication=REPLICATION,
            placement=PLACEMENT,
            partition_min_n=1 << 14,
            node_config=node_template(gpu=gpu, seed=seed),
            faults=plan,
            seed=seed,
        )
    )
    stats = router.run(requests)
    return {
        "nodes": nodes,
        "replication": REPLICATION,
        "plan_seed": plan.seed,
        "crashed_nodes": crashed_nodes(plan, nodes),
        "requests": stats.total,
        "availability": stats.availability,
        "served": stats.served,
        "degraded": stats.degraded,
        "failed": stats.failed,
        "timeout": stats.timeout,
        "shed": stats.shed,
        "failovers": stats.failovers,
        "lost_partitions": stats.lost_partitions,
        "wasted_dispatches": stats.wasted_dispatches,
        "faults": dict(stats.faults),
        "capacity_rps": stats.capacity_rps,
    }


def collect_snapshot(
    *,
    tiny: bool = False,
    gpu: str = "A100",
    seed: int = 0,
    chaos_plan: FaultPlan = DEFAULT_CHAOS_PLAN,
    rev: str | None = None,
) -> dict:
    """Measure the scaling sweep and the chaos cell into a gated snapshot."""
    from ..serve import build_requests

    logger.info(
        "cluster-bench: nodes %s, R=%d, placement %s + chaos cell",
        ",".join(str(n) for n in DEFAULT_NODE_COUNTS),
        REPLICATION,
        PLACEMENT,
    )
    spec = sweep_spec(seed=seed, tiny=tiny)
    requests = build_requests(spec)
    template = node_template(gpu=gpu, seed=seed)
    sweep = []
    for nodes in DEFAULT_NODE_COUNTS:
        cell, _router = measure_point(
            nodes, requests, template=template, seed=seed
        )
        base_capacity = sweep[0]["capacity_rps"] if sweep else cell["capacity_rps"]
        cell["speedup"] = (
            cell["capacity_rps"] / base_capacity if base_capacity else 0.0
        )
        sweep.append(cell)
        logger.info(
            "%d node(s): capacity %.0f rps (%.2fx), availability %.4f",
            nodes, cell["capacity_rps"], cell["speedup"], cell["availability"],
        )
    body = {
        "tiny": tiny,
        "spec": {
            "qps": spec.qps,
            "duration_s": spec.duration_s,
            "n": spec.n,
            "k": spec.k,
            "payload_pool": spec.payload_pool,
        },
        "sweep": sweep,
        "chaos": measure_chaos(plan=chaos_plan, gpu=gpu, seed=seed, tiny=tiny),
    }
    return make_snapshot("cluster", body, gpu=gpu, seed=seed, rev=rev)


def _scaling_speedup(body: dict) -> float | None:
    """The ACCEPT_NODES-node cell's capacity multiple of one node; the
    tiny smoke load is launch-bound, so only the full acceptance load is
    held to the scaling floor."""
    if body["tiny"]:
        return None
    (cell,) = (c for c in body["sweep"] if c["nodes"] == ACCEPT_NODES)
    return cell["speedup"]


#: the cluster bench's gates: near-linear scaling on a healthy cluster,
#: and availability under the chaos plan with a replica really down
GATES = (
    Gate(f"{ACCEPT_NODES}-node capacity speedup", ACCEPT_SPEEDUP, "max",
         _scaling_speedup),
    Gate("healthy sweep availability", 1.0, "max",
         lambda body: min(c["availability"] for c in body["sweep"])),
    Gate("chaos crashed replicas", 1, "max",
         lambda body: len(body["chaos"]["crashed_nodes"])),
    Gate("chaos availability", ACCEPT_AVAILABILITY, "max",
         lambda body: body["chaos"]["availability"]),
)


def render_table(body: dict) -> str:
    """The scaling table ``repro-topk cluster-bench`` prints."""
    spec = body["spec"]
    out = [
        f"{spec['qps']:g} QPS x {spec['duration_s']:g}s, n={spec['n']:,} "
        f"k={spec['k']}, R={REPLICATION} placement={PLACEMENT}"
        + (" (tiny smoke load)" if body["tiny"] else "")
    ]
    rows = [
        (
            str(c["nodes"]),
            str(c["requests"]),
            f"{c['availability']:.4f}",
            f"{c['capacity_rps']:,.0f}",
            f"{c['speedup']:.2f}x",
            format_time(c["latency_p50_s"]) if c["latency_p50_s"] else "-",
            format_time(c["latency_p99_s"]) if c["latency_p99_s"] else "-",
            f"{c['mean_occupancy']:.1f}",
            f"{c['bottleneck_busy_s'] * 1e3:.2f} ms",
        )
        for c in body["sweep"]
    ]
    out.append(
        format_table(
            ["nodes", "reqs", "avail", "capacity rps", "speedup",
             "p50", "p99", "occ", "bottleneck"],
            rows,
        )
    )
    chaos = body["chaos"]
    out.append(
        f"\nchaos: {chaos['nodes']} nodes R={chaos['replication']} "
        f"(plan seed {chaos['plan_seed']}, crashed "
        f"{chaos['crashed_nodes']}): availability "
        f"{chaos['availability']:.4f} over {chaos['requests']} requests "
        f"— served={chaos['served']} degraded={chaos['degraded']} "
        f"failed={chaos['failed']} timeout={chaos['timeout']}, "
        f"failovers={chaos['failovers']} "
        f"lost_partitions={chaos['lost_partitions']} "
        f"wasted={chaos['wasted_dispatches']}, faults={chaos['faults']}"
    )
    return "\n".join(out)
