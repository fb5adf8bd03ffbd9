"""Cluster bench: node-count scaling sweep plus the chaos acceptance cell.

Two measurements into one ``repro.bench.cluster/v1`` snapshot:

* **Sweep** — the same 200 QPS request trace served by clusters of
  1, 2, 4... nodes.  The headline is ``capacity_rps`` — executed
  requests per second of *bottleneck-node* busy time, the cluster's
  throughput ceiling — and ``speedup`` against the single-node cell.
  The acceptance gate requires near-linear scaling:
  >= :data:`ACCEPT_SPEEDUP` x at :data:`ACCEPT_NODES` nodes.
* **Chaos** — the pinned cluster fault plan
  (``benchmarks/fault_plans/cluster.json``: one sticky ``node_crash``
  replica plus transient ``node_partition`` churn and node-level
  stragglers) against a 4-node R=2 cluster at 200 QPS.  The gate
  requires >= :data:`ACCEPT_AVAILABILITY` availability with at least
  one actually-crashed replica (so the assertion can never pass
  vacuously).

Both cells run entirely in virtual time on the simulated device, so a
snapshot is a pure function of (seed, config) — re-runs are
byte-identical and the gates are deterministic, not flaky.  CI runs this
via ``repro-topk cluster-bench`` — see docs/cluster.md.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..faults import FaultPlan, FaultRule, fault_draw
from ..obs.manifest import git_revision
from ..obs.schema import validate
from .report import format_table, format_time

if TYPE_CHECKING:  # real imports are lazy: cluster -> serve -> bench cycle
    from ..cluster import ClusterRouter
    from ..serve import LoadSpec, ServeConfig

SCHEMA_ID = "repro.bench.cluster/v1"

#: acceptance gate: the sweep's ACCEPT_NODES-node cell must reach this
#: capacity multiple of the single-node cell
ACCEPT_NODES = 4
ACCEPT_SPEEDUP = 3.0
#: chaos gate: answered fraction under the pinned fault plan
ACCEPT_AVAILABILITY = 0.99

#: node counts the default sweep visits
DEFAULT_NODE_COUNTS = (1, 2, 4)

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


SNAPSHOT_SCHEMA = {
    "type": "object",
    "required": [
        "schema", "rev", "gpu", "seed", "spec", "cluster", "sweep", "chaos",
    ],
    "properties": {
        "schema": {"const": SCHEMA_ID},
        "rev": {"type": "string"},
        "gpu": {"type": "string"},
        "seed": {"type": "integer"},
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
        "cluster": {
            "type": "object",
            "required": ["replication", "placement", "partitions"],
            "properties": {
                "replication": {"type": "integer"},
                "placement": {"type": "string"},
                "partitions": {"type": ["integer", "null"]},
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
            "type": ["object", "null"],
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
    replication: int = 2,
    placement: str = "least-loaded",
    partitions: int | None = None,
    template: ServeConfig | None = None,
    faults: FaultPlan | None = None,
    seed: int = 0,
    workers: int = 1,
) -> tuple[dict, ClusterRouter]:
    """Serve one trace on an N-node cluster; returns (cell, router)."""
    from ..cluster import ClusterConfig, ClusterRouter

    router = ClusterRouter(
        ClusterConfig(
            nodes=nodes,
            replication=min(replication, nodes),
            placement=placement,
            partitions=partitions,
            node_config=template or node_template(seed=seed),
            faults=faults,
            seed=seed,
            workers=workers,
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
    replication: int = 2,
    placement: str = "least-loaded",
    gpu: str | None = None,
    seed: int = 0,
    workers: int = 1,
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
            replication=replication,
            placement=placement,
            partition_min_n=1 << 14,
            node_config=node_template(gpu=gpu, seed=seed),
            faults=plan,
            seed=seed,
            workers=workers,
        )
    )
    stats = router.run(requests)
    return {
        "nodes": nodes,
        "replication": replication,
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
    node_counts: tuple[int, ...] = DEFAULT_NODE_COUNTS,
    replication: int = 2,
    placement: str = "least-loaded",
    partitions: int | None = None,
    gpu: str = "A100",
    seed: int = 0,
    workers: int = 1,
    chaos_plan: FaultPlan | None = DEFAULT_CHAOS_PLAN,
    tiny: bool = False,
    rev: str | None = None,
    progress=None,
) -> dict:
    """Measure the sweep (and optionally the chaos cell) into a
    validated ``repro.bench.cluster/v1`` payload."""
    from ..serve import build_requests

    spec = sweep_spec(seed=seed, tiny=tiny)
    requests = build_requests(spec)
    template = node_template(gpu=gpu, seed=seed)
    sweep = []
    base_capacity = None
    for nodes in node_counts:
        cell, _router = measure_point(
            nodes,
            requests,
            replication=replication,
            placement=placement,
            partitions=partitions,
            template=template,
            seed=seed,
            workers=workers,
        )
        if base_capacity is None:
            base_capacity = cell["capacity_rps"]
        cell["speedup"] = (
            cell["capacity_rps"] / base_capacity if base_capacity else 0.0
        )
        sweep.append(cell)
        if progress is not None:
            progress(cell)
    snapshot = {
        "schema": SCHEMA_ID,
        "rev": rev if rev is not None else git_revision(short=True) or "local",
        "gpu": gpu,
        "seed": int(seed),
        "spec": {
            "qps": spec.qps,
            "duration_s": spec.duration_s,
            "n": spec.n,
            "k": spec.k,
            "payload_pool": spec.payload_pool,
        },
        "cluster": {
            "replication": replication,
            "placement": placement,
            "partitions": partitions,
        },
        "sweep": sweep,
        "chaos": (
            measure_chaos(
                plan=chaos_plan,
                replication=replication,
                placement=placement,
                gpu=gpu,
                seed=seed,
                workers=workers,
                tiny=tiny,
            )
            if chaos_plan is not None
            else None
        ),
    }
    validate(snapshot, SNAPSHOT_SCHEMA)
    return snapshot


def gate_cluster(
    snapshot: dict,
    *,
    min_speedup: float = ACCEPT_SPEEDUP,
    at_nodes: int = ACCEPT_NODES,
    min_availability: float = ACCEPT_AVAILABILITY,
) -> list[str]:
    """Every gate violation in ``snapshot`` (empty list = gates pass).

    Two contracts: the ``at_nodes``-node sweep cell scales capacity by
    >= ``min_speedup`` over one node at full availability, and the chaos
    cell (when present) sustains >= ``min_availability`` with at least
    one genuinely crashed replica.
    """
    failures: list[str] = []
    cells = {cell["nodes"]: cell for cell in snapshot["sweep"]}
    if at_nodes in cells and 1 in cells:
        cell = cells[at_nodes]
        if cell["speedup"] < min_speedup:
            failures.append(
                f"sweep: {at_nodes}-node capacity is {cell['speedup']:.2f}x "
                f"the single node, need >= {min_speedup:g}x "
                f"({cell['capacity_rps']:,.0f} vs "
                f"{cells[1]['capacity_rps']:,.0f} rps)"
            )
        for c in snapshot["sweep"]:
            if c["availability"] < 1.0:
                failures.append(
                    f"sweep: {c['nodes']}-node cell lost requests on a "
                    f"healthy cluster (availability {c['availability']:.4f})"
                )
    elif at_nodes in cells or 1 in cells:
        failures.append(
            f"sweep: need both the 1-node and {at_nodes}-node cells to "
            f"gate scaling, got node counts {sorted(cells)}"
        )
    chaos = snapshot.get("chaos")
    if chaos is not None:
        if not chaos["crashed_nodes"]:
            failures.append(
                "chaos: the pinned plan crashed no replica — the "
                "availability assertion would be vacuous"
            )
        if chaos["availability"] < min_availability:
            failures.append(
                f"chaos: availability {chaos['availability']:.4f} below "
                f"the {min_availability:.0%} SLO with "
                f"{len(chaos['crashed_nodes'])} crashed replica(s)"
            )
    return failures


def render_cluster_report(snapshot: dict) -> str:
    """The scaling table ``repro-topk cluster-bench`` prints."""
    spec = snapshot["spec"]
    cluster = snapshot["cluster"]
    out = [
        f"cluster-bench on {snapshot['gpu']} (rev {snapshot['rev']}, "
        f"seed {snapshot['seed']}): {spec['qps']:g} QPS x "
        f"{spec['duration_s']:g}s, n={spec['n']:,} k={spec['k']}, "
        f"R={cluster['replication']} placement={cluster['placement']}"
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
        for c in snapshot["sweep"]
    ]
    out.append(
        format_table(
            ["nodes", "reqs", "avail", "capacity rps", "speedup",
             "p50", "p99", "occ", "bottleneck"],
            rows,
        )
    )
    chaos = snapshot.get("chaos")
    if chaos is not None:
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
