"""Golden pins of the serving stack's observable outputs.

Each seeded single-node run pins its full ``serve_report/v1`` JSON plus a
SHA-256 of its exported virtual-time trace and of its ``serve.*``
metrics; a 4-node cluster run under the pinned cluster fault plan pins
its cluster and per-node reports.  The pins were generated once and are
compared byte for byte, so a refactor of the serve loop or the cluster
router cannot move a report, a span or a metric unnoticed.

Regenerate (only for an intended output change, and say why in the
change log) with::

    PYTHONPATH=src python tests/test_golden_serve.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro import obs
from repro.cluster import ClusterConfig, ClusterRouter
from repro.faults import FaultPlan, FaultRule
from repro.serve import LoadSpec, ServeConfig, TopKService, build_requests

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "data" / "golden_serve"
PLANS = ROOT / "benchmarks" / "fault_plans"

#: seeded single-node runs: name -> (load, service config knobs)
SERVE_RUNS = {
    "plain": (
        dict(qps=300.0, duration_s=0.5, payload_pool=48, seed=7),
        dict(max_batch=16, max_delay_s=0.005, window_s=0.1),
    ),
    "sharded_faults": (
        dict(qps=300.0, duration_s=1.0, payload_pool=256, seed=7, deadline_s=0.01),
        dict(
            max_batch=4, max_delay_s=0.005, window_s=0.1, shards=2,
            faults="reference.json",
        ),
    ),
    # every recovery seam fires: retries, hedges, degraded and failed
    # batches, timeouts, shedding and breaker trips
    "chaos": (
        dict(qps=300.0, duration_s=0.5, payload_pool=16, seed=7, deadline_s=0.003),
        dict(
            max_batch=8, max_delay_s=0.002, window_s=0.1, shards=4,
            queue_limit=2, breaker_cooldown_s=0.05, faults="chaos",
        ),
    ),
    "adaptive": (
        dict(qps=300.0, duration_s=0.5, payload_pool=48, seed=7),
        dict(max_batch=16, max_delay_s=0.005, window_s=0.1, adaptive=True),
    ),
    "quality": (
        dict(
            qps=300.0, duration_s=0.5, payload_pool=48, seed=7,
            min_recall=0.95, approx_fraction=0.5,
        ),
        dict(max_batch=16, max_delay_s=0.005, window_s=0.1),
    ),
}


#: the "chaos" run's plan: every single-node fault kind at a high rate
CHAOS_PLAN = FaultPlan(
    seed=5,
    rules=(
        FaultRule(kind="shard_failure", rate=0.3, site="serve.shard"),
        FaultRule(kind="straggler", rate=0.2, site="serve.shard", factor=8.0),
        FaultRule(kind="cache_corruption", rate=0.3, site="serve.cache"),
        FaultRule(kind="worker_crash", rate=0.3, site="serve.batch"),
        FaultRule(kind="timeout", rate=0.2, site="serve.batch", factor=3.0),
    ),
)


def _sha256(payload) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _report_text(report: dict) -> str:
    return json.dumps(report, indent=1) + "\n"


def serve_pins(name: str) -> dict:
    """Report text, trace digest and ``serve.*`` metrics digest of one run."""
    load, knobs = SERVE_RUNS[name]
    knobs = dict(knobs)
    if knobs.get("faults") == "chaos":
        knobs["faults"] = CHAOS_PLAN
    elif "faults" in knobs:
        knobs["faults"] = FaultPlan.load(PLANS / knobs["faults"])
    with obs.trace_session(), obs.metrics_session() as registry:
        service = TopKService(ServeConfig(**knobs))
        stats = service.run(build_requests(LoadSpec(**load)))
    payload = registry.to_payload()
    serve_metrics = {
        kind: [m for m in payload[kind] if m["name"].startswith("serve.")]
        for kind in ("counters", "gauges", "histograms")
    }
    report = obs.build_serve_report(service.telemetry, stats, config={"run": name})
    return {
        "report": _report_text(report),
        "trace_sha256": _sha256(obs.chrome_trace(service.telemetry.events)),
        "metrics_sha256": _sha256(serve_metrics),
    }


def cluster_pins() -> dict:
    """Cluster and node reports, and the router counters, of an
    exact-traffic 4-node run under the pinned cluster fault plan."""
    router = ClusterRouter(
        ClusterConfig(
            nodes=4,
            replication=3,
            dispatch_replicas=2,
            quorum_f=1,
            faults=FaultPlan.load(PLANS / "cluster.json"),
            node_config=ServeConfig(max_batch=16, max_delay_s=0.005),
        )
    )
    stats = router.run(
        build_requests(
            LoadSpec(qps=200.0, duration_s=2.0, n=1 << 15, k=32, payload_pool=24)
        )
    )
    counters = {
        name: getattr(stats, name)
        for name in (
            "failovers", "lost_partitions", "dropped_partitions",
            "wasted_dispatches", "cache_served", "node_busy_s", "node_answered",
        )
    }
    return {
        "cluster": _report_text(router.cluster_report()),
        "nodes": _report_text(router.node_reports()),
        "counters": _report_text(counters),
    }


def _digests_path() -> Path:
    return GOLDEN / "digests.json"


@pytest.mark.parametrize("name", sorted(SERVE_RUNS))
def test_serve_run_matches_golden(name):
    pins = serve_pins(name)
    digests = json.loads(_digests_path().read_text())[name]
    assert pins["report"] == (GOLDEN / f"{name}.report.json").read_text()
    assert pins["trace_sha256"] == digests["trace_sha256"]
    assert pins["metrics_sha256"] == digests["metrics_sha256"]


def test_cluster_run_matches_golden():
    pins = cluster_pins()
    assert pins["cluster"] == (GOLDEN / "cluster.report.json").read_text()
    assert pins["nodes"] == (GOLDEN / "cluster.nodes.json").read_text()
    assert pins["counters"] == (GOLDEN / "cluster.counters.json").read_text()


def regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name in sorted(SERVE_RUNS):
        pins = serve_pins(name)
        (GOLDEN / f"{name}.report.json").write_text(pins["report"])
        digests[name] = {
            "trace_sha256": pins["trace_sha256"],
            "metrics_sha256": pins["metrics_sha256"],
        }
    _digests_path().write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    pins = cluster_pins()
    (GOLDEN / "cluster.report.json").write_text(pins["cluster"])
    (GOLDEN / "cluster.nodes.json").write_text(pins["nodes"])
    (GOLDEN / "cluster.counters.json").write_text(pins["counters"])


if __name__ == "__main__":
    regenerate()
