"""Simulated multi-node cluster serving (docs/cluster.md).

``repro.serve`` is one virtual node; this package replicates it:
N :class:`~repro.serve.TopKService` replicas behind a
:class:`ClusterRouter` with pluggable placement
(consistent-hash / least-loaded / locality-aware), R-way replicated
data partitions, quorum dispatch with hedged stragglers, and a
cross-node hierarchical (priority-key, index) merge — byte-identical to
a single-shot ``repro.topk()`` on a healthy cluster, recall-bounded
degraded answers under node loss (``node_crash`` / ``node_partition``
fault kinds, seeded through :mod:`repro.faults` so workers=1 ==
workers=N holds cluster-wide).

Pinned by tests/test_cluster.py (differential layer) and
tests/test_cluster_chaos.py (chaos properties); swept by
``repro-topk cluster-bench`` into gated ``repro.bench.gates/v1``
snapshots.
"""

from .node import ClusterNode, build_nodes, node_fault_plan
from .placement import (
    PLACEMENTS,
    ConsistentHashPlacement,
    LeastLoadedPlacement,
    LocalityAwarePlacement,
    PlacementPolicy,
    make_placement,
    payload_key,
)
from .router import (
    MERGE_PER_CANDIDATE_S,
    NET_HOP_S,
    ClusterConfig,
    ClusterRouter,
    ClusterStats,
)

__all__ = [
    "MERGE_PER_CANDIDATE_S",
    "NET_HOP_S",
    "PLACEMENTS",
    "ClusterConfig",
    "ClusterNode",
    "ClusterRouter",
    "ClusterStats",
    "ConsistentHashPlacement",
    "LeastLoadedPlacement",
    "LocalityAwarePlacement",
    "PlacementPolicy",
    "build_nodes",
    "make_placement",
    "node_fault_plan",
    "payload_key",
]
