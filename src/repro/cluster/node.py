"""One cluster member: a :class:`~repro.serve.TopKService` replica.

A :class:`ClusterNode` wraps a full single-node serving stack — its own
micro-batcher, caches, sharded executor, fault seams and telemetry — and
adds the small amount of bookkeeping the router needs: node-local
request ids for dispatched sub-queries, the set of *orphan* dispatches
(work a partitioned node executes whose reply never reaches the router),
and a node-scoped derivation of the cluster fault plan.

Nodes are completely independent once their traces are built: no shared
mutable state, so the router can run them inline or across a thread pool
(``ClusterConfig.workers``) with byte-identical results.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..faults import FaultPlan
from ..faults.plan import NODE_FAULT_KINDS
from ..serve import Outcome, Request, ServeConfig, ServeStats, TopKService

#: seed stride between per-node fault plans (any odd prime works — it
#: only needs to give each node an independent pure-hash draw stream)
_NODE_SEED_STRIDE = 7919


def node_fault_plan(plan: FaultPlan | None, node_id: int) -> FaultPlan | None:
    """The node-scoped view of a cluster fault plan.

    The ``node_crash``/``node_partition`` kinds are *router* seams — a
    node cannot observe its own unreachability — so they are stripped
    here; every other rule is kept and re-seeded per node, so e.g.
    stragglers hit replicas independently rather than in lockstep.
    """
    if plan is None:
        return None
    rules = tuple(r for r in plan.rules if r.kind not in NODE_FAULT_KINDS)
    if not rules:
        return None
    return FaultPlan(
        seed=plan.seed + _NODE_SEED_STRIDE * (node_id + 1), rules=rules
    )


class ClusterNode:
    """One replica: a TopKService plus the router's dispatch ledger."""

    def __init__(self, node_id: int, config: ServeConfig) -> None:
        self.node_id = node_id
        self.config = config
        self.service = TopKService(config)
        self.requests: list[Request] = []
        #: node rids whose replies the router never sees (node_partition):
        #: the node pays the device time, the router fails over anyway
        self.orphans: set[int] = set()
        self.outcomes: dict[int, Outcome] = {}

    def dispatch(
        self,
        data: np.ndarray,
        k: int,
        largest: bool,
        arrival_s: float,
        *,
        deadline_s: float | None = None,
        slo: tuple | None = None,
        orphan: bool = False,
        content_key=None,
    ) -> int:
        """Enqueue one sub-query; returns its node-local rid.

        ``content_key`` is the router's identity of ``data``: the whole
        payload's ``payload_key``, with the slice bounds for a partition.
        The node's result cache keys the sub-query's entry by it instead
        of pinning a copy of the slice.
        """
        rid = len(self.requests)
        request = Request(
            rid=rid,
            data=data,
            k=k,
            largest=largest,
            arrival_s=arrival_s,
            deadline_s=deadline_s,
            slo=slo,
        )
        request._content_key = content_key
        self.requests.append(request)
        if orphan:
            self.orphans.add(rid)
        return rid

    def run(self) -> dict[int, Outcome]:
        """Serve every dispatched sub-query to completion."""
        self.service.run(self.requests)
        self.outcomes = {o.rid: o for o in self.service.outcomes}
        return self.outcomes

    @property
    def stats(self) -> ServeStats:
        return self.service.stats

    @property
    def telemetry(self):
        return self.service.telemetry


def build_nodes(
    count: int,
    template: ServeConfig | None,
    faults: FaultPlan | None,
) -> list[ClusterNode]:
    """``count`` independent replicas from one config template."""
    template = template or ServeConfig()
    return [
        ClusterNode(
            node_id=i,
            config=dataclasses.replace(template, faults=node_fault_plan(faults, i)),
        )
        for i in range(count)
    ]
