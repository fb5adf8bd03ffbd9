"""Deterministic fault injection and the recovery policies it exercises.

The serving/execution stack assumes every shard, worker and cache access
succeeds; this package is how that assumption is tested and removed (see
docs/faults.md).  Three coordinated pieces:

* :mod:`.plan` — :class:`FaultPlan` / :class:`FaultRule`: a seeded,
  JSON-round-trippable description of *what* fails *where* at *what
  rate* (``repro.faults.plan/v1`` schema, loaded by
  ``repro-topk serve-bench --faults``);
* :mod:`.injector` — :class:`FaultInjector`: evaluates a plan with pure
  hash-based draws, so decisions are identical across threads, process
  pools and re-runs;
* :mod:`.policies` — the recovery side: capped-exponential
  :class:`RetryPolicy`, straggler :class:`HedgePolicy`,
  :class:`CircuitBreaker` for the result cache, and the
  :func:`recall_bound` contract degraded shard merges report.

The seams that consult the injector live in :mod:`repro.serve.sharder`,
:mod:`repro.serve.service`, :mod:`repro.serve.cache` and — for the
``node_crash``/``node_partition`` kinds — the :mod:`repro.cluster` router; with no plan installed every
seam is a strict no-op and behaviour is byte-identical to the fault-free
stack (pinned by tests/test_faults.py and tests/test_cluster_chaos.py).
"""

from .injector import FaultEvent, FaultInjector, fault_draw
from .plan import (
    FAULT_KINDS,
    FAULT_PLAN_SCHEMA,
    FAULT_SITES,
    NODE_FAULT_KINDS,
    SERVE_FAULT_KINDS,
    FaultPlan,
    FaultRule,
    validate_fault_plan,
)
from .policies import (
    CircuitBreaker,
    HedgePolicy,
    RetryPolicy,
    recall_bound,
)

__all__ = [
    "FAULT_KINDS",
    "FAULT_PLAN_SCHEMA",
    "FAULT_SITES",
    "NODE_FAULT_KINDS",
    "SERVE_FAULT_KINDS",
    "CircuitBreaker",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "HedgePolicy",
    "RetryPolicy",
    "fault_draw",
    "recall_bound",
    "validate_fault_plan",
]
