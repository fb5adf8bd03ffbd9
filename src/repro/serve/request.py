"""Request and outcome records of the serving layer.

A :class:`Request` is one caller's top-k query with its virtual-time
arrival and deadline; an :class:`Outcome` is what the service reports
back — served with results and latency (full-fidelity or *degraded*, see
docs/faults.md), shed at admission, timed out, or failed — either after
the execution retries were exhausted or, for a malformed request, at
admission (:func:`admission_failure`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..algos.base import KEY_DTYPES
from ..errors import InputError, check_problem

#: every status an Outcome can carry.  "served" is full fidelity;
#: "degraded" carries results that satisfy only the reported
#: ``recall_bound`` (a shard was irrecoverably lost); "failed" means
#: execution kept crashing past the retry budget — the terminal verdict
#: the caller can retry against, never a silent drop.
OUTCOMES = ("served", "degraded", "shed", "timeout", "failed")


@dataclass
class Request:
    """One top-k query in flight."""

    #: monotonically increasing request id (submission order)
    rid: int
    #: the query payload, shape (n,)
    data: np.ndarray
    #: results wanted
    k: int
    #: direction flag
    largest: bool
    #: virtual arrival time, seconds
    arrival_s: float
    #: absolute virtual deadline, or None for no deadline
    deadline_s: float | None = None
    #: optional quality SLO as ``(deadline_s, min_recall)`` — a *relative*
    #: latency budget (applied on admission when ``deadline_s`` is unset)
    #: and the minimum recall the caller will accept.  Either half may be
    #: None; ``slo=None`` is a plain exact request.  Requests carrying a
    #: ``min_recall`` are eligible for the approximate tier and are
    #: batched/cached separately from exact traffic (see GroupKey and
    #: ServeCache).
    slo: tuple | None = None
    #: the payload's cluster identity, which the node's result cache keys
    #: its entry by (see :mod:`repro.serve.cache`).  Never a constructor
    #: argument: only :meth:`repro.cluster.ClusterNode.dispatch` sets it,
    #: from the router's ``payload_key``
    _content_key: object = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def n(self) -> int:
        return int(self.data.shape[-1])

    @property
    def min_recall(self) -> float | None:
        """The request's recall target, or None for exact-only traffic."""
        if self.slo is None:
            return None
        return self.slo[1]


@dataclass
class Outcome:
    """The service's verdict on one request."""

    rid: int
    #: one of :data:`OUTCOMES`: "served", "degraded" (lossy but bounded —
    #: see ``recall_bound``), "shed" (rejected at admission, queue full),
    #: "timeout" (deadline passed while queued or before the batch
    #: completed) or "failed" (execution retries exhausted, or a
    #: malformed request rejected at admission)
    status: str
    #: virtual completion time (served), or the time the verdict was made
    finish_s: float
    #: the request's virtual arrival time — lets telemetry attribute an
    #: effective wait to non-served verdicts too (a timeout's
    #: ``finish_s - arrival_s`` is how long the caller actually waited)
    arrival_s: float | None = None
    #: completion - arrival, seconds; None unless served
    latency_s: float | None = None
    #: requests sharing the executed micro-batch (served only)
    batch_size: int = 0
    #: concrete algorithm the batch ran (served only)
    algo: str = ""
    #: whether the result came from the LRU result cache
    cache_hit: bool = False
    #: selected values/indices, best first (served/degraded only)
    values: np.ndarray | None = field(default=None, repr=False)
    indices: np.ndarray | None = field(default=None, repr=False)
    #: high-probability recall floor of a lossy result — attached both by
    #: degraded sharded execution (docs/faults.md) and by the approximate
    #: tier (docs/approximate.md); None for exact full-fidelity outcomes
    recall_bound: float | None = None
    #: the planner's expected recall of an approximate-tier answer — the
    #: quality its ``min_recall`` target is graded against; None for exact
    #: and degraded outcomes
    expected_recall: float | None = None
    #: whether the results are guaranteed to equal the exact top-k; False
    #: for approximate-tier and degraded results (which also carry
    #: ``recall_bound``)
    exact: bool = True
    #: why a failed outcome failed (exception text, or the
    #: :func:`admission_failure` message), empty otherwise
    error: str = ""

    @property
    def ok(self) -> bool:
        """True when the caller got results back (served or degraded)."""
        return self.status in ("served", "degraded")

    def __post_init__(self) -> None:
        if self.status not in OUTCOMES:
            raise ValueError(f"status must be one of {OUTCOMES}, got {self.status!r}")


def admission_failure(request: Request) -> Outcome | None:
    """The immediate ``failed`` outcome of a malformed request, or None.

    A servable request has a 1-d, non-empty numpy payload of a supported
    dtype and an integer ``1 <= k <= n`` (a NumPy integer ``k`` is stored
    back as the Python int it equals; ``bool`` and non-integers fail).
    The service and the cluster router both call this at admission,
    before the payload is hashed, batched or routed; a malformed request
    fails on the spot with ``error`` naming the problem, and no other
    request's outcome changes.  Messages are only formatted on failure.
    """
    data = request.data
    if not isinstance(data, np.ndarray):
        error = f"data must be a numpy array, got {type(data).__name__}"
    elif data.ndim != 1:
        error = f"data must be 1-d (n,), got shape {data.shape}"
    elif data.shape[0] == 0:
        error = "cannot select from an empty list"
    elif data.dtype not in KEY_DTYPES:
        error = f"unsupported radix key dtype {data.dtype}"
    else:
        try:
            request.k = check_problem(data.shape[0], request.k)
            return None
        except InputError as exc:
            error = str(exc)
    return Outcome(
        rid=request.rid,
        status="failed",
        finish_s=request.arrival_s,
        arrival_s=request.arrival_s,
        error=error,
    )
