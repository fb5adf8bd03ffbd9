"""Sharded, batched top-k serving (see docs/serving.md).

The layer users actually call in a production deployment: an
asynchronous-style front end over the simulated-GPU algorithm roster
that

* **micro-batches** concurrent single-query requests (size- and
  deadline-triggered flushes) to exploit the paper's batched regime,
  where one device-resident launch set amortises over the whole batch
  (:mod:`.batcher`);
* **shards** large-N problems across simulated devices with per-shard
  selection and a hierarchical k-way merge of (value, index) candidates,
  the Dr. Top-k delegate decomposition (:mod:`.sharder`, :mod:`.merge`);
* **caches** results, keyed on the payload's identity (its bytes, or
  a cluster node's placement key) plus (k, largest, quality class), and
  cost-model dispatch plans, keyed on the problem shape, so repeated
  payloads skip the device and the ``auto`` dispatcher's ranking is
  reused across batches (:mod:`.cache`);
* applies **backpressure** — bounded queues, per-request deadlines and
  load shedding — reporting served / degraded / shed / timeout / failed
  outcomes with full ``serve.*`` telemetry (:mod:`.service`);
* **survives faults** — deterministic injected chaos
  (:mod:`repro.faults`, docs/faults.md) is absorbed by per-shard
  retries, hedged duplicates, a result-cache circuit breaker and
  degraded-mode merges with recall bounds (:mod:`.sharder`,
  :mod:`.service`);
* ships an **open-loop load generator** and latency report for
  ``repro-topk serve-bench`` (:mod:`.loadgen`) — arrivals are drawn
  independently of completions — and :func:`serve_bench`, the whole
  command as one call: telemetry, fault plan, correction store, SLO
  grading, serve report and manifest (:mod:`.bench`).

All timing is in the repository's simulated-time domain: arrivals are
drawn on a virtual clock and service times come from the simulated
device, so a 2-second, 200-QPS load test runs deterministically in
milliseconds of host time.
"""

from .batcher import GroupKey, MicroBatcher, quality_class
from .bench import serve_bench
from .cache import DispatchPlan, LRUCache, ServeCache, fingerprint
from .loadgen import (
    LoadSpec,
    SequentialBaseline,
    ServeBenchReport,
    build_requests,
    poisson_arrivals,
    run_serve_bench,
    sequential_baseline,
    uniform_arrivals,
)
from .merge import hierarchical_merge
from .request import OUTCOMES, Outcome, Request, admission_failure
from .service import BatchRecord, ServeConfig, ServeStats, TopKService
from .sharder import AllShardsLost, shard_bounds, sharded_topk

__all__ = [
    "AllShardsLost",
    "BatchRecord",
    "OUTCOMES",
    "DispatchPlan",
    "GroupKey",
    "LRUCache",
    "LoadSpec",
    "MicroBatcher",
    "Outcome",
    "Request",
    "SequentialBaseline",
    "ServeBenchReport",
    "ServeCache",
    "ServeConfig",
    "ServeStats",
    "TopKService",
    "admission_failure",
    "build_requests",
    "fingerprint",
    "hierarchical_merge",
    "poisson_arrivals",
    "quality_class",
    "run_serve_bench",
    "sequential_baseline",
    "serve_bench",
    "shard_bounds",
    "sharded_topk",
    "uniform_arrivals",
]
