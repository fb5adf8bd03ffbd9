"""Serving top-k at scale: micro-batching, sharding and caching.

The paper measures algorithms one problem at a time; a deployment serves
a *stream* of problems against latency SLOs.  This example drives the
:mod:`repro.serve` subsystem three ways:

1. a load test at 200 QPS — micro-batches amortise launch overhead and
   multiply capacity over sequential per-request dispatch;
2. a hot-query workload — the LRU result cache answers repeats without
   touching the device;
3. a sharded selection — one big problem split across 4 simulated
   devices, merged hierarchically, identical to the single-shot answer.

Usage::

    python examples/serving.py
"""

from __future__ import annotations

import numpy as np

from repro import topk
from repro.serve import LoadSpec, ServeConfig, run_serve_bench, sharded_topk


def main() -> None:
    # --- 1. open-loop load test --------------------------------------------
    spec = LoadSpec(qps=200, duration_s=2.0, n=1 << 16, k=64)
    report, _service = run_serve_bench(spec, ServeConfig())
    print(report.format())
    print(
        f"\nbatching pays: {report.stats.mean_occupancy:.1f} requests share "
        f"each launch set -> {report.speedup:.1f}x the sequential capacity"
    )

    # --- 2. hot queries hit the result cache --------------------------------
    hot = LoadSpec(qps=200, duration_s=2.0, n=1 << 16, k=64, payload_pool=16)
    hot_report, _ = run_serve_bench(hot, ServeConfig())
    cache = hot_report.stats.cache
    print(
        f"\nhot-query pool of 16 payloads: {cache['result_hits']} of "
        f"{hot_report.stats.served} requests served from the LRU cache"
    )

    # --- 3. shard a big problem across simulated devices --------------------
    rng = np.random.default_rng(3)
    data = rng.standard_normal(1 << 20).astype(np.float32)
    single = topk(data, 128, algo="air_topk", largest=True)
    shard = sharded_topk(data, 128, shards=4, algo="air_topk", largest=True)
    assert np.array_equal(single.values, shard.values)
    assert np.array_equal(single.indices, shard.indices)
    print(
        f"\nsharded selection ({shard.algo}): identical results, "
        f"{single.time * 1e6:.1f} us single device vs "
        f"{shard.time * 1e6:.1f} us on 4 (per-shard selection + merge)"
    )


if __name__ == "__main__":
    main()
