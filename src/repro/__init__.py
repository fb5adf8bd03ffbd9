"""repro — reproduction of "Parallel Top-K Algorithms on GPU: A
Comprehensive Study and New Methods" (Zhang, Li, Naruse, Wang — SC '23).

The package implements the paper's two contributions, **AIR Top-K** and
**GridSelect**, plus the eight baseline GPU top-k algorithms it benchmarks
(Table 1), all running on a simulated GPU execution model (see DESIGN.md
for the substitution rationale).

Quick start::

    import numpy as np
    from repro import topk

    data = np.random.default_rng(0).standard_normal(1 << 20).astype(np.float32)
    result = topk(data, k=100)              # auto-dispatched, simulated A100
    result.values                           # 100 smallest values, best first
    result.indices                          # their positions in `data`
    result.time                             # simulated seconds

For serving many concurrent queries (micro-batching, sharding, caching,
backpressure) see :mod:`repro.serve`; for deterministic fault injection
and the recovery policies the serving layer is hardened with, see
:mod:`repro.faults` and docs/faults.md.  :mod:`repro.cluster` replicates
the serving node N ways behind a router (placement, R-way replication,
quorum dispatch, node-fault chaos) while keeping cluster answers
byte-identical to single-shot ``topk()`` — see docs/cluster.md.

v2.1 adds an approximate tier (docs/approximate.md): ``topk(...,
mode="approx")`` or ``topk(..., min_recall=0.95)`` opt into the
partition-based approximate methods, dispatched by the quality-aware
planner in :mod:`repro.approx`.  Results carry ``exact`` and
``recall_bound`` so callers can always tell what they got.
"""

from __future__ import annotations

from .algos import (
    AlgorithmInfo,
    TopKAlgorithm,
    TopKResult,
    UnsupportedProblem,
    algorithm_names,
    available_algorithms,
    get_algorithm,
)
from .api import topk
from .approx import QualityPlan, choose_plan, expected_recall, recall_floor
from .core import AIRTopK, GridSelect, GridSelectStream
from .device import A10, A100, H100, Device, GPUSpec, get_spec
from .errors import InputError
from .verify import check_topk, oracle_topk_values

__version__ = "3.0.0"

__all__ = [
    "topk",
    "InputError",
    "QualityPlan",
    "choose_plan",
    "expected_recall",
    "recall_floor",
    "AlgorithmInfo",
    "TopKAlgorithm",
    "TopKResult",
    "UnsupportedProblem",
    "algorithm_names",
    "available_algorithms",
    "get_algorithm",
    "AIRTopK",
    "GridSelect",
    "GridSelectStream",
    "Device",
    "GPUSpec",
    "A100",
    "H100",
    "A10",
    "get_spec",
    "check_topk",
    "oracle_topk_values",
]
