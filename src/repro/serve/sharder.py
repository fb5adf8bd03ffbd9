"""Shard large-N selections across simulated devices and merge.

Splits each problem row into contiguous chunks, runs an exact top-k per
chunk on its own simulated device (fan-out via
:func:`repro.exec.fanout`, the engine's generic primitive), offsets the
per-shard indices back to global positions, and tree-merges the
candidates (:mod:`.merge`).  The coordinator device models the
multi-device critical path: shards execute concurrently, so its clock
starts at the *slowest* shard and then pays one merge kernel per tree
level plus the final synchronisation — the same accounting shape as the
paper's multi-GPU scaling experiment (Fig. 12).

Failure handling (docs/faults.md): with a
:class:`~repro.faults.FaultInjector` installed, each shard attempt can
fail (``shard_failure``) or come back slow (``straggler``).  Failed
attempts are retried with capped exponential backoff
(:class:`~repro.faults.RetryPolicy`); stragglers past a latency quantile
of their siblings get a hedged duplicate
(:class:`~repro.faults.HedgePolicy`) racing the original.  A shard that
exhausts its retries is *lost*: the survivors are merged anyway and the
result is returned ``degraded=True`` with the
:func:`~repro.faults.recall_bound` contract attached.  With no injector
every seam is a strict no-op.
"""

from __future__ import annotations

import numpy as np

from ..algos import TopKResult, get_algorithm
from ..api import resolve_device
from ..device import Device, streaming_grid
from ..errors import check_problem
from ..exec import fanout
from ..faults import HedgePolicy, RetryPolicy, recall_bound
from ..perf import calibration as cal
from .merge import hierarchical_merge

#: comparator-ish FLOPs charged per merged candidate per level
_MERGE_OPS_PER_ELEM = 4.0


class AllShardsLost(RuntimeError):
    """Every shard of a selection failed irrecoverably; there is no
    surviving data to degrade onto — the request must fail upstream."""


def shard_bounds(n: int, shards: int) -> list[tuple[int, int]]:
    """Near-equal contiguous [start, end) chunks covering ``n`` elements.

    >>> shard_bounds(10, 4)
    [(0, 3), (3, 6), (6, 8), (8, 10)]
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if shards > n:
        raise ValueError(f"cannot cut {n} elements into {shards} shards")
    bounds = []
    start = 0
    for s in range(shards):
        size = n // shards + (1 if s < n % shards else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def sharded_topk(
    data: np.ndarray,
    k: int,
    *,
    shards: int,
    algo: str = "auto",
    device=None,
    largest: bool = False,
    seed: int = 0,
    params: dict | None = None,
    workers: int = 1,
    injector=None,
    retry: RetryPolicy | None = None,
    hedge: HedgePolicy | None = None,
    fault_scope: str = "",
) -> TopKResult:
    """Top-k by per-shard selection + hierarchical merge.

    Semantically identical to a single-shot :func:`repro.topk` call —
    byte-identical values/indices over unique-valued data, an equal-value
    top-k otherwise (pinned by tests/test_serve.py) — but executed as
    ``shards`` independent sub-selections on ``shards`` simulated
    devices.  ``workers`` > 1 additionally spreads the host-side numpy
    work over threads; it never changes the result.

    ``injector`` enables the fault seams described in the module
    docstring; ``fault_scope`` namespaces this call's injection decisions
    (the service passes its batch id so two batches draw independently).
    With faults a shard can be lost after ``retry.retries`` re-attempts,
    in which case the merged result carries ``degraded=True`` and the
    documented ``recall_bound``; :class:`AllShardsLost` is raised only
    when *no* shard survives.

    Returns a :class:`TopKResult` whose ``device`` is the coordinator:
    its elapsed time is ``max(effective shard times) + merge + sync``.
    """
    data = np.asarray(data)
    squeeze = data.ndim == 1
    if squeeze:
        data = data[None, :]
    if data.ndim != 2:
        raise ValueError(
            f"data must be 1-d or 2-d (batch, n), got shape {data.shape}"
        )
    n = data.shape[1]
    check_problem(n, k)
    run_device, spec = resolve_device(device)
    if run_device is not None:
        raise ValueError(
            "sharded_topk coordinates its own devices; pass a GPUSpec or "
            "preset name, not an existing Device"
        )
    bounds = shard_bounds(n, shards)
    retry = retry or RetryPolicy()
    hedge = hedge or HedgePolicy()

    def run_shard(indexed_bound: tuple[int, tuple[int, int]]):
        """One shard's selection, through the fault seams.

        Returns ``(values, indices, effective_time, clean_time, retries)``
        or ``None`` when the shard is lost (retries exhausted).
        """
        shard_id, (start, end) = indexed_bound
        shard_k = min(k, end - start)
        algorithm = get_algorithm(algo, params=params)

        def attempt_once():
            result = algorithm.select(
                np.ascontiguousarray(data[:, start:end]),
                shard_k,
                spec=spec,
                largest=largest,
                seed=seed,
            )
            return result.values, result.indices + start, result.time

        if injector is None:
            values, indices, time = attempt_once()
            return values, indices, time, time, 0

        elapsed = 0.0
        for attempt in range(retry.attempts):
            values, indices, time = attempt_once()
            failed = injector.decide(
                "shard_failure",
                "serve.shard",
                fault_scope,
                f"shard={shard_id}",
                f"attempt={attempt}",
            )
            if failed is None:
                clean = time
                straggling = injector.decide(
                    "straggler",
                    "serve.shard",
                    fault_scope,
                    f"shard={shard_id}",
                    f"attempt={attempt}",
                )
                if straggling is not None:
                    time = time * straggling.factor
                return values, indices, elapsed + time, clean, attempt
            # the attempt crashed: charge its full runtime plus the
            # capped-exponential backoff before the next try
            elapsed += time
            if attempt < retry.attempts - 1:
                elapsed += retry.backoff(attempt)
        return None  # lost: every attempt failed

    shard_runs = fanout(run_shard, list(enumerate(bounds)), workers=workers)
    survivors = [
        (i, run) for i, run in enumerate(shard_runs) if run is not None
    ]
    if not survivors:
        raise AllShardsLost(
            f"all {shards} shards failed irrecoverably "
            f"(retries={retry.retries}, scope={fault_scope!r})"
        )
    lost = [i for i, run in enumerate(shard_runs) if run is None]
    retries_total = sum(run[4] for _, run in survivors)

    # hedged duplicate dispatch: anything past the sibling-quantile
    # threshold races a clean duplicate launched at the threshold.  With
    # no inflation min(t, threshold + t) == t, so this is a no-op on a
    # healthy run.
    times = [run[2] for _, run in survivors]
    hedges = 0
    effective_times = []
    threshold = hedge.threshold(times) if injector is not None else None
    for _, run in survivors:
        time, clean = run[2], run[3]
        if threshold is not None and time > threshold:
            hedged = min(time, threshold + clean)
            if hedged < time:
                hedges += 1
                time = hedged
        effective_times.append(time)

    partials = [(run[0], run[1]) for _, run in survivors]
    values, indices, levels = hierarchical_merge(partials, k, largest=largest)

    # coordinator: shards ran concurrently, so the critical path starts at
    # the slowest shard, then pays the merge tree and the final sync
    coordinator = Device(spec)
    slowest = max(effective_times)
    coordinator.cpu_time = coordinator.gpu_time = slowest
    batch = data.shape[0]
    candidates = sum(p[0].shape[1] for p in partials) * batch
    elem_bytes = 8.0 + data.dtype.itemsize  # key + index per candidate
    for level in range(levels):
        merged = max(1, candidates >> level)
        # one fused grid launch merges every problem's candidates at this
        # level; the per-problem segment bookkeeping is a fixed serial
        # chain that does not shrink with device scale
        coordinator.launch_kernel(
            f"shard_merge_l{level}",
            grid_blocks=streaming_grid(spec, merged),
            block_threads=256,
            bytes_read=elem_bytes * merged,
            bytes_written=elem_bytes * max(1, merged // 2),
            flops=_MERGE_OPS_PER_ELEM * merged,
            fixed_dependent_cycles=batch * cal.MERGE_PER_PROBLEM_CYCLES,
            span_args={"level": level, "candidates": merged, "batch": batch},
        )
    coordinator.synchronize("sync_result")
    # merge + sync cost = everything the coordinator paid past the
    # slowest shard; exported so request traces can split the span
    merge_s = max(0.0, float(coordinator.elapsed) - float(slowest))

    degraded = bool(lost)
    bound = None
    # whether each shard ran its batch in fused launches (one grid per
    # pass) or replayed per-row — callers budgeting coordinator work need
    # to know which launch-cost regime the shards were in
    meta: dict = {
        "batched_execution": get_algorithm(algo).batched_execution,
        # per-surviving-shard effective times (post retry/straggler/hedge)
        # keyed by shard id, plus the merge-tree tail — the trace lanes
        # reconstruct the fan-out/fan-in shape from these
        "shard_times_s": {
            shard_id: float(t)
            for (shard_id, _), t in zip(survivors, effective_times)
        },
        "merge_s": merge_s,
    }
    if injector is not None:
        meta.update(retries=retries_total, hedges=hedges, shards_lost=len(lost))
    if degraded:
        n_lost = sum(bounds[i][1] - bounds[i][0] for i in lost)
        coverage, bound = recall_bound(k, n, n_lost)
        meta.update(coverage=coverage, lost_shards=lost, n_lost=n_lost)

    if squeeze:
        values = values[0]
        indices = indices[0]
    k_got = values.shape[-1]
    label = f"sharded({algo}x{shards})"
    if degraded:
        label += f"[degraded -{len(lost)}]"
    return TopKResult(
        values=values[..., :k_got],
        indices=indices[..., :k_got],
        algo=label,
        device=coordinator,
        degraded=degraded,
        recall_bound=bound,
        exact=not degraded,
        meta=meta,
    )
