"""Parallel sweep execution engine.

The figure sweeps of ``repro.bench`` are embarrassingly parallel — every
(algorithm, distribution, N, K, batch) point is an independent pure
function of its coordinates.  :func:`sweep` shards any benchmark grid
across a ``multiprocessing`` pool:

* **chunked work stealing** — pending points are cut into many small
  chunks consumed through ``imap_unordered``, so an idle worker always
  steals the next chunk instead of waiting on a static partition;
* **deterministic results** — every point carries its grid index; results
  are reassembled into exact grid order, and every point uses the sweep
  seed, so ``workers=1`` and ``workers=N`` produce byte-identical CSV rows
  (pinned by tests/test_exec_engine.py);
* **failure isolation** — a crashing point is retried once and then
  recorded as an ``error`` row, an overrunning point as a ``timeout`` row
  (see :mod:`repro.exec.worker`); one bad point cannot kill a sweep;
* **progress/ETA** — an optional callback receives a
  :class:`ProgressEvent` per finished point (the CLI renders these).

``repro.bench.sweep`` is this function, so every sweep — including
``run_paper_suite`` — takes ``workers=``/``timeout=``.
"""

from __future__ import annotations

import functools
import multiprocessing
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..bench.runner import ALL_ALGORITHMS, BenchPoint, SweepResult
from ..device import A100, GPUSpec
from ..errors import InputError
from ..obs.drift import record_point_drift
from ..obs.metrics import get_metrics, metrics_enabled
from ..obs.spans import get_tracer, span, tracing_enabled
from ..perf import DEFAULT_EXACT_CAP
from .worker import PointSpec, execute_chunk, execute_point


@dataclass(frozen=True)
class ProgressEvent:
    """One finished point, with sweep-level completion accounting."""

    #: points finished so far (including this one)
    done: int
    #: total points in the grid
    total: int
    #: wall-clock seconds since the sweep started
    elapsed_s: float
    #: estimated seconds remaining (None until one point has finished)
    eta_s: float | None
    #: the finished point
    point: BenchPoint

    @property
    def fraction(self) -> float:
        return self.done / self.total if self.total else 1.0


def build_grid(
    *,
    algos: Sequence[str] = ALL_ALGORITHMS,
    distributions: Sequence[str] = ("uniform",),
    ns: Iterable[int] = (1 << 20,),
    ks: Iterable[int] = (256,),
    batches: Iterable[int] = (1,),
    spec: GPUSpec = A100,
    cap: int = DEFAULT_EXACT_CAP,
    seed: int = 0,
    timeout: float | None = None,
) -> list[PointSpec | BenchPoint]:
    """Expand a sweep grid into ordered slots.

    Each slot is either a :class:`PointSpec` to execute, or an
    already-final :class:`BenchPoint` for points no algorithm can run
    (k > n), recorded as explicit ``unsupported`` rows rather than
    silently dropped — the paper's SOTA denominators stay auditable.
    The nesting order (distribution, batch, n, k, algorithm) matches the
    seed serial runner exactly.
    """
    slots: list[PointSpec | BenchPoint] = []
    for distribution in distributions:
        for batch in batches:
            for n in ns:
                for k in ks:
                    for algo in algos:
                        if k > n:
                            slots.append(
                                BenchPoint(
                                    algo=algo,
                                    distribution=distribution,
                                    n=n,
                                    k=k,
                                    batch=batch,
                                    time=None,
                                    mode="unsupported",
                                    status="unsupported",
                                    detail=f"k={k} exceeds n={n}",
                                )
                            )
                            continue
                        slots.append(
                            PointSpec(
                                index=len(slots),
                                algo=algo,
                                distribution=distribution,
                                n=n,
                                k=k,
                                batch=batch,
                                spec=spec,
                                cap=cap,
                                seed=seed,
                                timeout=timeout,
                            )
                        )
    return slots


def default_chunk_size(pending: int, workers: int) -> int:
    """Small chunks so the pool self-balances (work stealing), but not so
    small that per-chunk dispatch overhead dominates tiny points."""
    if pending <= 0:
        return 1
    return max(1, -(-pending // (workers * 8)))


def fanout(
    fn: Callable,
    items: Sequence,
    *,
    workers: int = 1,
) -> list:
    """Apply ``fn`` to every item, optionally across a thread pool.

    The engine's generic fan-out primitive, reused by the serving layer's
    sharder (:mod:`repro.serve.sharder`): shard selections are pure
    functions of their inputs whose *simulated* time is computed rather
    than measured, so inline execution (``workers=1``) is the determinism
    reference and threads only shorten host wall-clock for large numpy
    slices.  Results always come back in item order.
    """
    if workers < 1:
        raise InputError(f"workers must be >= 1, got {workers}")
    if workers == 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from multiprocessing.pool import ThreadPool

    with ThreadPool(processes=min(workers, len(items))) as pool:
        return pool.map(fn, items)


def sweep(
    *,
    algos: Sequence[str] = ALL_ALGORITHMS,
    distributions: Sequence[str] = ("uniform",),
    ns: Iterable[int] = (1 << 20,),
    ks: Iterable[int] = (256,),
    batches: Iterable[int] = (1,),
    spec: GPUSpec = A100,
    cap: int = DEFAULT_EXACT_CAP,
    seed: int = 0,
    workers: int = 1,
    timeout: float | None = None,
    progress: Callable[[ProgressEvent], None] | None = None,
) -> SweepResult:
    """Run the full cartesian grid, sharded over ``workers`` processes.

    k > n points are recorded as ``unsupported`` rows (no algorithm can
    run them).  Results come back in grid order and are identical at any
    worker count — parallelism is an execution detail, not a result
    change; ``workers=1`` runs inline in the calling process (no pool).
    ``timeout`` bounds each point's wall clock in seconds (exceeding it
    yields a ``timeout`` row).  ``progress`` is called with a
    :class:`ProgressEvent` per finished point.
    """
    if workers < 1:
        raise InputError(f"workers must be >= 1, got {workers}")
    if timeout is not None and timeout <= 0:
        raise InputError(f"timeout must be positive, got {timeout}")
    traced = tracing_enabled()
    metered = metrics_enabled()
    slots = build_grid(
        algos=algos,
        distributions=distributions,
        ns=ns,
        ks=ks,
        batches=batches,
        spec=spec,
        cap=cap,
        seed=seed,
        timeout=timeout,
    )
    total = len(slots)
    started = time.perf_counter()
    done = 0

    def emit(point: BenchPoint) -> None:
        nonlocal done
        done += 1
        if metered:
            registry = get_metrics()
            registry.counter("sweep.points", status=point.status).inc()
            record_point_drift(registry, point, spec=spec)
        if progress is None:
            return
        elapsed = time.perf_counter() - started
        eta = (elapsed / done) * (total - done) if done else None
        progress(
            ProgressEvent(
                done=done, total=total, elapsed_s=elapsed, eta_s=eta, point=point
            )
        )

    points: list[BenchPoint | None] = [None] * total
    pending = [slot for slot in slots if isinstance(slot, PointSpec)]

    with span("sweep", cat="sweep", points=total, workers=workers) as sweep_span:
        if workers == 1 or len(pending) <= 1:
            # inline: same process, grid order — the determinism reference
            for i, slot in enumerate(slots):
                point = slot if isinstance(slot, BenchPoint) else execute_point(slot)
                points[i] = point
                emit(point)
        else:
            for i, slot in enumerate(slots):
                if isinstance(slot, BenchPoint):
                    points[i] = slot
                    emit(slot)
            size = default_chunk_size(len(pending), workers)
            chunks = [pending[i : i + size] for i in range(0, len(pending), size)]
            pool_size = min(workers, len(chunks))
            sweep_span.set(chunks=len(chunks), chunk_size=size, pool=pool_size)
            # telemetry rides back with each chunk: workers buffer into a
            # fresh local session and the parent merges here, so counters,
            # metrics and spans are identical to the workers=1 run
            run_chunk = functools.partial(execute_chunk, trace=traced, metrics=metered)
            with multiprocessing.get_context().Pool(processes=pool_size) as pool:
                for outcome in pool.imap_unordered(run_chunk, chunks):
                    with span("merge_chunk", cat="sweep"):
                        if outcome.spans:
                            get_tracer().extend(outcome.spans)
                        if outcome.metrics is not None:
                            get_metrics().merge(outcome.metrics)
                        for index, point in outcome.pairs:
                            points[index] = point
                            emit(point)

    if metered:
        get_metrics().gauge("sweep.wall_time_s").set(
            time.perf_counter() - started
        )

    result = SweepResult()
    for point in points:
        assert point is not None  # every slot is filled by construction
        result.add(point)
    return result
