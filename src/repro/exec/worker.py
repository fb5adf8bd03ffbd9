"""Worker-side execution of sweep points: timeout and retry.

Everything here must be importable at module top level so a
``multiprocessing`` pool can run it under any start method (fork *or*
spawn).  A :class:`PointSpec` is a fully picklable description of one
benchmark point; :func:`execute_chunk` turns a chunk of them into
``(grid_index, BenchPoint)`` pairs, never raising: a crashing point is
retried once and then recorded as an ``error`` row, an overrunning point
as a ``timeout`` row, so one bad point cannot kill a sweep.
"""

from __future__ import annotations

import multiprocessing
import signal
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

from ..bench.runner import BenchPoint, run_point
from ..device import GPUSpec
from ..obs.spans import SpanEvent, span

#: how many times a crashing point is re-attempted before an error row
RETRIES = 1


@dataclass(frozen=True)
class PointSpec:
    """Picklable description of one grid point, tagged with its grid slot."""

    index: int
    algo: str
    distribution: str
    n: int
    k: int
    batch: int
    spec: GPUSpec
    cap: int
    seed: int
    timeout: float | None = None


class PointTimeout(Exception):
    """Raised inside a worker when a point exceeds its wall-clock budget."""


@contextmanager
def _alarm(timeout: float | None):
    """SIGALRM-based wall-clock guard (POSIX; a no-op where unavailable)."""
    if timeout is None or not hasattr(signal, "setitimer"):
        yield
        return

    def _raise(signum, frame):
        raise PointTimeout()

    previous = signal.signal(signal.SIGALRM, _raise)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _failure_point(spec: PointSpec, status: str, detail: str) -> BenchPoint:
    return BenchPoint(
        algo=spec.algo,
        distribution=spec.distribution,
        n=spec.n,
        k=spec.k,
        batch=spec.batch,
        time=None,
        mode=status,
        status=status,
        detail=detail,
    )


def execute_point(spec: PointSpec) -> BenchPoint:
    """Run one point; failures become recorded rows, never exceptions."""
    last_error = ""
    with span(
        f"execute {spec.algo}", cat="exec", index=spec.index, algo=spec.algo
    ) as exec_span:
        for attempt in range(1 + RETRIES):
            try:
                with _alarm(spec.timeout), span(
                    "attempt", cat="exec", attempt=attempt + 1
                ):
                    point = run_point(
                        spec.algo,
                        distribution=spec.distribution,
                        n=spec.n,
                        k=spec.k,
                        batch=spec.batch,
                        spec=spec.spec,
                        cap=spec.cap,
                        seed=spec.seed,
                    )
                    exec_span.set(status=point.status)
                    return point
            except PointTimeout:
                # a timed-out point is not retried: it would only time out
                # again
                exec_span.set(status="timeout")
                return _failure_point(
                    spec, "timeout", f"exceeded {spec.timeout:g}s wall clock"
                )
            except Exception as exc:  # noqa: BLE001 — the row records the cause
                last_error = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
        exec_span.set(status="error", retries=RETRIES)
    return _failure_point(spec, "error", last_error)


@dataclass(frozen=True)
class ChunkResult:
    """A chunk's points plus the worker-local telemetry that produced them."""

    pairs: list[tuple[int, BenchPoint]]
    spans: tuple[SpanEvent, ...] = ()
    metrics: "object | None" = None  # MetricsRegistry, kept loose for pickling


def execute_chunk(
    chunk: Sequence[PointSpec], *, trace: bool = False, metrics: bool = False
) -> ChunkResult:
    """Pool entry point: run a chunk, returning its (grid_index, point) pairs.

    ``trace``/``metrics`` mirror the parent session.  The chunk runs inside
    a *fresh* tracer/registry (never the fork-copied parent one — its
    buffered events would be duplicated on merge) and ships the buffers
    back with the results; the engine merges them into the parent session.
    The worker's lane is its ``multiprocessing`` process name, so Perfetto
    shows one row per pool worker.
    """
    from ..obs import local_session

    lane = f"host/{multiprocessing.current_process().name}"
    with local_session(trace=trace, metrics=metrics, lane=lane) as (tracer, registry):
        with span("chunk", cat="exec", points=len(chunk)):
            pairs = [(spec.index, execute_point(spec)) for spec in chunk]
        return ChunkResult(
            pairs=pairs,
            spans=tracer.events if tracer is not None else (),
            metrics=registry,
        )
