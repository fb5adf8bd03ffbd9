"""Span tracer: wall-clock instrumentation of the host side of a run.

The simulated device already records *simulated* time (its
:class:`repro.device.Timeline`); this module records *real* time — what
the engine, the workers and the CLI actually did, when, and for how long.
Every clock emits the one :class:`SpanEvent` record: simulated device
timelines (:func:`repro.device.timeline_spans`) and the serving layer's
virtual time (:class:`repro.obs.ServeTelemetry`) start at their own 0,
and :meth:`SpanTracer.extend` shifts them onto the wall clock.  The one
exporter, :mod:`repro.obs.export`, renders the buffer as a
Trace-Event-Format file: a parallel sweep opens in Perfetto with one lane
per pool worker alongside the simulated GPU/CPU/PCIe streams of each
point.

Concurrency model: **per-worker buffers, merged by the engine.**  There
is one process-global active tracer (installed by :func:`trace_session`);
a pool worker never writes to the parent's tracer — it opens a private
:func:`local_session`, runs its chunk, and ships the buffered events back
with the chunk result (see :mod:`repro.exec.worker`), where the engine
extends the parent buffer.  Timestamps come from ``time.perf_counter``,
which on Linux is a system-wide monotonic clock, so parent and worker
spans share a base.

Zero overhead when disabled: :func:`span` returns one shared no-op
handle when no tracer is installed — no allocation, no clock read — and
the algorithm hot paths additionally guard on :func:`tracing_enabled`
(pinned by tests/test_obs.py).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator

#: lane of host spans recorded outside any worker ("<process>/<track>")
DEFAULT_LANE = "host/main"


@dataclass(frozen=True)
class SpanEvent:
    """One completed span, in microseconds.

    The category prefix tags the clock: ``sim.*`` is simulated device
    time, ``serve.*`` the serving layer's virtual time, anything else the
    host wall clock.  A span recorded here is on the wall clock; the
    other two start at their own 0 until :meth:`SpanTracer.extend`
    shifts them.

    ``lane`` is ``"<process label>/<track label>"`` — the exporter maps
    the process label to a Trace-Event ``pid`` and the full lane to a
    ``tid``, so lanes group naturally in Perfetto (all host workers under
    one "host" process, each point's simulated streams under its own).
    """

    name: str
    cat: str
    ts_us: float
    dur_us: float
    lane: str
    args: dict = field(default_factory=dict)


class _NullSpan:
    """Shared do-nothing span handle returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **kwargs) -> None:
        """Discard args (the live handle attaches them to the event)."""


NULL_SPAN = _NullSpan()


class _LiveSpan:
    """Context manager recording one span into its tracer on exit."""

    __slots__ = ("_tracer", "name", "cat", "lane", "args", "start_us")

    def __init__(self, tracer: "SpanTracer", name: str, cat: str, lane: str, args: dict):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.lane = lane
        self.args = args
        self.start_us = 0.0

    def __enter__(self) -> "_LiveSpan":
        self.start_us = self._tracer.now_us()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        self._tracer.emit(
            self.name,
            cat=self.cat,
            lane=self.lane,
            ts_us=self.start_us,
            dur_us=self._tracer.now_us() - self.start_us,
            **self.args,
        )
        return False

    def set(self, **kwargs) -> None:
        """Attach result args to the span before it closes."""
        self.args.update(kwargs)


class SpanTracer:
    """Buffer of :class:`SpanEvent` with a context-manager recording API."""

    def __init__(self, *, default_lane: str = DEFAULT_LANE) -> None:
        self.default_lane = default_lane
        self._events: list[SpanEvent] = []

    # ------------------------------------------------------------------ #
    def now_us(self) -> float:
        """Current wall time in microseconds (shared monotonic clock)."""
        return time.perf_counter() * 1e6

    def span(self, name: str, *, cat: str = "host", lane: str | None = None, **args):
        """Open a span; attach late args via the yielded handle's ``set``."""
        return _LiveSpan(self, name, cat, lane or self.default_lane, args)

    def emit(
        self,
        name: str,
        *,
        cat: str,
        lane: str,
        ts_us: float,
        dur_us: float,
        **args,
    ) -> SpanEvent:
        """Record an already-timed span on this tracer's wall clock."""
        event = SpanEvent(
            name=name, cat=cat, ts_us=ts_us, dur_us=dur_us, lane=lane, args=args
        )
        self._events.append(event)
        return event

    def extend(self, events: Iterable[SpanEvent], *, base_us: float = 0.0) -> None:
        """Merge buffered events into this tracer: a pool worker's, or
        those of a foreign clock starting at 0 (a simulated device
        timeline, the serving layer's virtual time), shifted so that
        their 0 lands on the wall-clock moment ``base_us``.

        This is the one place a foreign clock meets the wall clock."""
        if base_us:
            events = (
                SpanEvent(e.name, e.cat, e.ts_us + base_us, e.dur_us, e.lane, e.args)
                for e in events
            )
        self._events.extend(events)

    # ------------------------------------------------------------------ #
    @property
    def events(self) -> tuple[SpanEvent, ...]:
        return tuple(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[SpanEvent]:
        return iter(self._events)

    def lanes(self) -> list[str]:
        """Distinct lanes, in first-seen order."""
        seen: dict[str, None] = {}
        for e in self._events:
            seen.setdefault(e.lane, None)
        return list(seen)


# -------------------------------------------------------------------------- #
# process-global active tracer
# -------------------------------------------------------------------------- #
_ACTIVE: SpanTracer | None = None


def tracing_enabled() -> bool:
    """True when a tracer is installed (hot paths guard on this)."""
    return _ACTIVE is not None


def get_tracer() -> SpanTracer | None:
    """The installed tracer, or None when tracing is disabled."""
    return _ACTIVE


def span(name: str, *, cat: str = "host", lane: str | None = None, **args):
    """Record a span on the active tracer, or do nothing when disabled.

    Usage::

        with obs.span("execute", cat="exec", algo="air_topk") as s:
            ...
            s.set(status="ok")
    """
    tracer = _ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, cat=cat, lane=lane, **args)


@contextmanager
def trace_session(*, default_lane: str = DEFAULT_LANE, enabled: bool = True):
    """Install a fresh tracer — or, with ``enabled=False``, none — for the
    ``with`` body, restoring the previous one (usually None) afterwards.
    Yields the installed tracer."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = SpanTracer(default_lane=default_lane) if enabled else None
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
