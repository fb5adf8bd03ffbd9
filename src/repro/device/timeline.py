"""Execution trace of a simulated run.

The timeline is the substrate for reproducing the paper's Fig. 8, which
contrasts the kernel/transfer timeline of host-coordinated RadixSelect
(gaps from synchronisation, PCIe copies, CPU processing) with the tight
back-to-back kernels of the iteration-fused AIR Top-K.
"""

from __future__ import annotations

from typing import Iterable, Iterator, NamedTuple

#: Streams a trace event can belong to.
STREAMS = ("gpu", "cpu", "pcie_h2d", "pcie_d2h")


class _TraceEventFields(NamedTuple):
    name: str
    stream: str
    start: float
    end: float
    #: optional behavioural annotations (pass survivors, queue stats, ...)
    #: surfaced as hover args in chrome-trace/Perfetto exports
    args: dict | None = None


class TraceEvent(_TraceEventFields):
    """One interval of activity on a stream of the simulated machine.

    Immutable.  A named tuple rather than a frozen dataclass: every kernel
    launch records one, and a tuple is built several times faster.
    """

    __slots__ = ()

    def __new__(cls, name: str, stream: str, start: float, end: float,
                args: dict | None = None) -> "TraceEvent":
        if stream not in STREAMS:
            raise ValueError(f"unknown stream {stream!r}")
        if end < start:
            raise ValueError(
                f"event {name!r} ends before it starts ({end} < {start})"
            )
        return tuple.__new__(cls, (name, stream, start, end, args))

    @property
    def duration(self) -> float:
        return self.end - self.start


class Timeline:
    """Ordered collection of :class:`TraceEvent` produced by a run."""

    def __init__(self) -> None:
        self._events: list[TraceEvent] = []

    def record(
        self,
        name: str,
        stream: str,
        start: float,
        end: float,
        *,
        args: dict | None = None,
    ) -> TraceEvent:
        event = TraceEvent(name, stream, start, end, args)
        self._events.append(event)
        return event

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    @property
    def events(self) -> tuple[TraceEvent, ...]:
        return tuple(self._events)

    def stream_events(self, stream: str) -> list[TraceEvent]:
        """Events on one stream, in start order."""
        if stream not in STREAMS:
            raise ValueError(f"unknown stream {stream!r}")
        return sorted(
            (e for e in self._events if e.stream == stream),
            key=lambda e: (e.start, e.end),
        )

    def busy_time(self, stream: str) -> float:
        """Total occupied time on a stream (events never overlap per stream)."""
        return sum(e.duration for e in self.stream_events(stream))

    def idle_gaps(self, stream: str, *, min_gap: float = 0.0) -> list[tuple[float, float]]:
        """Gaps between consecutive events on a stream.

        For RadixSelect these gaps are the white spaces the paper points at
        in Fig. 8; for AIR Top-K they are (near) empty.
        """
        events = self.stream_events(stream)
        gaps: list[tuple[float, float]] = []
        for prev, nxt in zip(events, events[1:]):
            if nxt.start - prev.end > min_gap:
                gaps.append((prev.end, nxt.start))
        return gaps

    @property
    def span(self) -> float:
        """Wall-clock extent of the whole trace."""
        if not self._events:
            return 0.0
        return max(e.end for e in self._events) - min(e.start for e in self._events)

    def render(self, *, width: int = 78, streams: Iterable[str] = STREAMS) -> str:
        """ASCII rendering of the trace (one row per stream).

        This is the textual stand-in for the paper's Fig. 8 screenshot of the
        profiler timeline.
        """
        if not self._events:
            return "(empty timeline)"
        t0 = min(e.start for e in self._events)
        t1 = max(e.end for e in self._events)
        span = max(t1 - t0, 1e-12)
        lines = []
        for stream in streams:
            events = self.stream_events(stream)
            if not events:
                continue
            row = [" "] * width
            for event in events:
                lo = int((event.start - t0) / span * (width - 1))
                hi = max(lo + 1, int((event.end - t0) / span * (width - 1)) + 1)
                mark = event.name[0].upper() if event.name else "#"
                for i in range(lo, min(hi, width)):
                    row[i] = mark
            lines.append(f"{stream:>9} |{''.join(row)}|")
        legend = sorted({f"{e.name[0].upper()}={e.name}" for e in self._events})
        lines.append("legend: " + ", ".join(legend))
        lines.append(f"span: {span * 1e6:.2f} us")
        return "\n".join(lines)
