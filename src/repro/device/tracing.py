"""Simulated timelines as trace events.

The paper's Fig. 8 is a profiler screenshot; the closest runnable artifact
is a `chrome://tracing` / Perfetto file.  :func:`timeline_spans` turns a
:class:`repro.device.Timeline` into :class:`repro.obs.SpanEvent` records,
one lane per simulated stream, which the one exporter
(:func:`repro.obs.write_trace`) writes as a Trace-Event-Format file.
"""

from __future__ import annotations

from .device import Device
from .timeline import Timeline


def timeline_spans(
    timeline: Timeline,
    *,
    lane_prefix: str,
    device: Device | None = None,
):
    """A simulated timeline as obs spans, at simulated time 0.

    Lanes are ``"<lane_prefix>/<stream>"`` so the exporter renders the
    run as its own process with one thread per stream, and categories are
    ``sim.<stream>``.  When a ``device`` is given, its per-kernel byte and
    FLOP counters fill in any of those args an event does not carry.  To
    show the streams inside the host span that ran them, merge the spans
    with :meth:`repro.obs.SpanTracer.extend` at that span's start.
    """
    from ..obs.spans import SpanEvent

    spans = []
    for event in timeline.events:
        args = dict(event.args) if event.args else {}
        if device is not None and event.name in device.kernel_stats:
            stats = device.kernel_stats[event.name]
            args.setdefault("bytes_read", stats.bytes_read)
            args.setdefault("bytes_written", stats.bytes_written)
            args.setdefault("flops", stats.flops)
        spans.append(
            SpanEvent(
                name=event.name,
                cat=f"sim.{event.stream}",
                ts_us=event.start * 1e6,
                dur_us=event.duration * 1e6,
                lane=f"{lane_prefix}/{event.stream}",
                args=args,
            )
        )
    return spans
