"""The one Trace-Event-Format exporter, for every clock.

Every ``--trace`` file and the Fig. 8 timelines are written here, from
:class:`~repro.obs.spans.SpanEvent` records.  The category prefix tags
each event's clock: ``sim.*`` is simulated device time, ``serve.*`` the
serving layer's virtual time, anything else the host wall clock.  A
merged trace has already shifted the first two onto the wall clock
(:meth:`~repro.obs.spans.SpanTracer.extend`), so each traced point's
GPU/CPU/PCIe streams sit in the gap its host span occupied.  The result
loads in Perfetto / chrome://tracing with:

* a ``host`` process whose threads are the main process and each pool
  worker;
* one process per traced point, whose threads are the simulated streams
  (``gpu``, ``cpu``, ``pcie_h2d``, ``pcie_d2h``) that ran;
* ``serve:req`` / ``serve:node`` processes for a traced serving run.

Lane convention: ``"<process label>/<track label>"``.  Process labels map
to ``pid``, full lanes to ``tid``; both get name-metadata events so the
viewer shows readable names.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

from .schema import validate_trace
from .spans import SpanEvent


def _split_lane(lane: str) -> tuple[str, str]:
    process, _, track = lane.partition("/")
    return process or "host", track or "main"


def chrome_trace(events: Iterable[SpanEvent]) -> dict:
    """Build a Trace-Event-Format dict from merged span events.

    Timestamps are normalised so the earliest span starts at 0; lanes are
    assigned stable ``pid``/``tid`` ids in first-seen order, with
    ``process_name``/``thread_name`` metadata carrying the labels.
    """
    events = list(events)
    t0 = min((e.ts_us for e in events), default=0.0)
    pids: dict[str, int] = {}
    tids: dict[str, int] = {}
    out: list[dict] = []
    for event in events:
        process, track = _split_lane(event.lane)
        if process not in pids:
            pids[process] = len(pids)
            out.append(
                {
                    "ph": "M",
                    "pid": pids[process],
                    "tid": 0,
                    "name": "process_name",
                    "args": {"name": process},
                }
            )
        if event.lane not in tids:
            tids[event.lane] = len(tids)
            out.append(
                {
                    "ph": "M",
                    "pid": pids[process],
                    "tid": tids[event.lane],
                    "name": "thread_name",
                    "args": {"name": track},
                }
            )
        entry = {
            "ph": "X",
            "pid": pids[process],
            "tid": tids[event.lane],
            "name": event.name,
            "cat": event.cat,
            "ts": max(0.0, event.ts_us - t0),
            "dur": max(0.0, event.dur_us),
        }
        if event.args:
            entry["args"] = dict(event.args)
        out.append(entry)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def write_trace(events: Iterable[SpanEvent], path) -> Path:
    """Validate and write the merged trace JSON; returns the path."""
    payload = chrome_trace(events)
    validate_trace(payload)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=1, default=str))
    return path
