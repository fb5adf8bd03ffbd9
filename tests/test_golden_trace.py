"""Golden pins of the Chrome-trace files that ``--trace`` writes.

A traced ``topk`` run and a traced ``sweep --workers 1`` run are made
in process, and every event of each trace file is pinned in file order:

* each metadata event as written (``pid``, ``tid``, name and label);
* each complete event's name, category, lane (``"<process>/<thread>"``)
  and args;
* for a simulated event (category ``sim.*``) also its duration and its
  start relative to the ``point`` span that ran it, rounded to 1 ns.

Host wall-clock values — the start and duration of host spans — are
dropped.  The span tracer's clock is replaced by a deterministic one
(a realistic magnitude of about 11.6 days of uptime, one second per
reading), so the relative starts go through the same float arithmetic
as on a real clock but round the same way on every run.

Regenerate (only for an intended output change, and say why in the
change log) with::

    PYTHONPATH=src python tests/test_golden_trace.py
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from repro.cli import main
from repro.obs import SpanTracer

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_trace"

#: traced runs: name -> CLI arguments (the trace path is appended)
RUNS = {
    "topk": ["topk", "--n", "2^12", "--k", "16"],
    "sweep": ["sweep", "--vary", "k", "--n", "2^12", "--points", "8,64",
              "--cap", "2^12", "--with-auto", "--workers", "1"],
}

#: first reading of the stand-in span clock, and its step, in µs
CLOCK_START_US = 1e12
CLOCK_STEP_US = 1e6


def _lanes(events: list[dict]) -> dict[tuple[int, int], str]:
    processes = {
        e["pid"]: e["args"]["name"] for e in events if e["name"] == "process_name"
    }
    return {
        (e["pid"], e["tid"]): f"{processes[e['pid']]}/{e['args']['name']}"
        for e in events
        if e["name"] == "thread_name"
    }


def trace_records(payload: dict) -> dict:
    """The wall-clock-free record of one trace file."""
    events = payload["traceEvents"]
    lanes = _lanes([e for e in events if e["ph"] == "M"])
    point_starts = sorted(
        e["ts"] for e in events if e["ph"] == "X" and e["cat"] == "point"
    )
    records = []
    for e in events:
        if e["ph"] == "M":
            records.append(e)
            continue
        record = {
            "name": e["name"],
            "cat": e["cat"],
            "lane": lanes[e["pid"], e["tid"]],
            "args": e.get("args", {}),
        }
        if e["cat"].startswith("sim."):
            point = max(ts for ts in point_starts if ts <= e["ts"])
            record.update(dur=e["dur"], start=round(e["ts"] - point, 3))
        records.append(record)
    return {"displayTimeUnit": payload["displayTimeUnit"], "events": records}


def trace_pins(name: str) -> dict:
    """Run ``name`` with tracing on the stand-in clock; its trace record."""
    ticks = itertools.count()

    def now_us(self) -> float:
        return CLOCK_START_US + CLOCK_STEP_US * next(ticks)

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
        SpanTracer, "now_us", now_us
    ):
        path = Path(tmp, "trace.json")
        argv = RUNS[name] + ["--trace", str(path), "-q"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        return trace_records(json.loads(path.read_text()))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_trace_matches_golden(name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text())
    assert trace_pins(name) == golden


def regenerate() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for name in sorted(RUNS):
        text = json.dumps(trace_pins(name), indent=1) + "\n"
        (GOLDEN / f"{name}.json").write_text(text)


if __name__ == "__main__":
    regenerate()
