"""Tests for the Trace-Event export of a simulated device timeline.

A run's timeline goes through :func:`repro.device.timeline_spans` and
the one exporter, :func:`repro.obs.chrome_trace` /
:func:`repro.obs.write_trace` — the path the Fig. 8 traces take.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs, topk
from repro.device import STREAMS, timeline_spans


def trace_spans(run):
    return timeline_spans(
        run.device.timeline, lane_prefix="sim radix_select", device=run.device
    )


class TestChromeTrace:
    @pytest.fixture()
    def run(self, rng):
        data = rng.standard_normal(50000).astype(np.float32)
        return topk(data, 128, algo="radix_select")

    def test_event_structure(self, run):
        payload = obs.chrome_trace(trace_spans(run))
        events = payload["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        metas = [e for e in events if e["ph"] == "M"]
        streams = {event.stream for event in run.device.timeline.events}
        # one process for the run, one track per stream that ran
        assert len(metas) == 1 + len(streams)
        assert len(slices) == len(run.device.timeline.events)
        for e in slices:
            assert e["dur"] >= 0
            assert e["ts"] >= 0
            assert e["cat"] in {f"sim.{stream}" for stream in STREAMS}

    def test_timestamps_in_microseconds(self, run):
        payload = obs.chrome_trace(trace_spans(run))
        last_end = max(
            e["ts"] + e["dur"] for e in payload["traceEvents"] if e["ph"] == "X"
        )
        # the exporter starts the trace at the earliest event
        first = min(event.start for event in run.device.timeline.events)
        assert last_end == pytest.approx(
            (run.device.elapsed - first) * 1e6, rel=0.01
        )

    def test_kernel_args_attached(self, run):
        payload = obs.chrome_trace(trace_spans(run))
        kernel_events = [
            e
            for e in payload["traceEvents"]
            if e["ph"] == "X" and e["name"] == "CalculateOccurrence"
        ]
        assert kernel_events
        assert "bytes_read" in kernel_events[0]["args"]

    def test_write_roundtrip(self, run, tmp_path):
        path = obs.write_trace(trace_spans(run), tmp_path / "deep" / "trace.json")
        payload = json.loads(path.read_text())
        obs.validate_trace(payload)
        assert payload["traceEvents"]

    def test_streams_are_separate_tracks(self, run):
        payload = obs.chrome_trace(trace_spans(run))
        tids = {
            e["cat"]: e["tid"] for e in payload["traceEvents"] if e["ph"] == "X"
        }
        assert tids["sim.gpu"] != tids["sim.cpu"]
        assert len(set(tids.values())) == len(tids)
