"""Tests for the chrome-trace exporter."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import topk
from repro.device import STREAMS, chrome_trace, write_chrome_trace


class TestChromeTrace:
    @pytest.fixture()
    def run(self, rng):
        data = rng.standard_normal(50000).astype(np.float32)
        return topk(data, 128, algo="radix_select")

    def test_event_structure(self, run):
        payload = chrome_trace(run.device.timeline, device=run.device)
        events = payload["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        metas = [e for e in events if e["ph"] == "M"]
        assert len(metas) == len(STREAMS)
        assert len(slices) == len(run.device.timeline.events)
        for e in slices:
            assert e["dur"] >= 0
            assert e["ts"] >= 0
            assert e["cat"] in STREAMS

    def test_timestamps_in_microseconds(self, run):
        payload = chrome_trace(run.device.timeline)
        last_end = max(
            e["ts"] + e["dur"] for e in payload["traceEvents"] if e["ph"] == "X"
        )
        assert last_end == pytest.approx(run.device.elapsed * 1e6, rel=0.01)

    def test_kernel_args_attached(self, run):
        payload = chrome_trace(run.device.timeline, device=run.device)
        kernel_events = [
            e
            for e in payload["traceEvents"]
            if e["ph"] == "X" and e["name"] == "CalculateOccurrence"
        ]
        assert kernel_events
        assert "bytes_read" in kernel_events[0]["args"]

    def test_write_roundtrip(self, run, tmp_path):
        path = write_chrome_trace(run.device, tmp_path / "deep" / "trace.json")
        payload = json.loads(path.read_text())
        assert payload["traceEvents"]

    def test_streams_are_separate_tracks(self, run):
        payload = chrome_trace(run.device.timeline)
        tids = {
            e["cat"]: e["tid"] for e in payload["traceEvents"] if e["ph"] == "X"
        }
        assert tids["gpu"] != tids["cpu"]
        assert len(set(tids.values())) == len(tids)

