"""Tests for the perf-gate harness (``repro.bench.perfgate``).

The gate's job is to catch a de-fused hot path: a wall-clock regression on
a pinned workload grid, measured against the previous ``BENCH_*.json``
snapshot.  These tests pin the snapshot schema, the baseline discovery,
and — the part that must never silently rot — that the comparator actually
flags an artificially slowed run and passes an identical one.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import time

import pytest

from repro.bench import perfgate
from repro.obs.schema import SchemaError, validate


def _snapshot(cells, rev="abc1234"):
    return {
        "schema": perfgate.SCHEMA_ID,
        "rev": rev,
        "gpu": "A100",
        "repeats": 1,
        "seed": 0,
        "cells": cells,
    }


def _cell(algo="air_topk", n=4096, k=16, batch=8, hot=True, sim=1e-4, wall=0.01):
    return {
        "algo": algo,
        "n": n,
        "k": k,
        "batch": batch,
        "hot": hot,
        "sim_time_s": sim,
        "wall_s": wall,
    }


class TestSnapshotRoundTrip:
    def test_collect_validate_write_load(self, tmp_path):
        snap = perfgate.collect_snapshot(
            perfgate.TINY_GRID, repeats=1, rev="deadbee"
        )
        validate(snap, perfgate.SNAPSHOT_SCHEMA)  # already validated inside
        assert len(snap["cells"]) == len(perfgate.TINY_GRID)
        for cell in snap["cells"]:
            assert cell["sim_time_s"] > 0
            assert cell["wall_s"] > 0
        path = perfgate.write_snapshot(snap, tmp_path)
        assert path.name == "BENCH_deadbee.json"
        assert perfgate.load_snapshot(path) == snap

    def test_fused_cells_report_speedup(self):
        snap = perfgate.collect_snapshot(
            (perfgate.GateCell("bucket_select", 512, 8, 4),),
            repeats=1,
            rev="local",
        )
        cell = snap["cells"][0]
        assert cell["wall_unfused_s"] > 0
        assert cell["fused_speedup"] == pytest.approx(
            cell["wall_unfused_s"] / cell["wall_s"]
        )

    def test_invalid_snapshot_rejected(self, tmp_path):
        snap = _snapshot([_cell()])
        del snap["cells"][0]["wall_s"]
        with pytest.raises(SchemaError):
            perfgate.write_snapshot(snap, tmp_path)
        good = _snapshot([_cell()])
        path = perfgate.write_snapshot(good, tmp_path)
        corrupted = json.loads(path.read_text())
        corrupted["schema"] = "something/else"
        path.write_text(json.dumps(corrupted))
        with pytest.raises(SchemaError):
            perfgate.load_snapshot(path)

    def test_find_baseline_prefers_newest_and_excludes(self, tmp_path):
        old = perfgate.write_snapshot(_snapshot([_cell()], rev="old0000"), tmp_path)
        time.sleep(0.01)
        new = perfgate.write_snapshot(_snapshot([_cell()], rev="new0000"), tmp_path)
        assert perfgate.find_baseline(tmp_path) == new
        assert perfgate.find_baseline(tmp_path, exclude=new) == old
        assert perfgate.find_baseline(tmp_path / "empty") is None

    @pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
    def test_find_baseline_prefers_nearest_ancestor_over_mtime(self, tmp_path):
        def git(*args):
            out = subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
                 "-c", "commit.gpgsign=false", *args],
                cwd=tmp_path, capture_output=True, text=True, check=True,
            )
            return out.stdout.strip()

        git("init", "-q")
        git("commit", "-q", "--allow-empty", "-m", "first")
        first = git("rev-parse", "--short", "HEAD")
        git("commit", "-q", "--allow-empty", "-m", "second")
        second = git("rev-parse", "--short", "HEAD")
        git("commit", "-q", "--allow-empty", "-m", "third, no snapshot")
        near = perfgate.write_snapshot(_snapshot([_cell()], rev=second), tmp_path)
        far = perfgate.write_snapshot(_snapshot([_cell()], rev=first), tmp_path)
        stranger = perfgate.write_snapshot(
            _snapshot([_cell()], rev="fffffff"), tmp_path
        )
        # a fresh clone's file times: the far and unrelated snapshots look newest
        os.utime(near, (1_000, 1_000))
        os.utime(far, (2_000, 2_000))
        os.utime(stranger, (3_000, 3_000))
        assert perfgate.find_baseline(tmp_path) == near
        assert perfgate.find_baseline(tmp_path, exclude=near) == far


class TestComparator:
    def test_identical_snapshots_pass(self):
        base = _snapshot([_cell(), _cell(algo="bucket_select")])
        report = perfgate.compare_snapshots(base, base)
        assert report.ok and not report.notes

    def test_hot_wall_regression_fails(self):
        base = _snapshot([_cell(wall=0.010)])
        cur = _snapshot([_cell(wall=0.013)])  # +30% > 25% tolerance
        report = perfgate.compare_snapshots(base, cur)
        assert not report.ok
        assert "1.30x" in report.regressions[0]

    def test_tolerance_is_configurable(self):
        base = _snapshot([_cell(wall=0.010)])
        cur = _snapshot([_cell(wall=0.013)])
        assert perfgate.compare_snapshots(base, cur, tolerance=0.5).ok
        with pytest.raises(ValueError):
            perfgate.compare_snapshots(base, cur, tolerance=-0.1)

    def test_cold_cells_note_but_never_fail(self):
        base = _snapshot([_cell(hot=False, wall=0.010)])
        cur = _snapshot([_cell(hot=False, wall=0.100)])
        report = perfgate.compare_snapshots(base, cur)
        assert report.ok
        assert any("cold" in note for note in report.notes)

    def test_sim_time_drift_is_noted(self):
        base = _snapshot([_cell(sim=1e-4)])
        cur = _snapshot([_cell(sim=2e-4)])
        report = perfgate.compare_snapshots(base, cur)
        assert report.ok
        assert any("simulated time changed" in note for note in report.notes)

    def test_new_and_removed_cells_are_notes(self):
        base = _snapshot([_cell(), _cell(algo="sort")])
        cur = _snapshot([_cell(), _cell(algo="bucket_select")])
        report = perfgate.compare_snapshots(base, cur)
        assert report.ok
        assert any("new cell" in note for note in report.notes)
        assert any("removed" in note for note in report.notes)


class TestGateEndToEnd:
    """Tiny grid, run twice: identical runs pass, a monkeypatched slowdown
    in the measured path is flagged as a regression."""

    GRID = (perfgate.GateCell("air_topk", 512, 8, 4),)

    def test_identical_runs_pass(self):
        a = perfgate.collect_snapshot(self.GRID, repeats=1, rev="aaaaaaa")
        b = perfgate.collect_snapshot(self.GRID, repeats=1, rev="bbbbbbb")
        report = perfgate.compare_snapshots(a, b, tolerance=5.0)
        assert report.ok
        # simulated time is deterministic: bit-equal across runs, no notes
        assert not any("simulated" in note for note in report.notes)

    def test_slowed_run_is_flagged(self, monkeypatch):
        baseline = perfgate.collect_snapshot(self.GRID, repeats=1, rev="aaaaaaa")
        real = perfgate.simulate_topk

        def slowed(*args, **kwargs):
            time.sleep(0.05)
            return real(*args, **kwargs)

        monkeypatch.setattr(perfgate, "simulate_topk", slowed)
        slow = perfgate.collect_snapshot(self.GRID, repeats=1, rev="bbbbbbb")
        report = perfgate.compare_snapshots(baseline, slow)
        assert not report.ok
        assert len(report.regressions) == 1


class TestPerfBenchCLI:
    def test_writes_snapshot_then_gates_against_it(self, tmp_path, capsys):
        from repro.cli import main

        args = [
            "perf-bench", "--tiny", "--repeats", "1",
            "--out", str(tmp_path), "--tolerance", "10",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "no baseline snapshot found" in out
        snaps = list(tmp_path.glob("BENCH_*.json"))
        assert len(snaps) == 1
        # second run gates against the first; huge tolerance -> passes
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "perf gate: ok" in out
        assert "batch=100 fused speedup" not in out  # tiny grid has none
