"""Tests for the parallel sweep execution engine (repro.exec).

The load-bearing guarantee is determinism: a sweep's CSV must be
byte-identical whether it ran inline or sharded over a process pool —
pinned against a committed golden file so a behaviour change in *either*
path (or in the algorithms underneath) is caught, not silently absorbed.
The failure-isolation contract (retry-once, error rows, timeout rows) is
exercised on the inline path by stubbing the point runner.
"""

from __future__ import annotations

import signal
import time

import pytest

from repro.bench.report import write_csv
from repro.bench.runner import BenchPoint
from repro.exec import (
    RETRIES,
    PointSpec,
    ProgressEvent,
    build_grid,
    default_chunk_size,
    execute_point,
    sweep,
)
from repro.exec import worker as worker_mod

GOLDEN_GRID = dict(
    algos=("air_topk", "sort", "radix_select", "bitonic_topk", "auto"),
    distributions=("uniform",),
    ns=(1024, 4096),
    ks=(16, 2048),
    batches=(1,),
    seed=0,
)
#: batch > 1 pins every method with a batched schedule, above batch 1
GOLDEN_BATCHED_GRID = dict(
    algos=(
        "air_topk",
        "bucket_select",
        "quick_select",
        "sample_select",
        "bucket_approx",
        "twostage_approx",
    ),
    distributions=("uniform", "adversarial"),
    ns=(4096, 16384),
    ks=(16, 512),
    batches=(8, 100),
    seed=0,
)


def golden_bytes(name: str = "golden_sweep.csv") -> bytes:
    from pathlib import Path

    return (Path(__file__).parent / "data" / name).read_bytes()


class TestGoldenRegression:
    @pytest.mark.parametrize("workers", (1, 4))
    def test_csv_matches_golden(self, workers, tmp_path):
        """Serial and 4-worker runs both reproduce the committed CSV
        byte for byte."""
        res = sweep(workers=workers, **GOLDEN_GRID)
        path = write_csv(res.points, tmp_path / "sweep.csv")
        assert path.read_bytes() == golden_bytes()

    @pytest.mark.parametrize("workers", (1, 4))
    def test_batched_csv_matches_golden(self, workers, tmp_path):
        """Simulated times at batch 8 and 100 match the committed CSV
        byte for byte, serial and at 4 workers."""
        res = sweep(workers=workers, **GOLDEN_BATCHED_GRID)
        path = write_csv(res.points, tmp_path / "sweep.csv")
        assert path.read_bytes() == golden_bytes("golden_sweep_batched.csv")

    def test_row_classes_present(self):
        """The golden grid covers every row class the engine can emit."""
        res = sweep(workers=1, **GOLDEN_GRID)
        statuses = {p.status for p in res.points}
        assert statuses == {"ok", "unsupported"}
        details = [p.detail for p in res.points]
        assert any(d.startswith("dispatch=") for d in details)
        assert any("exceeds" in d for d in details)  # k > n rows
        assert any("supports k <=" in d for d in details)  # algo gap rows


class TestBuildGrid:
    def test_serial_nesting_order(self):
        slots = build_grid(
            algos=("a", "b"),
            distributions=("u", "v"),
            ns=(8,),
            ks=(2, 4),
            batches=(1,),
        )
        coords = [
            (s.distribution, s.batch, s.n, s.k, s.algo)
            for s in slots
            if isinstance(s, PointSpec)
        ]
        assert coords == [
            (d, 1, 8, k, a) for d in ("u", "v") for k in (2, 4) for a in ("a", "b")
        ]
        assert [s.index for s in slots] == list(range(len(slots)))

    def test_k_above_n_becomes_final_row(self):
        slots = build_grid(algos=("a",), ns=(8,), ks=(4, 16))
        assert isinstance(slots[0], PointSpec)
        assert isinstance(slots[1], BenchPoint)
        assert slots[1].status == "unsupported" and "exceeds" in slots[1].detail


class TestValidation:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            sweep(workers=0)

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            sweep(timeout=-1.0)

    def test_chunk_size_bounds(self):
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(1, 4) == 1
        assert default_chunk_size(1000, 4) == 32  # ceil(1000 / 32)


class TestProgress:
    def test_events_count_up_with_eta(self):
        events: list[ProgressEvent] = []
        sweep(
            algos=("sort", "air_topk"),
            ns=(1 << 10,),
            ks=(4, 2048),
            progress=events.append,
        )
        assert [e.done for e in events] == [1, 2, 3, 4]
        assert all(e.total == 4 for e in events)
        assert all(e.eta_s is not None and e.eta_s >= 0 for e in events)
        assert events[-1].fraction == 1.0
        assert events[-1].eta_s == 0.0


def _spec(**overrides) -> PointSpec:
    kw = dict(
        index=0,
        algo="sort",
        distribution="uniform",
        n=1 << 10,
        k=4,
        batch=1,
        spec=None,
        cap=1 << 14,
        seed=0,
    )
    kw.update(overrides)
    if kw["spec"] is None:
        from repro.device import A100

        kw["spec"] = A100
    return PointSpec(**kw)


class TestFailureIsolation:
    def test_crash_becomes_error_row(self, monkeypatch):
        def boom(*a, **kw):
            raise RuntimeError("kaput")

        monkeypatch.setattr(worker_mod, "run_point", boom)
        point = execute_point(_spec())
        assert point.status == "error" and point.time is None
        assert "kaput" in point.detail

    def test_retry_once_recovers(self, monkeypatch):
        calls = {"n": 0}
        real = worker_mod.run_point

        def flaky(*a, **kw):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            return real(*a, **kw)

        monkeypatch.setattr(worker_mod, "run_point", flaky)
        point = execute_point(_spec())
        assert calls["n"] == 2
        assert point.status == "ok" and point.time is not None

    def test_retries_exhausted(self, monkeypatch):
        calls = {"n": 0}

        def boom(*a, **kw):
            calls["n"] += 1
            raise RuntimeError("persistent")

        monkeypatch.setattr(worker_mod, "run_point", boom)
        execute_point(_spec())
        assert calls["n"] == 1 + RETRIES == 2  # the attempt plus one retry

    @pytest.mark.skipif(
        not hasattr(signal, "setitimer"), reason="needs POSIX interval timers"
    )
    def test_timeout_becomes_timeout_row(self, monkeypatch):
        calls = {"n": 0}

        def slow(*a, **kw):
            calls["n"] += 1
            time.sleep(5.0)

        monkeypatch.setattr(worker_mod, "run_point", slow)
        start = time.perf_counter()
        point = execute_point(_spec(timeout=0.1))
        assert time.perf_counter() - start < 2.0
        assert point.status == "timeout" and point.time is None
        assert calls["n"] == 1  # a timed-out point is not retried

    def test_error_rows_flow_through_sweep(self, monkeypatch):
        def boom(*a, **kw):
            raise RuntimeError("kaput")

        monkeypatch.setattr(worker_mod, "run_point", boom)
        res = sweep(algos=("sort",), ns=(1 << 10,), ks=(4,))
        assert [p.status for p in res.points] == ["error"]


class TestCounterMerge:
    """Per-point device counters survive the pool boundary (telemetry
    satellite: workers=1 and workers=N must report identical totals)."""

    GRID = dict(
        algos=("sort", "air_topk", "radix_select"),
        ns=(1 << 10, 1 << 12),
        ks=(16, 2048),
        seed=0,
    )

    def test_ok_rows_carry_counters(self):
        res = sweep(workers=1, **self.GRID)
        for p in res.points:
            if p.status == "ok":
                assert p.counters is not None
                assert p.counters.kernel_launches > 0
            else:
                assert p.counters is None

    def test_totals_identical_across_worker_counts(self):
        from repro.device import aggregate_counters

        serial = sweep(workers=1, **self.GRID)
        pooled = sweep(workers=4, **self.GRID)
        assert serial.points == pooled.points
        total_1 = aggregate_counters(serial.points)
        total_n = aggregate_counters(pooled.points)
        assert total_1 == total_n
        assert total_1.kernel_launches > 0
        assert total_1.bytes_read > 0

    def test_telemetry_merges_worker_spans_and_metrics(self):
        from repro import obs

        with obs.trace_session() as tracer, obs.metrics_session() as registry:
            res = sweep(workers=2, **self.GRID)
        ok = sum(1 for p in res.points if p.status == "ok")
        # k > n rows are answered by the engine without running a point,
        # so only the executed rows produce a host-side span
        executed = sum(1 for p in res.points if p.k <= p.n)
        point_spans = [e for e in tracer.events if e.cat == "point"]
        assert len(point_spans) == executed
        assert all(e.lane.startswith("host/") for e in point_spans)
        assert len({e.lane for e in point_spans}) >= 2  # both workers ran
        # the engine's own sweep span sits in the main lane
        sweep_spans = [e for e in tracer.events if e.cat == "sweep" and e.name == "sweep"]
        assert len(sweep_spans) == 1 and sweep_spans[0].lane == "host/main"
        # merged metrics tally every point by status
        by_status = {
            key[1][0][1]: c.value
            for key, c in registry._counters.items()
            if key[0] == "sweep.points"
        }
        assert by_status.get("ok") == ok
        assert sum(by_status.values()) == len(res.points)
