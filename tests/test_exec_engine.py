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
from repro.bench.runner import BenchPoint, sweep
from repro.exec import (
    PointSpec,
    ProgressEvent,
    build_grid,
    default_chunk_size,
    execute_point,
    parallel_sweep,
    point_seed,
)
from repro.exec import worker as worker_mod
from repro.faults import FaultPlan, FaultRule

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


class TestPointSeed:
    def test_deterministic(self):
        a = point_seed(0, distribution="uniform", n=1024, k=16, batch=1)
        b = point_seed(0, distribution="uniform", n=1024, k=16, batch=1)
        assert a == b
        assert isinstance(a, int) and 0 <= a < 2**32

    def test_distinct_across_coordinates(self):
        seeds = {
            point_seed(0, distribution=d, n=n, k=k, batch=b)
            for d in ("uniform", "normal")
            for n in (1024, 2048)
            for k in (8, 16)
            for b in (1, 4)
        }
        assert len(seeds) == 16

    def test_depends_on_base_seed(self):
        kw = dict(distribution="uniform", n=1024, k=16, batch=1)
        assert point_seed(0, **kw) != point_seed(1, **kw)


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

    def test_per_point_seed_mode(self):
        shared = build_grid(algos=("a",), ns=(8, 16), ks=(2,), seed=7)
        per = build_grid(
            algos=("a",), ns=(8, 16), ks=(2,), seed=7, seed_mode="per-point"
        )
        assert {s.seed for s in shared} == {7}
        assert len({s.seed for s in per}) == 2

    def test_rejects_unknown_seed_mode(self):
        with pytest.raises(ValueError):
            build_grid(seed_mode="nope")


class TestValidation:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            parallel_sweep(workers=0)

    def test_rejects_bad_timeout(self):
        with pytest.raises(ValueError):
            parallel_sweep(timeout=-1.0)

    def test_chunk_size_bounds(self):
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(1, 4) == 1
        assert default_chunk_size(1000, 4) == 32  # ceil(1000 / 32)


class TestProgress:
    def test_events_count_up_with_eta(self):
        events: list[ProgressEvent] = []
        parallel_sweep(
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
        adversarial_m=20,
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
        execute_point(_spec(retries=1))
        assert calls["n"] == 2  # the attempt plus exactly one retry

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
        res = parallel_sweep(algos=("sort",), ns=(1 << 10,), ks=(4,))
        assert [p.status for p in res.points] == ["error"]


class TestWorkerFaults:
    """Injected worker faults (satellite d): deterministic flaky workers,
    retry/backoff, and the workers=1 == workers=N pin under one seed."""

    FLAKY = FaultPlan(
        seed=3,
        rules=(
            FaultRule(kind="worker_crash", rate=0.3, site="exec.point"),
            FaultRule(kind="timeout", rate=0.15, site="exec.point"),
        ),
    )
    GRID = dict(algos=("sort", "air_topk"), ns=(1 << 10, 1 << 11), ks=(16, 32))

    def test_injected_crash_consumes_retries(self):
        plan = FaultPlan(
            seed=3, rules=(FaultRule(kind="worker_crash", rate=0.3),)
        )
        # index 0 with seed 3 crashes on attempt 0 only: the retry recovers
        point = execute_point(_spec(index=0, faults=plan))
        assert point.status == "ok"
        # index 2 crashes on every draw: the default budget (1 retry)
        # exhausts into an error row
        point = execute_point(_spec(index=2, faults=plan))
        assert point.status == "error"
        assert point.detail == "injected worker crash"

    def test_sticky_crash_exhausts_into_error_row(self):
        plan = FaultPlan(
            seed=3,
            rules=(FaultRule(kind="worker_crash", rate=0.3, sticky=True),),
        )
        point = execute_point(_spec(index=0, faults=plan, retries=3))
        assert point.status == "error"
        assert point.detail == "injected worker crash"

    def test_injected_timeout_row_not_retried(self):
        plan = FaultPlan(
            seed=0, rules=(FaultRule(kind="timeout", rate=1.0),)
        )
        point = execute_point(_spec(faults=plan))
        assert point.status == "timeout" and point.time is None
        assert "injected" in point.detail

    def test_backoff_sleeps_between_retries(self, monkeypatch):
        naps: list[float] = []
        monkeypatch.setattr(worker_mod.time, "sleep", naps.append)

        def boom(*a, **kw):
            raise RuntimeError("persistent")

        monkeypatch.setattr(worker_mod, "run_point", boom)
        execute_point(_spec(retries=3, backoff_s=0.01, backoff_cap_s=0.025))
        assert naps == [0.01, 0.02, 0.025]  # capped exponential

    def test_no_backoff_by_default(self, monkeypatch):
        naps: list[float] = []
        monkeypatch.setattr(worker_mod.time, "sleep", naps.append)

        def boom(*a, **kw):
            raise RuntimeError("persistent")

        monkeypatch.setattr(worker_mod, "run_point", boom)
        execute_point(_spec(retries=2))
        assert naps == []

    def test_flaky_sweep_identical_across_worker_counts(self):
        """The acceptance pin: the same fault seed produces the same rows
        at any worker count — injection draws key on the grid index, not
        the process that happens to run the point."""
        serial = parallel_sweep(workers=1, faults=self.FLAKY, **self.GRID)
        pooled = parallel_sweep(workers=4, chunk_size=1, faults=self.FLAKY,
                                **self.GRID)
        assert serial.points == pooled.points
        statuses = {p.status for p in serial.points}
        assert "timeout" in statuses  # chaos actually fired
        rows = [(p.status, p.detail) for p in serial.points
                if p.detail.startswith("injected")]
        assert rows  # at least one injected row, pinned above

    def test_no_plan_unchanged(self):
        """faults=None must reproduce the fault-free sweep exactly."""
        a = parallel_sweep(workers=1, **self.GRID)
        b = parallel_sweep(workers=1, faults=None, **self.GRID)
        assert a.points == b.points
        assert all(p.status == "ok" for p in a.points)


class TestSeedModes:
    def test_per_point_matches_itself_across_workers(self):
        kw = dict(
            algos=("sort", "air_topk"),
            ns=(1 << 10, 1 << 11),
            ks=(4,),
            seed_mode="per-point",
        )
        serial = parallel_sweep(workers=1, **kw)
        pooled = parallel_sweep(workers=2, **kw)
        assert serial.points == pooled.points


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
        res = parallel_sweep(workers=1, **self.GRID)
        for p in res.points:
            if p.status == "ok":
                assert p.counters is not None
                assert p.counters.kernel_launches > 0
            else:
                assert p.counters is None

    def test_totals_identical_across_worker_counts(self):
        from repro.device import aggregate_counters

        serial = parallel_sweep(workers=1, **self.GRID)
        pooled = parallel_sweep(workers=4, **self.GRID)
        assert serial.points == pooled.points
        total_1 = aggregate_counters(serial.points)
        total_n = aggregate_counters(pooled.points)
        assert total_1 == total_n
        assert total_1.kernel_launches > 0
        assert total_1.bytes_read > 0

    def test_telemetry_merges_worker_spans_and_metrics(self):
        from repro import obs

        with obs.trace_session() as tracer, obs.metrics_session() as registry:
            res = parallel_sweep(workers=2, **self.GRID)
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
