"""Tests for the unified telemetry layer (repro.obs).

Covers the four pieces — span tracer, metrics registry, run manifests,
cost-model drift — plus the two cross-cutting contracts: the disabled
path is a true no-op (shared null span, zero recorded events, golden CSV
unchanged), and the merged Trace-Event export satisfies the schema that
Perfetto/chrome://tracing require.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import obs
from repro.bench.report import read_csv, write_csv
from repro.bench import sweep
from repro.bench.runner import BenchPoint, run_point
from repro.device import Device, aggregate_counters, timeline_spans
from repro.obs.drift import drift_report, point_drift, record_point_drift
from repro.obs.metrics import DEFAULT_BOUNDS, Histogram, MetricsRegistry
from repro.obs.schema import SchemaError


GOLDEN_GRID = dict(
    algos=("air_topk", "sort", "radix_select", "bitonic_topk", "auto"),
    distributions=("uniform",),
    ns=(1024, 4096),
    ks=(16, 2048),
    batches=(1,),
    seed=0,
)


def _ok_point(algo="sort", time=1e-4, **kw) -> BenchPoint:
    base = dict(algo=algo, distribution="uniform", n=1024, k=16, batch=1, time=time)
    base.update(kw)
    return BenchPoint(**base)


# --------------------------------------------------------------------------- #
# span tracer
# --------------------------------------------------------------------------- #
class TestSpans:
    def test_disabled_span_is_shared_null_singleton(self):
        assert not obs.tracing_enabled()
        s1 = obs.span("a")
        s2 = obs.span("b", cat="x", foo=1)
        assert s1 is obs.NULL_SPAN and s2 is obs.NULL_SPAN
        with s1 as handle:
            handle.set(ignored=True)  # must not raise

    def test_session_records_spans_with_args(self):
        with obs.trace_session() as tracer:
            with obs.span("work", cat="test", n=8) as s:
                s.set(status="ok")
        assert not obs.tracing_enabled()  # restored on exit
        (event,) = tracer.events
        assert event.name == "work"
        assert event.cat == "test"
        assert event.args == {"n": 8, "status": "ok"}
        assert event.lane == obs.DEFAULT_LANE
        assert event.dur_us >= 0

    def test_exception_recorded_and_propagated(self):
        with obs.trace_session() as tracer:
            with pytest.raises(ValueError):
                with obs.span("explodes", cat="test"):
                    raise ValueError("boom")
        (event,) = tracer.events
        assert event.args["error"] == "ValueError"

    def test_nested_sessions_restore_previous(self):
        with obs.trace_session() as outer:
            with obs.trace_session() as inner:
                assert obs.get_tracer() is inner
            assert obs.get_tracer() is outer

    def test_lanes_first_seen_order(self):
        with obs.trace_session() as tracer:
            tracer.emit("a", cat="t", lane="host/w2", ts_us=0, dur_us=1)
            tracer.emit("b", cat="t", lane="host/w1", ts_us=0, dur_us=1)
            tracer.emit("c", cat="t", lane="host/w2", ts_us=2, dur_us=1)
        assert tracer.lanes() == ["host/w2", "host/w1"]


class TestDisabledIsNoOp:
    def test_sweep_without_session_records_nothing(self):
        bystander = obs.SpanTracer()  # constructed but never installed
        registry = MetricsRegistry()
        res = sweep(workers=1, **GOLDEN_GRID)
        assert len(res.points) == 20
        assert len(bystander) == 0
        assert len(registry) == 0
        assert obs.get_tracer() is None and obs.get_metrics() is None

    def test_golden_csv_unchanged_by_telemetry_code(self, tmp_path):
        """The seed sweep still reproduces the committed CSV byte for byte
        with all telemetry disabled (the zero-overhead contract)."""
        res = sweep(workers=1, **GOLDEN_GRID)
        path = write_csv(res.points, tmp_path / "sweep.csv")
        golden = (
            Path(__file__).parent / "data" / "golden_sweep.csv"
        ).read_bytes()
        assert path.read_bytes() == golden


# --------------------------------------------------------------------------- #
# metrics registry
# --------------------------------------------------------------------------- #
class TestMetrics:
    def test_counter_accumulates_per_label_set(self):
        reg = MetricsRegistry()
        reg.counter("hits", algo="a").inc()
        reg.counter("hits", algo="a").inc(2)
        reg.counter("hits", algo="b").inc()
        assert reg.counter("hits", algo="a").value == 3
        assert reg.counter("hits", algo="b").value == 1

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("x").inc(-1)

    def test_histogram_buckets_and_summary(self):
        h = Histogram(bounds=(0.0, 1.0))
        for v in (-0.5, 0.5, 0.75, 5.0):
            h.observe(v)
        assert h.counts == [1, 2, 1]  # <=0, <=1, overflow
        assert h.count == 4
        assert h.min == -0.5 and h.max == 5.0
        assert h.mean == pytest.approx(5.75 / 4)

    @pytest.mark.parametrize(
        "bounds", [(-1.0, 0.0, 0.0, 1e-3, 1.0, 5.0), DEFAULT_BOUNDS, (2.0,)]
    )
    def test_histogram_bucket_is_first_bound_at_or_above(self, bounds):
        """NaN, ±inf, −0.0 and values equal to a bound land where a walk
        over the bounds puts them; NaN is above every bound."""
        nan, inf = float("nan"), float("inf")
        values = [*bounds, nan, inf, -inf, -0.0, -5.0, 0.5, 4.999, 1e300]
        values += [b * (1 + 1e-12) for b in bounds]
        for value in values:
            h = Histogram(bounds=bounds)
            h.observe(value)
            want = next((i for i, b in enumerate(bounds) if value <= b), len(bounds))
            assert h.counts == [int(i == want) for i in range(len(bounds) + 1)]

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            Histogram(bounds=(1.0, 0.0))

    def test_merge_adds_counters_and_histograms(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc(1)
        b.counter("c").inc(2)
        b.counter("only_b").inc(5)
        a.histogram("h").observe(0.1)
        b.histogram("h").observe(0.3)
        b.gauge("g").set(7)
        a.merge(b)
        assert a.counter("c").value == 3
        assert a.counter("only_b").value == 5
        assert a.histogram("h").count == 2
        assert a.gauge("g").value == 7

    def test_merge_rejects_bound_mismatch(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.histogram("h", bounds=(0.0, 1.0)).observe(0.5)
        b.histogram("h", bounds=(0.0, 2.0)).observe(0.5)
        with pytest.raises(ValueError):
            a.merge(b)

    def test_count_helper_is_noop_when_disabled(self):
        assert not obs.metrics_enabled()
        obs.count("ghost", algo="x")  # must not raise, must not record
        with obs.metrics_session() as reg:
            obs.count("real", amount=2.0)
            assert reg.counter("real").value == 2.0
        assert not obs.metrics_enabled()

    def test_payload_validates_and_writes(self, tmp_path):
        with obs.metrics_session() as reg:
            reg.counter("c", algo="a").inc()
            reg.gauge("g").set(1.5)
            reg.histogram("h").observe(0.25)
            path = reg.write(tmp_path / "metrics.json")
        payload = json.loads(path.read_text())
        obs.validate_metrics(payload)
        assert payload["schema"] == "repro.obs.metrics/v1"
        (hist,) = payload["histograms"]
        assert hist["buckets"][-1]["le"] == "+inf"
        assert len(hist["buckets"]) == len(DEFAULT_BOUNDS) + 1


# --------------------------------------------------------------------------- #
# schema validator
# --------------------------------------------------------------------------- #
class TestSchema:
    def test_missing_required_key(self):
        with pytest.raises(SchemaError, match="missing required key"):
            obs.validate({"a": 1}, {"type": "object", "required": ["b"]})

    def test_wrong_type_reports_path(self):
        schema = {
            "type": "object",
            "properties": {"n": {"type": "integer"}},
        }
        with pytest.raises(SchemaError, match=r"\$\.n"):
            obs.validate({"n": "nope"}, schema)

    def test_bool_is_not_a_number(self):
        with pytest.raises(SchemaError):
            obs.validate(True, {"type": "number"})

    def test_const_and_enum(self):
        with pytest.raises(SchemaError):
            obs.validate("v2", {"const": "v1"})
        with pytest.raises(SchemaError):
            obs.validate("Z", {"enum": ["X", "M"]})

    def test_items_checked_per_element(self):
        schema = {"type": "array", "items": {"type": "integer"}}
        obs.validate([1, 2], schema)
        with pytest.raises(SchemaError, match=r"\[1\]"):
            obs.validate([1, "x"], schema)

    def test_union_types(self):
        # nullable fields (e.g. the cluster snapshot's per-cell latency
        # percentiles) use JSON Schema's list-of-types form
        schema = {"type": ["number", "null"]}
        obs.validate(1.5, schema)
        obs.validate(None, schema)
        with pytest.raises(SchemaError, match="number|null"):
            obs.validate("nope", schema)
        with pytest.raises(SchemaError):
            obs.validate(True, schema)  # bool is not a number in unions either


# --------------------------------------------------------------------------- #
# trace export
# --------------------------------------------------------------------------- #
class TestExport:
    def test_round_trip_has_tef_fields(self, tmp_path):
        with obs.trace_session() as tracer:
            tracer.emit("parent", cat="host", lane="host/main", ts_us=10.0, dur_us=5.0)
            tracer.emit("child", cat="sim", lane="point 0/gpu", ts_us=11.0, dur_us=2.0)
            path = obs.write_trace(tracer.events, tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        obs.validate_trace(payload)
        events = payload["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        metas = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in xs} == {"parent", "child"}
        for e in xs:
            assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
            assert e["ts"] >= 0 and e["dur"] >= 0
        # both lane labels surface as name metadata
        names = {e["args"]["name"] for e in metas}
        assert {"host", "point 0", "main", "gpu"} <= names

    def test_processes_get_distinct_pids(self):
        with obs.trace_session() as tracer:
            tracer.emit("a", cat="t", lane="host/main", ts_us=0, dur_us=1)
            tracer.emit("b", cat="t", lane="sim x/gpu", ts_us=0, dur_us=1)
        payload = obs.chrome_trace(tracer.events)
        xs = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert xs[0]["pid"] != xs[1]["pid"]

    def test_timestamps_normalised_to_zero(self):
        with obs.trace_session() as tracer:
            tracer.emit("late", cat="t", lane="host/main", ts_us=1000.0, dur_us=1.0)
        payload = obs.chrome_trace(tracer.events)
        (x,) = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert x["ts"] == 0.0

    def test_timeline_spans_rebase_onto_wall_clock(self):
        device = Device()
        device.launch_kernel(
            "k",
            grid_blocks=1,
            block_threads=128,
            bytes_read=1024.0,
            span_args={"note": "hello"},
        )
        spans = timeline_spans(device.timeline, lane_prefix="sim test", device=device)
        assert spans, "kernel launch must produce at least one span"
        # emitted at simulated time 0; the tracer shifts them on merge
        assert [s.ts_us for s in spans] == [
            e.start * 1e6 for e in device.timeline.events
        ]
        tracer = obs.SpanTracer()
        tracer.extend(spans, base_us=500.0)
        for at_zero, rebased in zip(spans, tracer.events, strict=True):
            assert rebased.lane.startswith("sim test/")
            assert rebased.ts_us == at_zero.ts_us + 500.0
            assert rebased.dur_us == at_zero.dur_us
        gpu = [s for s in tracer.events if s.lane == "sim test/gpu"]
        assert gpu[0].args["note"] == "hello"
        assert gpu[0].args["bytes_read"] == pytest.approx(1024.0)


# --------------------------------------------------------------------------- #
# manifests
# --------------------------------------------------------------------------- #
class TestManifest:
    def test_build_and_write_round_trip(self, tmp_path):
        res = sweep(
            algos=("sort", "air_topk"), ns=(1 << 10,), ks=(4, 2048), workers=1
        )
        manifest = obs.build_manifest(
            command="sweep",
            config={"workers": 1},
            seed=0,
            points=res.points,
            wall_time_s=1.25,
            artifacts={"csv": "sweep.csv"},
        )
        path = obs.write_manifest(manifest, tmp_path / "manifest.json")
        loaded = json.loads(path.read_text())
        obs.validate_manifest(loaded)
        assert loaded["grid"]["total_points"] == 4
        assert loaded["status"]["ok"] == 2  # both algos at k=4
        assert loaded["status"]["unsupported"] == 2  # k=2048 > n for both
        assert loaded["versions"]["repro"]
        assert loaded["device_counters"]["kernel_launches"] > 0

    def test_aggregate_counters_sum_and_peak(self):
        res = sweep(algos=("sort",), ns=(1 << 10,), ks=(4,), workers=1)
        (p,) = res.points
        total = aggregate_counters([p, p])
        assert total.kernel_launches == 2 * p.counters.kernel_launches
        assert total.bytes_read == pytest.approx(2 * p.counters.bytes_read)
        # peak workspace takes the max, not the sum
        assert total.peak_workspace_bytes == p.counters.peak_workspace_bytes

    def test_invalid_manifest_rejected(self, tmp_path):
        with pytest.raises(SchemaError):
            obs.write_manifest({"schema": "repro.obs.manifest/v1"}, tmp_path / "m.json")


# --------------------------------------------------------------------------- #
# cost-model drift
# --------------------------------------------------------------------------- #
class TestDrift:
    def test_point_drift_ratio(self):
        from repro.perf.costmodel import predict_topk_time

        predicted = predict_topk_time("sort", n=1024, k=16, batch=1)
        point = _ok_point(algo="sort", time=2 * predicted)
        (d,) = point_drift([point])
        assert d.ratio == pytest.approx(2.0)
        assert d.log2_ratio == pytest.approx(1.0)

    def test_auto_rows_map_to_dispatch_target(self):
        point = _ok_point(algo="auto", detail="dispatch=radix_select")
        (d,) = point_drift([point])
        assert d.algo == "radix_select"

    def test_skips_unmeasured_and_unpredictable(self):
        points = [
            _ok_point(algo="sort", time=None, status="error"),
            _ok_point(algo="auto", detail=""),  # no dispatch target
        ]
        assert point_drift(points) == []

    def test_report_summarises_per_algo(self):
        from repro.perf.costmodel import predict_topk_time

        predicted = predict_topk_time("sort", n=1024, k=16, batch=1)
        points = [
            _ok_point(algo="sort", time=2 * predicted),
            _ok_point(algo="sort", time=0.5 * predicted, n=1024, k=16),
        ]
        (row,) = drift_report(points)
        assert row.algo == "sort"
        assert row.points == 2
        assert row.geomean_ratio == pytest.approx(1.0)  # 2x and 0.5x cancel
        assert row.min_ratio == pytest.approx(0.5)
        assert row.max_ratio == pytest.approx(2.0)
        assert row.rmse_log2 == pytest.approx(1.0)

    def test_record_point_drift_fills_histogram(self):
        reg = MetricsRegistry()
        record_point_drift(reg, _ok_point(algo="sort"))
        hist = reg.histogram("costmodel.log2_ratio", algo="sort")
        assert hist.count == 1
        assert reg.counter("costmodel.points", algo="sort").value == 1

    def test_real_sweep_round_trips_through_csv(self, tmp_path):
        res = sweep(
            algos=("sort", "radix_select"), ns=(1 << 10,), ks=(16,), workers=1
        )
        path = write_csv(res.points, tmp_path / "s.csv")
        rows = drift_report(read_csv(path))
        assert {r.algo for r in rows} == {"sort", "radix_select"}
        assert all(r.points == 1 for r in rows)


# --------------------------------------------------------------------------- #
# instrumentation wiring
# --------------------------------------------------------------------------- #
class TestInstrumentation:
    def test_run_point_emits_host_and_sim_spans(self):
        with obs.trace_session() as tracer:
            point = run_point("air_topk", distribution="uniform", n=1 << 12, k=16)
        assert point.status == "ok"
        cats = {e.cat for e in tracer.events}
        assert "point" in cats  # the host-side span
        assert "sim.gpu" in cats  # re-based device timeline
        point_span = next(e for e in tracer.events if e.cat == "point")
        sim = [e for e in tracer.events if e.cat.startswith("sim.")]
        # simulated events live inside the wall-clock window of their point
        assert all(s.ts_us >= point_span.ts_us for s in sim)

    def test_metrics_session_collects_algorithm_counters(self):
        with obs.metrics_session() as reg:
            run_point("air_topk", distribution="uniform", n=1 << 12, k=16)
            run_point("grid_select", distribution="uniform", n=1 << 12, k=16)
        names = {key[0] for key in reg._counters}
        assert "air.passes" in names
        assert "queue.inserts" in names

    def test_local_session_is_isolated_from_parent(self):
        with obs.trace_session() as parent:
            with obs.local_session(trace=True, lane="host/w1") as (tracer, registry):
                assert obs.get_tracer() is tracer
                assert registry is None  # metrics not requested
                with obs.span("inner", cat="test"):
                    pass
            assert obs.get_tracer() is parent
            assert len(parent) == 0  # nothing leaked into the parent buffer
            assert len(tracer) == 1
            assert tracer.events[0].lane == "host/w1"
