"""Serving observability: request tracing, windowed telemetry, SLOs.

Pins this PR's acceptance criteria (docs/serving-observability.md):

* every served request gets a full virtual-time span tree (admission →
  queued → batch → shard/merge → finish) with fault/retry annotations,
  and span coverage of a traced run is >= 95% of requests;
* with no tracing session the span buffer stays empty and outcomes are
  byte-identical to a traced run (the no-op pin, mirroring
  tests/test_obs.py);
* the ``repro.obs.serve_report/v1`` artifact is schema-valid and
  byte-identical across host worker counts (virtual time only);
* SLO evaluation computes per-window burn rates and the availability
  SLO violation exit path fires under an injected fault plan.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import obs
from repro.bench.ascii_plot import sparkline
from repro.bench.report import percentile
from repro.faults import FaultPlan, FaultRule
from repro.obs import SchemaError
from repro.obs.metrics import Histogram
from repro.obs.serve import (
    DEFAULT_SLOS,
    LATENCY_EDGES,
    ServeTelemetry,
    SLOSpec,
    WindowAccum,
    build_serve_report,
    dense_windows,
    evaluate_slos,
    histogram_count_below,
    histogram_quantile,
    load_slo_specs,
    render_serve_report,
    write_serve_report,
)
from repro.serve import LoadSpec, Request, ServeConfig, TopKService, build_requests


def serve_config(**overrides) -> ServeConfig:
    base = dict(
        algo="sort",
        max_batch=4,
        max_delay_s=0.002,
        shards=2,
        shard_min_n=1 << 10,
        window_s=0.01,
    )
    base.update(overrides)
    return ServeConfig(**base)


def unique_requests(count: int, *, n: int = 2048, k: int = 8) -> list[Request]:
    """Distinct payloads so no request short-circuits through the cache."""
    rng = np.random.default_rng(11)
    return [
        Request(
            rid=i,
            data=rng.standard_normal(n).astype(np.float32),
            k=k,
            largest=False,
            arrival_s=i * 0.0015,
        )
        for i in range(count)
    ]


# --------------------------------------------------------------------------- #
# histogram quantile helpers
# --------------------------------------------------------------------------- #
class TestHistogramQuantiles:
    def test_empty_histogram_is_none(self):
        hist = Histogram(bounds=LATENCY_EDGES)
        assert histogram_quantile(hist, 50.0) is None
        assert histogram_count_below(hist, 1.0) == 0.0

    def test_single_sample_is_exact(self):
        hist = Histogram(bounds=LATENCY_EDGES)
        hist.observe(3.3e-3)
        for q in (0.0, 50.0, 100.0):
            assert histogram_quantile(hist, q) == pytest.approx(3.3e-3)

    def test_estimates_track_exact_percentiles(self):
        rng = np.random.default_rng(3)
        samples = rng.lognormal(mean=-7.0, sigma=1.0, size=4000)
        hist = Histogram(bounds=LATENCY_EDGES)
        for s in samples:
            hist.observe(float(s))
        for q in (50.0, 95.0, 99.0):
            exact = percentile(list(samples), q)
            est = histogram_quantile(hist, q)
            # the grid is 16 buckets/decade: ~15% worst-case bucket width
            assert abs(est - exact) / exact < 0.16

    def test_count_below_interpolates_cdf(self):
        hist = Histogram(bounds=LATENCY_EDGES)
        for v in (1e-3,) * 8 + (1e-2,) * 2:
            hist.observe(v)
        assert histogram_count_below(hist, 5e-3) == pytest.approx(8.0)
        assert histogram_count_below(hist, 1.0) == 10.0
        assert histogram_count_below(hist, 1e-7) == 0.0

    def test_rejects_bad_quantile(self):
        with pytest.raises(ValueError):
            histogram_quantile(Histogram(bounds=LATENCY_EDGES), 101.0)


# --------------------------------------------------------------------------- #
# windowed accumulation
# --------------------------------------------------------------------------- #
class TestWindows:
    def test_outcomes_land_in_their_window(self):
        t = ServeTelemetry(window_s=0.1)
        t.on_outcome("served", 0.05, 0.001)
        t.on_outcome("served", 0.15, 0.002)
        t.on_outcome("shed", 0.15, None)
        assert set(t.windows) == {0, 1}
        assert t.windows[0].served == 1 and t.windows[0].requests == 1
        w1 = t.windows[1]
        assert w1.served == 1 and w1.shed == 1 and w1.bad == 1
        assert w1.latency.count == 1  # shed contributes no latency sample
        assert t.latency_hist.count == 2

    def test_queue_batch_cache_and_fault_feeds(self):
        t = ServeTelemetry(window_s=1.0)
        t.on_queue_depth(0.1, 3)
        t.on_queue_depth(0.2, 5)
        t.on_batch(0.3, 4)
        t.on_cache_lookup(0.4, True)
        t.on_cache_lookup(0.5, False)
        t.on_event(0.6, "faults", 2, "worker_crash")
        t.on_event(0.7, "retries")
        t.on_event(0.8, "hedges")
        t.on_event(0.9, "breaker")
        w = t.windows[0]
        assert w.queue_depth_samples == 2 and w.queue_depth_max == 5
        assert w.queue_depth_sum == 8
        assert w.occupancy_samples == 1 and w.occupancy_max == 4
        assert w.cache_hits == 1 and w.cache_misses == 1
        assert w.faults == 2 and w.retries == 1 and w.hedges == 1
        assert w.breaker == 1
        assert t.fault_kinds == {"worker_crash": 2}

    def test_dense_windows_fill_gaps(self):
        t = ServeTelemetry(window_s=0.1)
        t.on_outcome("served", 0.05, 1e-3)
        t.on_outcome("served", 0.35, 1e-3)
        accums = dense_windows(t)
        assert [a.index for a in accums] == [0, 1, 2, 3]
        assert accums[1].requests == 0  # gap window, zero-filled

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ValueError):
            ServeTelemetry(window_s=0.0)


# --------------------------------------------------------------------------- #
# the no-op pin: no tracing session -> no spans, identical outcomes
# --------------------------------------------------------------------------- #
class TestNoOpPin:
    def test_untraced_run_buffers_nothing_and_matches_traced(self):
        requests = unique_requests(24)
        plain = TopKService(serve_config())
        plain_stats = plain.run([Request(**vars(r)) for r in requests])
        assert plain.telemetry.events == []

        with obs.trace_session():
            traced = TopKService(serve_config())
            traced_stats = traced.run([Request(**vars(r)) for r in requests])
        assert traced.telemetry.events

        # tracing is pure observation: byte-identical outcomes
        assert plain_stats.latencies_s == traced_stats.latencies_s
        assert plain_stats.total == traced_stats.total
        for a, b in zip(plain.outcomes, traced.outcomes):
            assert (a.rid, a.status, a.finish_s) == (b.rid, b.status, b.finish_s)
            assert np.array_equal(a.values, b.values)

    def test_untraced_run_never_builds_a_span(self, monkeypatch):
        # every span call site checks the trace flag first, so a plain run
        # builds no span arguments at all, even on the fault seams
        calls = []
        monkeypatch.setattr(
            ServeTelemetry, "emit", lambda self, *a, **kw: calls.append(a)
        )
        plan = FaultPlan(
            seed=1,
            rules=(
                FaultRule(kind="worker_crash", rate=0.3, site="serve.batch"),
                FaultRule(kind="shard_failure", rate=0.3, site="serve.shard"),
            ),
        )
        service = TopKService(serve_config(faults=plan))
        stats = service.run(unique_requests(24))
        assert stats.retries > 0
        assert calls == []

    def test_trace_flag_latched_at_construction(self):
        with obs.trace_session():
            service = TopKService(serve_config())
        # the session ended, but the service keeps buffering: the flag is
        # a construction-time decision, not a per-event lookup
        assert service.telemetry.trace is True
        assert TopKService(serve_config()).telemetry.trace is False


# --------------------------------------------------------------------------- #
# request-scoped span trees
# --------------------------------------------------------------------------- #
class TestRequestTracing:
    def run_traced(self, requests, **overrides):
        with obs.trace_session():
            service = TopKService(serve_config(**overrides))
            stats = service.run(requests)
        return service, stats

    def test_span_tree_covers_every_request(self):
        requests = unique_requests(30)
        service, stats = self.run_traced(requests)
        assert stats.total == 30
        traced = {
            e.args["rid"] for e in service.telemetry.events if e.name == "request"
        }
        coverage = len(traced) / stats.total
        assert coverage >= 0.95  # the PR acceptance floor (here: exactly 1.0)
        assert traced == set(range(30))

        by_rid: dict[int, set] = {}
        for e in service.telemetry.events:
            if e.lane.startswith("serve:req/"):
                rid = int(e.lane.rsplit("/r", 1)[1])
                by_rid.setdefault(rid, set()).add(e.name)
        served = {o.rid for o in service.outcomes if o.status == "served"}
        for rid in served:
            assert {"admission", "queued", "batch", "finish", "request"} <= by_rid[rid]
            # sharded execution splits the batch into fan-out + fan-in
            assert {"shards", "merge"} <= by_rid[rid]

    def test_node_lanes_carry_batches_and_shards(self):
        service, _stats = self.run_traced(unique_requests(12))
        lanes = {e.lane for e in service.telemetry.events}
        assert "serve:node/device" in lanes
        assert {"serve:node/shard0", "serve:node/shard1"} <= lanes
        batches = [
            e.args
            for e in service.telemetry.events
            if e.name == "batch" and e.lane == "serve:node/device"
        ]
        assert len(batches) == service.stats.batches
        assert all("algo" in a and "size" in a for a in batches)

    def test_unsharded_run_emits_execute_spans(self):
        service, _stats = self.run_traced(unique_requests(8), shards=1)
        names = {e.name for e in service.telemetry.events}
        assert "execute" in names
        assert "shards" not in names and "merge" not in names

    def test_spans_rebase_onto_wall_clock(self):
        service, _stats = self.run_traced(unique_requests(6))
        base = 5_000_000.0
        tracer = obs.SpanTracer()
        tracer.extend(service.telemetry.events, base_us=base)
        spans = tracer.events
        assert spans and all(s.ts_us >= base for s in spans)
        zero = service.telemetry.events
        assert spans[0].ts_us - zero[0].ts_us == pytest.approx(base)
        roots = [s for s in spans if s.name == "request"]
        for root in roots:
            assert root.args["status"] in ("served", "degraded", "shed",
                                           "timeout", "failed")

    def test_trace_export_is_perfetto_valid(self, tmp_path):
        service, _stats = self.run_traced(unique_requests(10))
        tracer = obs.SpanTracer()
        tracer.extend(service.telemetry.events, base_us=1000.0)
        path = obs.write_trace(tracer.events, tmp_path / "serve_trace.json")
        payload = json.loads(path.read_text())
        obs.validate_trace(payload)  # raises on contract violations
        names = {e["name"] for e in payload["traceEvents"] if e["ph"] == "X"}
        assert {"request", "batch", "queued"} <= names

    def test_fault_and_retry_annotations(self):
        plan = FaultPlan(
            seed=3,
            rules=(FaultRule(kind="worker_crash", rate=0.5,
                             site="serve.batch"),),
        )
        requests = unique_requests(24)
        with obs.trace_session():
            service = TopKService(serve_config(faults=plan, batch_retries=3))
            stats = service.run(requests)
        assert stats.retries > 0
        names = {e.name for e in service.telemetry.events}
        assert "retry" in names
        assert "fault:worker_crash" in names
        windows = service.telemetry.windows.values()
        assert sum(w.retries for w in windows) == stats.retries
        assert sum(w.faults for w in windows) == sum(stats.faults.values())
        assert service.telemetry.fault_kinds == stats.faults


# --------------------------------------------------------------------------- #
# SLO specs and evaluation
# --------------------------------------------------------------------------- #
class TestSLOs:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="availability", target=1.0)  # open interval
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="uptime", target=0.9)
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="latency", target=0.9)  # needs threshold

    def test_availability_burn_rates(self):
        good = WindowAccum(index=0, served=99, shed=1)
        bad = WindowAccum(index=1, served=50, failed=50)
        empty = WindowAccum(index=2)
        slo = SLOSpec(name="avail", kind="availability", target=0.99)
        [result] = evaluate_slos([good, bad, empty], (slo,))
        # window 0 burns exactly at budget (1% bad / 1% budget = 1.0x);
        # window 1 burns 50x; an empty window burns nothing
        assert result["burn_rates"] == pytest.approx([1.0, 50.0, 0.0])
        assert result["violating_windows"] == [1]
        assert result["sli"] == pytest.approx(149 / 200)
        assert result["violated"] is True
        assert result["max_burn_rate"] == pytest.approx(50.0)

    def test_latency_slo_uses_histogram_cdf(self):
        fast = WindowAccum(index=0, served=10)
        for _ in range(10):
            fast.latency.observe(1e-3)
        slow = WindowAccum(index=1, served=10)
        for _ in range(10):
            slow.latency.observe(0.2)
        slo = SLOSpec(name="lat", kind="latency", target=0.9, threshold_s=0.05)
        [result] = evaluate_slos([fast, slow], (slo,))
        assert result["burn_rates"][0] == pytest.approx(0.0)
        assert result["burn_rates"][1] == pytest.approx(10.0)
        assert result["violating_windows"] == [1]
        assert result["sli"] == pytest.approx(0.5)

    def test_no_traffic_is_not_a_violation(self):
        [result] = evaluate_slos([], DEFAULT_SLOS[:1])
        assert result["violated"] is False and result["sli"] == 1.0

    def test_load_slo_specs_round_trip(self, tmp_path):
        path = tmp_path / "slo.json"
        path.write_text(json.dumps({
            "schema": "repro.obs.slo/v1",
            "slos": [
                {"name": "a", "kind": "availability", "target": 0.95},
                {"name": "l", "kind": "latency", "target": 0.9,
                 "threshold_s": 0.01},
            ],
        }))
        specs = load_slo_specs(path)
        assert [s.name for s in specs] == ["a", "l"]
        assert specs[1].threshold_s == 0.01

    def test_load_rejects_bad_schema(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "repro.obs.slo/v1",
                                    "slos": [{"name": "x"}]}))
        with pytest.raises(SchemaError):
            load_slo_specs(path)


# --------------------------------------------------------------------------- #
# the serve_report artifact
# --------------------------------------------------------------------------- #
class TestServeReport:
    def finished_service(self, **overrides):
        service = TopKService(serve_config(**overrides))
        stats = service.run(unique_requests(24))
        return service, stats

    def test_report_is_schema_valid_and_writable(self, tmp_path):
        service, stats = self.finished_service()
        report = build_serve_report(
            service.telemetry, stats, config={"seed": 0}
        )
        obs.validate_serve_report(report)  # build already validated; re-pin
        path = write_serve_report(report, tmp_path / "r.json")
        obs.validate_serve_report(json.loads(path.read_text()))
        assert report["totals"]["requests"] == 24
        assert report["totals"]["availability"] == 1.0
        assert len(report["windows"]) >= 1
        first = report["windows"][0]
        assert first["requests"] >= 1
        assert first["latency_p99_s"] is None or first["latency_p99_s"] > 0

    def test_report_identical_across_host_workers(self):
        reports = []
        for workers in (1, 4):
            service, stats = self.finished_service(workers=workers)
            reports.append(build_serve_report(
                service.telemetry, stats, config={"workers": 1}
            ))
        a, b = (json.dumps(r, sort_keys=True) for r in reports)
        assert a == b  # virtual-time only: byte-identical

    def test_availability_breach_flags_violation(self):
        plan = FaultPlan(
            seed=7,
            rules=(FaultRule(kind="worker_crash", rate=0.95,
                             site="serve.batch"),),
        )
        service = TopKService(serve_config(faults=plan))
        stats = service.run(unique_requests(24))
        assert stats.failed > 0  # the plan actually broke traffic
        report = build_serve_report(service.telemetry, stats)
        assert "availability-99" in report["violations"]
        entry = next(s for s in report["slos"]
                     if s["name"] == "availability-99")
        assert entry["violated"] and entry["sli"] < 0.99
        assert entry["max_burn_rate"] > 1.0
        assert entry["violating_windows"]

    def test_render_dashboard_lines(self):
        service, stats = self.finished_service()
        text = render_serve_report(build_serve_report(service.telemetry, stats))
        assert "serve report: 24 requests" in text
        assert "windowed series:" in text
        assert "p99 latency" in text and "queue depth" in text
        assert "all SLOs met" in text

    def test_render_flags_violations(self):
        plan = FaultPlan(
            seed=7,
            rules=(FaultRule(kind="worker_crash", rate=0.95,
                             site="serve.batch"),),
        )
        service = TopKService(serve_config(faults=plan))
        stats = service.run(unique_requests(24))
        text = render_serve_report(build_serve_report(service.telemetry, stats))
        assert "SLO VIOLATIONS:" in text
        assert "[VIOLATED]" in text
        assert "faults:" in text


# --------------------------------------------------------------------------- #
# sparkline
# --------------------------------------------------------------------------- #
class TestSparkline:
    def test_scales_to_series_range(self):
        line = sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
        assert line[0] == "." and line[-1] == "@"

    def test_none_is_a_gap_and_flat_is_low(self):
        assert sparkline([None, 1.0, None]) == " . "
        assert sparkline([2.0, 2.0]) == ".."
        assert sparkline([]) == ""
        assert sparkline([None, None]) == "  "


# --------------------------------------------------------------------------- #
# CLI integration
# --------------------------------------------------------------------------- #
class TestServeObsCLI:
    BASE = ["serve-bench", "--qps", "1500", "--duration", "0.08",
            "--n", "2^11", "--k", "8", "--algo", "sort",
            "--max-batch", "4", "--max-delay-ms", "2",
            "--shards", "2", "--window-ms", "10", "--pool", "500"]

    def crash_plan(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({
            "schema": "repro.faults.plan/v1",
            "seed": 7,
            "rules": [{"kind": "worker_crash", "rate": 0.95,
                       "site": "serve.batch", "factor": 1.0,
                       "sticky": False}],
        }))
        return path

    def test_serve_bench_report_and_slo_ok(self, tmp_path, capsys):
        from repro.cli import main

        report_path = tmp_path / "report.json"
        code = main(self.BASE + [
            "--report", str(report_path),
            "--slo", "benchmarks/slo/default.json",
        ])
        assert code == 0
        payload = json.loads(report_path.read_text())
        obs.validate_serve_report(payload)
        out = capsys.readouterr().out
        assert "SLO [ok] availability-99" in out

    def test_serve_bench_slo_violation_exits_nonzero(self, tmp_path, capsys):
        from repro.cli import main

        code = main(self.BASE + [
            "--faults", str(self.crash_plan(tmp_path)),
            "--slo", "default",
            "--report", str(tmp_path / "bad.json"),
        ])
        assert code == 1
        assert "SLO [VIOLATED] availability-99" in capsys.readouterr().out

    def test_serve_bench_trace_includes_request_lanes(self, tmp_path):
        from repro.cli import main

        trace = tmp_path / "trace.json"
        assert main(self.BASE + ["--trace", str(trace)]) == 0
        payload = json.loads(trace.read_text())
        obs.validate_trace(payload)
        meta = {
            e["args"]["name"]
            for e in payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "serve:req" in meta and "serve:node" in meta

    def test_serve_bench_manifest_records_serve_report(self, tmp_path, capsys):
        from repro.cli import main

        assert main(self.BASE + ["--out", str(tmp_path), "--slo", "default"]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["artifacts"]["serve_report"] == "serve_report.json"
        obs.validate_serve_report(
            json.loads((tmp_path / "serve_report.json").read_text())
        )

    def test_serve_report_command(self, tmp_path, capsys):
        from repro.cli import main

        assert main(self.BASE + ["--report", str(tmp_path / "r.json")]) == 0
        capsys.readouterr()
        assert main(["serve-report", str(tmp_path / "r.json")]) == 0
        out = capsys.readouterr().out
        assert "windowed series:" in out and "all SLOs met" in out

    def test_serve_report_command_fails_on_violations(self, tmp_path, capsys):
        from repro.cli import main

        main(self.BASE + [
            "--faults", str(self.crash_plan(tmp_path)),
            "--report", str(tmp_path / "bad.json"),
        ])
        capsys.readouterr()
        assert main(["serve-report", str(tmp_path / "bad.json")]) == 1
        assert main(["serve-report", str(tmp_path / "bad.json"),
                     "--no-fail"]) == 0

    def test_serve_report_command_rejects_garbage(self, tmp_path):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{\"schema\": \"nope\"}")
        assert main(["serve-report", str(bad)]) == 1

    def test_inspect_serve_report(self, tmp_path, capsys):
        from repro.cli import main

        assert main(self.BASE + ["--report", str(tmp_path / "r.json")]) == 0
        capsys.readouterr()
        assert main(["inspect", str(tmp_path / "r.json")]) == 0
        assert "valid serve report" in capsys.readouterr().out


class TestLatencySampleCapDrift:
    """Regression pin: the histogram fallback tracks the raw percentiles.

    Past ``latency_sample_cap`` the raw ``latencies_s`` list stops
    growing (it holds only the first ``cap`` samples — biased), so
    ``latency_percentiles()`` must switch to the latency histogram,
    which keeps observing the *full* population.  The estimates are then
    allowed to drift by at most one histogram bucket (16 buckets per
    decade: a factor of 10^(1/16)) from the exact order statistics over
    every answered request.
    """

    #: one histogram bucket of slack, both directions
    BUCKET = 10.0 ** (1.0 / 16.0)

    def _run(self, cap):
        config = serve_config(latency_sample_cap=cap, result_cache=0)
        service = TopKService(config)
        spec = LoadSpec(
            qps=300.0, duration_s=1.0, n=1 << 14, k=32,
            payload_pool=256, seed=2,
        )
        stats = service.run(build_requests(spec))
        raw = [
            o.latency_s for o in service.outcomes if o.latency_s is not None
        ]
        return stats, raw

    def test_histogram_keeps_full_population_past_the_cap(self):
        stats, raw = self._run(cap=16)
        assert len(raw) > 16
        assert stats.latency_truncated
        assert len(stats.latencies_s) == 16
        assert stats.latency_hist.count == len(raw)

    def test_percentiles_agree_within_one_bucket(self):
        stats, raw = self._run(cap=16)
        assert stats.latency_truncated
        qs = (50.0, 90.0, 95.0, 99.0)
        estimates = stats.latency_percentiles(qs)
        for q in qs:
            exact = float(np.percentile(raw, q))
            estimate = estimates[q]
            assert estimate is not None
            if exact <= 0.0:
                # zero-latency percentiles sit in the first bucket: the
                # estimate may be anywhere inside it
                assert 0.0 <= estimate <= LATENCY_EDGES[0]
            else:
                assert exact / self.BUCKET <= estimate <= exact * self.BUCKET

    def test_uncapped_percentiles_stay_exact(self):
        stats, raw = self._run(cap=None)
        assert not stats.latency_truncated
        assert len(stats.latencies_s) == len(raw)
        estimates = stats.latency_percentiles((50.0, 99.0))
        assert estimates[50.0] == percentile(raw, 50.0)
        assert estimates[99.0] == percentile(raw, 99.0)

    def test_truncated_raw_list_would_drift(self):
        # the hazard the fallback exists for: the first-cap-samples list
        # is arrival-ordered, not representative — pin that it disagrees
        # with the full population so the fallback stays load-bearing
        stats, raw = self._run(cap=16)
        biased = percentile(stats.latencies_s, 99.0)
        exact = float(np.percentile(raw, 99.0))
        estimate = stats.latency_percentiles((99.0,))[99.0]
        assert abs(estimate - exact) < abs(biased - exact)

    def test_cluster_stats_share_the_contract(self):
        from repro.cluster import ClusterConfig, ClusterRouter

        rng = np.random.default_rng(31)
        config = ClusterConfig(
            nodes=2,
            replication=2,
            latency_sample_cap=8,
            node_config=serve_config(),
        )
        router = ClusterRouter(config)
        requests = [
            Request(
                rid=i,
                data=rng.standard_normal(1 << 12).astype(np.float32),
                k=16,
                largest=True,
                arrival_s=0.05 * i,
            )
            for i in range(32)
        ]
        stats = router.run(requests)
        raw = [
            o.latency_s for o in router.outcomes if o.latency_s is not None
        ]
        assert stats.latency_truncated
        assert stats.latency_hist.count == len(raw)
        for q, estimate in stats.latency_percentiles((50.0, 99.0)).items():
            exact = float(np.percentile(raw, q))
            if exact <= 0.0:
                assert 0.0 <= estimate <= LATENCY_EDGES[0]
            else:
                assert exact / self.BUCKET <= estimate <= exact * self.BUCKET
