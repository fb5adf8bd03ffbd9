"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import _size, _size_range, build_parser, main


class TestParsing:
    def test_size_plain(self):
        assert _size("1024") == 1024

    def test_size_power(self):
        assert _size("2^20") == 1 << 20
        assert _size("10^3") == 1000

    def test_size_range_powers(self):
        assert _size_range("2^3:2^6") == [8, 16, 32, 64]

    def test_size_range_list(self):
        assert _size_range("8,100,2^10") == [8, 100, 1024]

    def test_size_range_invalid(self):
        with pytest.raises(Exception):
            _size_range("2^6:2^3")

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_parser_rejects_unknown_algo(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["topk", "--algo", "turbo"])


class TestCommands:
    def test_topk(self, capsys):
        assert main(["topk", "--n", "2^14", "--k", "32"]) == 0
        out = capsys.readouterr().out
        assert "air_topk" in out
        assert "simulated time" in out
        assert "first results" in out

    def test_topk_largest_with_sol_and_timeline(self, capsys):
        code = main(
            [
                "topk",
                "--n",
                "2^14",
                "--k",
                "8",
                "--largest",
                "--sol",
                "--timeline",
                "--algo",
                "grid_select",
                "--gpu",
                "A10",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "largest 8" in out
        assert "Speed of Light" in out
        assert "timeline" in out

    def test_topk_scaled_mode(self, capsys):
        assert main(["topk", "--n", "2^26", "--k", "64", "--cap", "2^16"]) == 0
        assert "[scaled mode]" in capsys.readouterr().out

    def test_compare(self, capsys):
        assert main(["compare", "--n", "2^13", "--k", "16"]) == 0
        out = capsys.readouterr().out
        assert "rank" in out
        for algo in ("air_topk", "grid_select", "sort", "warp_select"):
            assert algo in out

    def test_compare_marks_unsupported(self, capsys):
        assert main(["compare", "--n", "2^13", "--k", "4096"]) == 0
        out = capsys.readouterr().out
        assert "-" in out  # warp/block/grid/bitonic unsupported at k=4096

    def test_sweep_n(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--vary",
                    "n",
                    "--k",
                    "32",
                    "--points",
                    "2^12:2^16",
                    "--cap",
                    "2^16",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "o=air_topk" in out
        assert "2^12" in out and "2^16" in out

    def test_sweep_k(self, capsys):
        assert (
            main(
                [
                    "sweep",
                    "--vary",
                    "k",
                    "--n",
                    "2^14",
                    "--points",
                    "8,64,512",
                    "--cap",
                    "2^15",
                ]
            )
            == 0
        )
        assert "K" in capsys.readouterr().out

    def test_table2_reduced(self, capsys):
        assert main(["table2", "--cap", "2^14"]) == 0
        out = capsys.readouterr().out
        assert "AIR vs Radix" in out
        assert "adversarial" in out


class TestLoggingFlags:
    def test_verbose_and_quiet_accepted_everywhere(self):
        parser = build_parser()
        for cmd in ("topk", "compare", "sweep", "auto", "table2"):
            args = parser.parse_args([cmd, "-v"])
            assert args.verbose == 1
            args = parser.parse_args([cmd, "-q"])
            assert args.quiet is True

    def test_quiet_suppresses_status_lines(self, capsys):
        assert main(["topk", "--n", "2^13", "--k", "8", "-q"]) == 0
        captured = capsys.readouterr()
        assert "air_topk" in captured.out  # results still on stdout
        assert captured.err == ""  # INFO status lines silenced

    def test_progress_goes_through_logging(self, capsys):
        assert (
            main(
                ["sweep", "--vary", "k", "--n", "2^13", "--points", "8,16",
                 "--cap", "2^14", "--progress"]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "INFO" in err and "air_topk" in err


class TestTelemetryFlags:
    def test_topk_trace_writes_valid_tef(self, tmp_path):
        import json

        from repro import obs

        trace = tmp_path / "topk.json"
        assert (
            main(["topk", "--n", "2^13", "--k", "8", "--trace", str(trace)]) == 0
        )
        payload = json.loads(trace.read_text())
        obs.validate_trace(payload)
        xs = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert any(e["cat"].startswith("sim.") for e in xs)  # device streams
        assert any(e["cat"] == "point" for e in xs)  # host span
        for e in xs:
            assert {"ph", "ts", "dur", "pid", "tid", "name"} <= e.keys()

    def test_sweep_writes_trace_metrics_and_manifest(self, tmp_path):
        import json

        from repro import obs

        trace = tmp_path / "out.json"
        metrics = tmp_path / "metrics.json"
        csv = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--vary", "k", "--n", "2^13", "--points", "8,64",
             "--cap", "2^14", "--workers", "2",
             "--trace", str(trace), "--metrics", str(metrics),
             "--csv", str(csv)]
        )
        assert code == 0
        trace_payload = json.loads(trace.read_text())
        obs.validate_trace(trace_payload)
        lanes = {
            e["args"]["name"]
            for e in trace_payload["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "host" in lanes  # worker lanes group under the host process
        assert any(lane.startswith("sim ") for lane in lanes)
        metrics_payload = json.loads(metrics.read_text())
        obs.validate_metrics(metrics_payload)
        counter_names = {c["name"] for c in metrics_payload["counters"]}
        assert "sweep.points" in counter_names
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        obs.validate_manifest(manifest)
        assert manifest["command"] == "sweep"
        assert manifest["artifacts"]["trace"] == "out.json"
        assert manifest["artifacts"]["metrics"] == "metrics.json"
        assert csv.exists()


class TestServeBenchCommand:
    def test_serve_bench_prints_report(self, capsys):
        code = main(
            ["serve-bench", "--qps", "300", "--duration", "0.5",
             "--n", "2^12", "--k", "16", "--algo", "sort", "-q"]
        )
        assert code == 0
        out = capsys.readouterr().out
        for needle in ("p50", "p95", "p99", "served=", "shed=", "timeout=",
                       "speedup"):
            assert needle in out

    def test_serve_bench_writes_valid_manifest(self, tmp_path, capsys):
        import json

        from repro import obs

        metrics = tmp_path / "metrics.json"
        code = main(
            ["serve-bench", "--qps", "300", "--duration", "0.5",
             "--n", "2^12", "--k", "16", "--algo", "sort",
             "--out", str(tmp_path), "--metrics", str(metrics), "-q"]
        )
        assert code == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        obs.validate_manifest(manifest)
        assert manifest["command"] == "serve-bench"
        assert manifest["grid"]["total_points"] == manifest["status"]["ok"]
        assert manifest["config"]["served"] > 0
        metrics_payload = json.loads(metrics.read_text())
        obs.validate_metrics(metrics_payload)
        names = {c["name"] for c in metrics_payload["counters"]}
        assert "serve.requests" in names

    def test_serve_bench_sharded_and_deadline(self, capsys):
        code = main(
            ["serve-bench", "--qps", "300", "--duration", "0.5",
             "--n", "2^16", "--k", "16", "--shards", "4",
             "--deadline-ms", "100", "-q"]
        )
        assert code == 0
        assert "served=" in capsys.readouterr().out

    def test_serve_bench_faults_reports_availability(self, tmp_path, capsys):
        import json

        from repro import obs
        from repro.faults import FaultPlan, FaultRule

        plan_path = FaultPlan(
            seed=42,
            rules=(
                FaultRule(kind="shard_failure", rate=0.05),
                FaultRule(kind="straggler", rate=0.05, factor=5.0),
            ),
        ).save(tmp_path / "plan.json")
        code = main(
            ["serve-bench", "--qps", "200", "--duration", "1",
             "--shards", "4", "--faults", str(plan_path),
             "--out", str(tmp_path), "-q"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "availability:" in out and "faults:" in out
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        obs.validate_manifest(manifest)
        cfg = manifest["config"]
        assert cfg["faults_plan"] == "plan.json"
        assert cfg["availability"] >= 0.99  # the PR acceptance bar
        assert sum(cfg["faults_injected"].values()) >= 1
        assert {"degraded", "failed", "retries", "hedges"} <= set(cfg)

    def test_serve_bench_rejects_invalid_fault_plan(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "repro.faults.plan/v1", "seed": 0}')
        code = main(["serve-bench", "--duration", "0.1",
                     "--faults", str(bad), "-q"])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err, str(bad), "rules")

    def test_cluster_bench_rejects_invalid_fault_plan(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(
            '{"schema": "repro.faults.plan/v1", "seed": 0,'
            ' "rules": [{"kind": "meteor_strike", "rate": 0.5}]}'
        )
        code = main(["cluster-bench", "--tiny", "--faults", str(bad), "-q"])
        assert code == 2
        assert_one_error_line(capsys.readouterr().err, str(bad), "kind")


def assert_one_error_line(err: str, *needles: str) -> None:
    """``err`` is a single ERROR log line mentioning every needle."""
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("ERROR "), err
    for needle in needles:
        assert needle in lines[0], (needle, err)


class TestDriftCommand:
    def test_drift_reports_per_algorithm(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        assert (
            main(["sweep", "--vary", "k", "--n", "2^13", "--points", "8,64",
                  "--cap", "2^14", "--csv", str(csv), "-q"])
            == 0
        )
        capsys.readouterr()
        assert main(["drift", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "geomean" in out and "rmse" in out
        assert "air_topk" in out

    def test_drift_rejects_non_sweep_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["drift", str(bad)]) == 1


class TestInspectCommand:
    def test_inspect_all_artifact_kinds(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        trace = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        assert (
            main(["sweep", "--vary", "k", "--n", "2^13", "--points", "8",
                  "--cap", "2^14", "--csv", str(csv),
                  "--trace", str(trace), "--metrics", str(metrics), "-q"])
            == 0
        )
        capsys.readouterr()
        assert main(["inspect", str(csv)]) == 0
        assert "status" in capsys.readouterr().out
        assert main(["inspect", str(trace)]) == 0
        assert "spans" in capsys.readouterr().out
        assert main(["inspect", str(metrics)]) == 0
        assert "metric" in capsys.readouterr().out
        assert main(["inspect", str(tmp_path / "manifest.json")]) == 0
        assert "sweep" in capsys.readouterr().out

    def test_inspect_unknown_file(self, tmp_path):
        other = tmp_path / "x.json"
        other.write_text("{}")
        assert main(["inspect", str(other)]) == 1
