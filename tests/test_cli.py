"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro import InputError
from repro.cli import _size, _size_range, build_parser, main
from repro.serve import LoadSpec, ServeConfig
from tests.test_golden_cli import golden_stdout, normalise


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
        assert normalise(out) == golden_stdout("table2")


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


@pytest.fixture
def sweep_csv(tmp_path):
    csv = tmp_path / "s.csv"
    assert (
        main(["sweep", "--vary", "k", "--n", "2^13", "--points", "8,64",
              "--cap", "2^14", "--csv", str(csv), "-q"])
        == 0
    )
    return csv


class TestDriftCommand:
    def test_drift_reports_per_algorithm(self, sweep_csv, capsys):
        capsys.readouterr()
        assert main(["drift", str(sweep_csv)]) == 0
        out = capsys.readouterr().out
        assert "geomean" in out and "rmse" in out
        assert "air_topk" in out

    def test_drift_rejects_non_sweep_csv(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["drift", str(bad)]) == 1


def _demoting_store(path, *, n: int, k: int, batch: int = 1) -> str:
    """Save a correction store that folds "the cost model's winner for
    (n, k, batch) is 2^8 slower" on A100; returns the winner."""
    from repro.device import get_spec
    from repro.perf.adaptive import CorrectionStore
    from repro.perf.costmodel import rank_algorithms

    spec = get_spec("A100")
    winner = rank_algorithms(n=n, k=k, batch=batch, spec=spec)[0].algo
    store = CorrectionStore(min_window=1, gain=1.0)
    store.observe(winner, n=n, k=k, batch=batch, residual_log2=8.0)
    store.save(path)
    return winner


class TestCorrectionsFlag:
    def test_auto_corrections_dispatch_elsewhere(self, tmp_path, capsys):
        store = tmp_path / "corrections.json"
        winner = _demoting_store(store, n=1 << 16, k=64)
        assert main(["auto", "--n", "2^16", "--k", "64", "-q"]) == 0
        assert f"dispatched to: {winner}" in capsys.readouterr().out
        assert main(["auto", "--n", "2^16", "--k", "64",
                     "--corrections", str(store), "-q"]) == 0
        out = capsys.readouterr().out
        assert "adapted" in out
        dispatched = out.split("dispatched to: ", 1)[1].split()[0]
        assert dispatched != winner

    def test_drift_corrections_add_corrected_column(
        self, tmp_path, sweep_csv, capsys
    ):
        store = tmp_path / "corrections.json"
        _demoting_store(store, n=1 << 13, k=8)
        capsys.readouterr()
        assert main(["drift", str(sweep_csv), "-q"]) == 0
        assert "corrected" not in capsys.readouterr().out
        assert main(["drift", str(sweep_csv),
                     "--corrections", str(store), "-q"]) == 0
        header = next(
            line for line in capsys.readouterr().out.splitlines()
            if "geomean" in line
        )
        assert header.split()[-1] == "corrected"

    @pytest.mark.parametrize("command", ["auto", "drift", "serve-bench"])
    @pytest.mark.parametrize("content", [
        '{"schema": "repro.perf.corrections/v1"}',
        "not json",
        None,
    ], ids=["schema", "json", "missing"])
    def test_bad_store_exits_2_with_one_error_line(
        self, tmp_path, sweep_csv, capsys, command, content
    ):
        store = tmp_path / "bad.json"
        if content is not None:
            store.write_text(content)
        argv = {
            "auto": ["auto", "--n", "2^12", "--k", "8"],
            "drift": ["drift", str(sweep_csv)],
            "serve-bench": ["serve-bench", "--duration", "0.1", "--adaptive"],
        }[command]
        capsys.readouterr()
        code = main(argv + ["--corrections", str(store), "-q"])
        if command == "serve-bench" and content is None:
            # serve-bench learns into a fresh store and saves it
            assert code == 0 and store.exists()
            return
        assert code == 2
        assert_one_error_line(
            capsys.readouterr().err, "cannot load correction store", str(store)
        )


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

    @pytest.mark.parametrize("content", ["[1, 2]", '{"schema": ["x"]}'])
    def test_inspect_unknown_marker_shape(self, tmp_path, content):
        other = tmp_path / "x.json"
        other.write_text(content)
        assert main(["inspect", str(other)]) == 1

    @pytest.mark.parametrize("content", [None, "not json", '{"schema": "repro.obs.manifest/v1"}'],
                             ids=["missing", "json", "schema"])
    def test_inspect_unreadable_file_exits_1_with_one_error_line(
        self, tmp_path, capsys, content
    ):
        path = tmp_path / "manifest.json"
        if content is not None:
            path.write_text(content)
        assert main(["inspect", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert_one_error_line(captured.err, "cannot read", str(path))


class TestInputBoundary:
    """Bad input exits 2 with one ERROR line, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["topk", "--n", "100", "--k", "1000"],
        ["topk", "--batch", "0"],
        ["topk", "--cap", "0"],
        ["auto", "--n", "100", "--k", "1000"],
        ["compare", "--n", "100", "--k", "1000"],
        ["sweep", "--timeout", "-1"],
        ["table2", "--workers", "0"],
        ["serve-bench", "--qps", "0"],
        ["serve-bench", "--max-batch", "0"],
        ["serve-bench", "--min-recall", "2"],
        ["serve-bench", "--window-ms", "0"],
        ["serve-bench", "--max-delay-ms", "-1"],
        ["serve-bench", "--pool", "0"],
        ["serve-bench", "--n", "10", "--k", "20"],
        ["serve-bench", "--adaptive", "--algo", "sort"],
    ], ids=" ".join)
    def test_bad_input_exits_2(self, capsys, argv):
        assert main(argv + ["-q"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # e.g. compare prints no table
        assert_one_error_line(captured.err)

    def test_k_above_n_reads_like_admission(self, capsys):
        assert main(["topk", "--n", "100", "--k", "1000", "-q"]) == 2
        assert_one_error_line(
            capsys.readouterr().err, "k must be in [1, n=100], got k=1000"
        )

    @pytest.mark.parametrize("make, argv", [
        (lambda: ServeConfig(shards=0), ["--shards", "0"]),
        (lambda: ServeConfig(shards=-3), ["--shards", "-3"]),
        (lambda: ServeConfig(workers=0), ["--serve-workers", "0"]),
        (lambda: ServeConfig(queue_limit=-1), ["--queue-limit", "-1"]),
        (lambda: LoadSpec(deadline_s=-0.005), ["--deadline-ms", "-5"]),
        (lambda: ServeConfig(default_deadline_s=-0.005), ["--deadline-ms", "-5"]),
        (lambda: LoadSpec(min_recall=0.9, approx_fraction=2.0),
         ["--min-recall", "0.9", "--approx-fraction", "2"]),
        (lambda: LoadSpec(approx_fraction=-0.5), ["--approx-fraction", "-0.5"]),
    ], ids=["shards-0", "shards-neg", "workers", "queue-limit", "deadline",
            "default-deadline", "approx-fraction", "approx-fraction-neg"])
    def test_serve_values_rejected_at_construction(self, capsys, make, argv):
        with pytest.raises(InputError):
            make()
        capsys.readouterr()
        assert main(["serve-bench", "--duration", "0.1", *argv, "-q"]) == 2
        assert_one_error_line(capsys.readouterr().err)

    def test_internal_value_error_still_raises(self, monkeypatch):
        import repro.cli as cli

        def broken(args):
            raise ValueError("a bug, not bad input")

        monkeypatch.setitem(cli.COMMANDS, "topk", (broken, *cli.COMMANDS["topk"][1:]))
        with pytest.raises(ValueError, match="a bug"):
            main(["topk", "-q"])

    def test_serve_bench_keywords_are_its_flags(self):
        import inspect

        from repro.serve import serve_bench

        parser = build_parser()
        sub = next(a for a in parser._actions if a.dest == "command")
        actions = {a.dest: a for a in sub.choices["serve-bench"]._actions}
        for name, param in inspect.signature(serve_bench).parameters.items():
            assert param.kind is inspect.Parameter.KEYWORD_ONLY, name
            assert name in actions, name
            assert actions[name].default == param.default, name
