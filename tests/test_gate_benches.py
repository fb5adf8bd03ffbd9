"""The recall, cluster and adapt gate benches: one gate harness.

The three benches declare their gates as records over their measurement
body and finish through one harness (:mod:`repro.bench.gates`): one
verdict record, renderer, snapshot envelope and exit convention.  CI
runs the commands and trusts their exit codes, so every declared gate
has a mutation test here — push its measured value across its bound and
that gate alone must flip to FAIL, the command must exit 1, and
``inspect`` must show the same FAIL.  The facts the gates cannot see on
their own — the pinned grids still contain the cells the headline gates
need — are pinned here too.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.bench import gates, load_snapshot, write_snapshot
from repro.bench import adaptbench, clusterbench, recallbench
from repro.cli import build_parser, main
from repro.obs.schema import SchemaError


class TestPinnedGrids:
    def test_recall_regimes_keep_an_acceptance_regime(self):
        # the speedup headline is only judged on acceptance cells
        assert any(cell.acceptance for cell in recallbench.DEFAULT_REGIMES)

    def test_cluster_node_counts_cover_the_scaling_gate(self):
        assert 1 in clusterbench.DEFAULT_NODE_COUNTS
        assert clusterbench.ACCEPT_NODES in clusterbench.DEFAULT_NODE_COUNTS


def _run(tmp_path_factory, command):
    path = tmp_path_factory.mktemp(command) / f"{command}.json"
    code = main([command, "--tiny", "--out", str(path), "-q"])
    return code, path


@pytest.fixture(scope="module")
def adapt_run(tmp_path_factory):
    return _run(tmp_path_factory, "adapt-bench")


@pytest.fixture(scope="module")
def cluster_run(tmp_path_factory):
    return _run(tmp_path_factory, "cluster-bench")


@pytest.fixture(scope="module")
def recall_run(tmp_path_factory):
    return _run(tmp_path_factory, "recall-bench")


@pytest.fixture
def runs(adapt_run, cluster_run, recall_run):
    return {"adapt": adapt_run, "cluster": cluster_run, "recall": recall_run}


class TestSnapshotPath:
    def test_one_loader_covers_every_kind(self):
        assert gates.BENCHES == ("recall", "cluster", "adapt")
        for name in gates.BENCHES:
            bench = gates.bench_module(name)
            assert bench.GATES and all(
                isinstance(g, gates.Gate) for g in bench.GATES
            )
            assert callable(bench.collect_snapshot)
            assert callable(bench.render_table)
            assert bench.BODY_SCHEMA["type"] == "object"

    def test_round_trip_is_identical(self, adapt_run, tmp_path):
        _code, path = adapt_run
        snap = load_snapshot(path)
        copy_path = write_snapshot(snap, tmp_path / "nested" / "copy.json")
        assert copy_path.read_text() == path.read_text()

    @pytest.mark.parametrize(
        "marker", ["repro.bench.perf/v1", None, "repro.obs.manifest/v1"]
    )
    def test_loader_rejects_a_wrong_schema_marker(
        self, adapt_run, tmp_path, marker
    ):
        _code, path = adapt_run
        payload = json.loads(path.read_text())
        if marker is None:
            del payload["schema"]
        else:
            payload["schema"] = marker
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(SchemaError):
            load_snapshot(bad)
        with pytest.raises(SchemaError):
            write_snapshot(payload, tmp_path / "never.json")
        assert not (tmp_path / "never.json").exists()

    def test_loader_checks_the_body_against_the_named_kind(
        self, adapt_run, tmp_path
    ):
        # an adapt body under the cluster name fails the cluster body schema
        _code, path = adapt_run
        payload = json.loads(path.read_text())
        payload["bench"] = "cluster"
        bad = tmp_path / "mislabelled.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=r"\$\.body"):
            load_snapshot(bad)

    @pytest.mark.parametrize("bench", [None, "perf"])
    def test_loader_rejects_an_unknown_bench(self, adapt_run, tmp_path, bench):
        _code, path = adapt_run
        payload = json.loads(path.read_text())
        payload["bench"] = bench
        bad = tmp_path / "unknown.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=r"\$\.bench"):
            load_snapshot(bad)

    def test_loader_rejects_a_verdict_its_own_value_contradicts(
        self, adapt_run, tmp_path
    ):
        _code, path = adapt_run
        payload = json.loads(path.read_text())
        payload["gates"][0]["value"] = 0.5  # below 1.3, still marked ok
        bad = tmp_path / "forged.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(SchemaError, match=r"\$\.gates\[0\]"):
            load_snapshot(bad)


class TestGateBenchCommands:
    def test_adapt_bench_tiny_passes_and_inspects(self, adapt_run, capsys):
        code, path = adapt_run
        assert code == 0
        snap = load_snapshot(path)
        assert snap["bench"] == "adapt"
        assert [g["name"] for g in snap["gates"]] == [
            g.name for g in adaptbench.GATES
        ]
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "valid adapt-bench snapshot" in out
        assert "adapt gates: 4 ok" in out and "FAIL" not in out

    def test_cluster_bench_tiny_passes_with_a_chaos_cell(
        self, cluster_run, capsys
    ):
        code, path = cluster_run
        assert code == 0
        snap = load_snapshot(path)
        assert snap["bench"] == "cluster"
        assert snap["body"]["tiny"] is True
        assert snap["body"]["chaos"]["crashed_nodes"]
        # the tiny load is exempt from the scaling gate, and the snapshot
        # records that it was not judged
        recorded = [g["name"] for g in snap["gates"]]
        assert recorded == [g.name for g in clusterbench.GATES[1:]]
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "valid cluster-bench snapshot" in out
        assert "gate ok: chaos availability = 1 (need >= 0.99)" in out
        assert "cluster gates: 3 ok" in out and "FAIL" not in out

    def test_recall_bench_tiny_passes_without_a_speedup_verdict(
        self, recall_run
    ):
        code, path = recall_run
        assert code == 0
        snap = load_snapshot(path)
        recorded = [g["name"] for g in snap["gates"]]
        assert recorded == [
            g.name for g in recallbench.GATES if "speedup" not in g.name
        ]

    def test_failing_gate_exits_1_with_gate_fail_lines(
        self, adapt_run, tmp_path, capsys
    ):
        _code, path = adapt_run
        body = load_snapshot(path)["body"]
        body["folds"] = 0
        body["byte_identical"] = False
        snap = gates.make_snapshot("adapt", body, gpu="A100", seed=7)
        out_path = tmp_path / "failed.json"
        assert gates.finish(snap, out_path) == 1
        out = capsys.readouterr().out
        assert out.count("GATE FAIL: ") == 2
        assert "GATE FAIL: correction folds = 0 (need >= 1)" in out
        assert "GATE FAIL: byte identity = 0 (need >= 1)" in out
        assert "adapt gates: 2 of 4 FAIL" in out
        # the snapshot is still written, so a failed run can be inspected
        assert load_snapshot(out_path) == snap

    @pytest.mark.parametrize(
        "command", ["recall-bench", "cluster-bench", "adapt-bench"]
    )
    def test_shared_options_parse_on_every_bench(self, command):
        args = build_parser().parse_args(
            [command, "--seed", "3", "--out", "x.json", "--tiny"]
        )
        assert (args.seed, args.out, args.tiny) == (3, "x.json", True)

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("recall-bench", "--gpu=H100"),
            ("recall-bench", "--no-gate"),
            ("recall-bench", "--no-serve"),
            ("cluster-bench", "--nodes=2"),
            ("cluster-bench", "--replication=0"),
            ("cluster-bench", "--placement=round-robin"),
            ("cluster-bench", "--partitions=0"),
            ("cluster-bench", "--workers=0"),
            ("cluster-bench", "--no-chaos"),
            ("adapt-bench", "--gpu-shift=H100"),
            ("adapt-bench", "--decisions=1"),
        ],
    )
    def test_removed_flags_are_rejected(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command, flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestEmptyGateList:
    def test_a_run_that_judges_no_gate_fails(
        self, cluster_run, tmp_path, monkeypatch, capsys
    ):
        # only the scaling gate, which the tiny load is exempt from: the
        # harness must not read "nothing judged" as a pass
        _code, path = cluster_run
        monkeypatch.setattr(clusterbench, "GATES", clusterbench.GATES[:1])
        body = load_snapshot(path)["body"]
        snap = gates.make_snapshot("cluster", body, gpu="A100", seed=0)
        assert snap["gates"] == []
        monkeypatch.setattr(
            clusterbench, "collect_snapshot", lambda **_: snap
        )
        out_path = tmp_path / "empty.json"
        code = main(["cluster-bench", "--tiny", "--out", str(out_path), "-q"])
        assert code == 1
        assert "GATE FAIL: no gate evaluated" in capsys.readouterr().out
        assert main(["inspect", str(out_path)]) == 0
        assert "GATE FAIL: no gate evaluated" in capsys.readouterr().out


# --------------------------------------------------------------------------- #
# one mutation per declared gate
# --------------------------------------------------------------------------- #
def _floor(body, across):
    point = body["cells"][0]["points"][0]
    point["empirical_recall"] = point["recall_floor"] - (1e-6 if across else 0)


def _acceptance_speedup(body, across):
    cell = body["cells"][0]
    cell["acceptance"] = True
    for p in cell["points"]:
        p["speedup"] = 1.0
    best = cell["points"][0]
    best["empirical_recall"] = max(
        best["empirical_recall"], recallbench.ACCEPT_RECALL
    )
    best["speedup"] = recallbench.ACCEPT_SPEEDUP - (1e-6 if across else 0)


def _serve_violations(body, across):
    body["serve"]["recall_violations"] = 1 if across else 0


def _serve_approx(body, across):
    body["serve"]["approx_served"] = 0 if across else 1


def _scaling(body, across):
    # the doctored full-load snapshot: 1.50x at 4 nodes must read FAIL
    body["tiny"] = False
    (cell,) = (c for c in body["sweep"] if c["nodes"] == 4)
    cell["speedup"] = 1.50 if across else clusterbench.ACCEPT_SPEEDUP


def _healthy_availability(body, across):
    body["sweep"][1]["availability"] = 0.999 if across else 1.0


def _crashed(body, across):
    body["chaos"]["crashed_nodes"] = [] if across else [0]


def _chaos_availability(body, across):
    body["chaos"]["availability"] = (
        clusterbench.ACCEPT_AVAILABILITY - (1e-6 if across else 0)
    )


def _regret_ratio(body, across):
    body["post_shift"] = {
        "adaptive_regret_s": 1.0,
        "static_regret_s": 1.29 if across else adaptbench.ACCEPT_RATIO,
    }


def _static_regret_zero(body, across):
    body["post_shift"] = {
        "adaptive_regret_s": 0.0 if across else 1e-6,
        "static_regret_s": 0.0 if across else 1e-3,
    }


def _folds(body, across):
    body["folds"] = 0 if across else 1


def _byte_identity(body, across):
    body["byte_identical"] = not across


def _noop(body, across):
    body["no_telemetry_noop"] = not across


MUTATIONS = [
    ("recall", "points below their promised recall floor", _floor),
    ("recall", "acceptance speedup at recall >= 0.95", _acceptance_speedup),
    ("recall", "serve recall violations", _serve_violations),
    ("recall", "serve approximate results", _serve_approx),
    ("cluster", "4-node capacity speedup", _scaling),
    ("cluster", "healthy sweep availability", _healthy_availability),
    ("cluster", "chaos crashed replicas", _crashed),
    ("cluster", "chaos availability", _chaos_availability),
    ("adapt", "post-shift regret ratio (static / adaptive)", _regret_ratio),
    ("adapt", "post-shift regret ratio (static / adaptive)",
     _static_regret_zero),
    ("adapt", "correction folds", _folds),
    ("adapt", "byte identity", _byte_identity),
    ("adapt", "no-telemetry no-op", _noop),
]


class TestGateMutations:
    def test_every_declared_gate_has_a_mutation(self):
        declared = {
            (name, g.name)
            for name in gates.BENCHES
            for g in gates.bench_module(name).GATES
        }
        assert declared == {(bench, gate) for bench, gate, _ in MUTATIONS}

    @pytest.mark.parametrize(
        "bench, gate, push",
        MUTATIONS,
        ids=[f"{b}-{push.__name__.strip('_')}" for b, _, push in MUTATIONS],
    )
    def test_pushing_the_value_across_the_bound_fails_that_gate_alone(
        self, runs, bench, gate, push, tmp_path, monkeypatch, capsys
    ):
        _code, path = runs[bench]
        body = load_snapshot(path)["body"]
        at_bound, across = copy.deepcopy(body), copy.deepcopy(body)
        push(at_bound, across=False)
        push(across, across=True)
        passing = gates.make_snapshot(bench, at_bound, gpu="A100", seed=0)
        failing = gates.make_snapshot(bench, across, gpu="A100", seed=0)

        # at the bound every gate passes; across it, only this gate flips
        assert all(g["ok"] for g in passing["gates"]), passing["gates"]
        flipped = [g for g in failing["gates"] if not g["ok"]]
        assert [g["name"] for g in flipped] == [gate]
        assert [g for g in failing["gates"] if g["ok"]] == [
            g for g in passing["gates"] if g["name"] != gate
        ]
        (line,) = (c.line() for c in gates.checks(failing) if not c.ok)
        assert line.startswith(f"GATE FAIL: {gate} = ")

        # the command exits 1 on the failing measurement ...
        module = gates.bench_module(bench)
        monkeypatch.setattr(module, "collect_snapshot", lambda **_: failing)
        out_path = tmp_path / "mutated.json"
        code = main([f"{bench}-bench", "--tiny", "--out", str(out_path), "-q"])
        assert code == 1
        assert line in capsys.readouterr().out

        # ... and inspect shows the same verdict read back from disk
        assert main(["inspect", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert line in out
        assert out.count("GATE FAIL") == 1
