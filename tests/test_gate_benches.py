"""The recall, cluster and adapt gate benches: shared snapshot path and CLI tail.

The three benches write their snapshots through one schema-validating
writer/loader and finish through one CLI tail (report, ``--out``,
``--no-gate``, ``GATE FAIL`` lines, exit code).  CI runs the commands
and trusts their exit codes, so the facts the gates cannot see on their
own — the pinned grids still contain the cells the headline gates need —
are pinned here too.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    SNAPSHOT_SCHEMAS,
    adaptbench,
    clusterbench,
    load_snapshot,
    recallbench,
    write_snapshot,
)
from repro.cli import _finish_gate_bench, build_parser, main
from repro.obs.schema import SchemaError


class TestPinnedGrids:
    def test_recall_regimes_keep_an_acceptance_regime(self):
        # gate_recall only checks the speedup headline on acceptance cells
        assert any(cell.acceptance for cell in recallbench.DEFAULT_REGIMES)

    def test_cluster_node_counts_cover_the_scaling_gate(self):
        # gate_cluster needs both cells to compare; with neither it is silent
        assert 1 in clusterbench.DEFAULT_NODE_COUNTS
        assert clusterbench.ACCEPT_NODES in clusterbench.DEFAULT_NODE_COUNTS


@pytest.fixture(scope="module")
def adapt_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("adapt") / "adapt.json"
    code = main(["adapt-bench", "--tiny", "--out", str(path), "-q"])
    return code, path


@pytest.fixture(scope="module")
def cluster_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("cluster") / "cluster.json"
    code = main(["cluster-bench", "--tiny", "--out", str(path), "-q"])
    return code, path


class TestSnapshotPath:
    def test_one_loader_covers_every_kind(self):
        assert set(SNAPSHOT_SCHEMAS) == {
            recallbench.SCHEMA_ID,
            clusterbench.SCHEMA_ID,
            adaptbench.SCHEMA_ID,
        }

    def test_round_trip_is_identical(self, adapt_run, tmp_path):
        _code, path = adapt_run
        snap = load_snapshot(path)
        copy = write_snapshot(snap, tmp_path / "nested" / "copy.json")
        assert copy.read_text() == path.read_text()

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
        # an adapt body under the cluster marker fails the cluster schema
        _code, path = adapt_run
        payload = json.loads(path.read_text())
        payload["schema"] = clusterbench.SCHEMA_ID
        bad = tmp_path / "mislabelled.json"
        bad.write_text(json.dumps(payload))
        with pytest.raises(SchemaError):
            load_snapshot(bad)


class TestGateBenchCommands:
    def test_adapt_bench_tiny_passes_and_inspects(self, adapt_run, capsys):
        code, path = adapt_run
        assert code == 0
        snap = load_snapshot(path)
        assert snap["schema"] == adaptbench.SCHEMA_ID
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "valid adapt-bench snapshot" in out
        assert "gate ok" in out

    def test_cluster_bench_tiny_passes_with_a_chaos_cell(
        self, cluster_run, capsys
    ):
        code, path = cluster_run
        assert code == 0
        snap = load_snapshot(path)
        assert snap["schema"] == clusterbench.SCHEMA_ID
        assert snap["chaos"] is not None
        assert snap["chaos"]["crashed_nodes"]
        assert main(["inspect", str(path)]) == 0
        out = capsys.readouterr().out
        assert "valid cluster-bench snapshot" in out
        assert "chaos present" in out and "gate ok" in out

    def test_failing_gate_exits_1_with_gate_fail_lines(
        self, adapt_run, tmp_path, capsys
    ):
        _code, path = adapt_run
        snap = load_snapshot(path)
        out_path = tmp_path / "failed.json"
        args = build_parser().parse_args(
            ["adapt-bench", "--tiny", "--out", str(out_path)]
        )
        failures = ["first broken contract", "second broken contract"]
        code = _finish_gate_bench(
            args, snap, adaptbench.render_adapt_report, lambda s: failures
        )
        assert code == 1
        out = capsys.readouterr().out
        assert out.count("GATE FAIL: ") == 2
        assert "GATE FAIL: first broken contract" in out
        assert "adapt gate: ok" not in out
        # the snapshot is still written, so a failed run can be inspected
        assert load_snapshot(out_path) == snap

    def test_no_gate_reports_without_gating(self, adapt_run, capsys):
        _code, path = adapt_run
        snap = load_snapshot(path)
        args = build_parser().parse_args(["adapt-bench", "--no-gate"])
        code = _finish_gate_bench(
            args, snap, adaptbench.render_adapt_report, lambda s: ["broken"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adapt-bench on" in out
        assert "GATE FAIL" not in out and "snapshot:" not in out

    @pytest.mark.parametrize("command", ["recall-bench", "cluster-bench", "adapt-bench"])
    def test_shared_options_parse_on_every_bench(self, command):
        args = build_parser().parse_args(
            [command, "--gpu", "H100", "--seed", "3", "--out", "x.json",
             "--tiny", "--no-gate"]
        )
        assert (args.gpu, args.seed, args.out, args.tiny, args.no_gate) == (
            "H100", 3, "x.json", True, True
        )
