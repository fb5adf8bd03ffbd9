"""Tests for the one-call paper-suite runner and related guarantees."""

from __future__ import annotations

import numpy as np
import pytest

from repro import algorithm_names, topk
from repro.bench import run_paper_suite
from repro.cli import main
from tests.test_golden_cli import golden_stdout, normalise


@pytest.fixture(scope="module")
def suite(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite")
    return run_paper_suite(out_dir=out, cap=1 << 14), out


class TestPaperSuite:
    def test_all_sections_present(self, suite):
        result, _ = suite
        titles = [t for t, _ in result.sections]
        assert any("Table 2" in t for t in titles)
        assert any("Fig. 8" in t for t in titles)
        assert any("Table 3" in t for t in titles)
        assert any("ablations" in t for t in titles)
        assert any("Fig. 12" in t for t in titles)
        assert any("Fig. 13" in t for t in titles)

    def test_render(self, suite):
        result, _ = suite
        text = result.render()
        assert "AIR vs Radix" in text
        assert "iteration_fused_kernel" in text
        assert "suite completed" in text

    def test_outputs_written(self, suite):
        _, out = suite
        assert (out / "paper_grid.csv").exists()
        assert (out / "paper_suite.txt").exists()
        assert "Table 2" in (out / "paper_suite.txt").read_text()

    def test_sweep_attached(self, suite):
        result, _ = suite
        assert result.sweep_result is not None
        assert len(result.sweep_result.points) > 100

    def test_cli_reproduce(self, capsys, tmp_path):
        assert main(["reproduce", "--cap", "2^13", "--out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert normalise(out) == golden_stdout("reproduce")
        assert (tmp_path / "paper_suite.txt").exists()


class TestInputPurity:
    """No algorithm may mutate caller data — a library-grade guarantee."""

    @pytest.mark.parametrize("algo", algorithm_names())
    def test_input_unmodified(self, algo, rng):
        data = rng.standard_normal(3000).astype(np.float32)
        snapshot = data.copy()
        topk(data, 50, algo=algo)
        assert np.array_equal(data, snapshot)

    @pytest.mark.parametrize("algo", ["air_topk", "grid_select"])
    def test_batched_input_unmodified(self, algo, rng):
        data = rng.standard_normal((4, 1000)).astype(np.float32)
        snapshot = data.copy()
        topk(data, 10, algo=algo, largest=True)
        assert np.array_equal(data, snapshot)

    def test_noncontiguous_input(self, rng):
        base = rng.standard_normal(4000).astype(np.float32)
        view = base[::2]  # stride-2 view
        r = topk(view, 20, algo="air_topk")
        from repro import check_topk

        check_topk(np.ascontiguousarray(view), r.values, r.indices)


class TestRepeatability:
    @pytest.mark.parametrize("algo", algorithm_names())
    def test_same_seed_same_everything(self, algo, rng):
        data = rng.standard_normal(4000).astype(np.float32)
        a = topk(data, 64, algo=algo, seed=3)
        b = topk(data, 64, algo=algo, seed=3)
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.indices, b.indices)
        assert a.time == b.time
        assert a.device.counters.bytes_total == b.device.counters.bytes_total
