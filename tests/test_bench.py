"""Tests for the benchmark harness: sweeps, SOTA, Table 2, reporting."""

from __future__ import annotations

import csv

import pytest

from repro.bench import (
    ALL_ALGORITHMS,
    BASELINE_ALGORITHMS,
    OUR_ALGORITHMS,
    BenchPoint,
    SweepResult,
    format_series_table,
    format_table,
    format_time,
    geomean,
    run_point,
    speedup_range,
    sweep,
    table2,
    write_csv,
)


@pytest.fixture(scope="module")
def mini_sweep() -> SweepResult:
    return sweep(
        distributions=("uniform",),
        ns=(1 << 12, 1 << 14),
        ks=(8, 64),
        batches=(1,),
        cap=1 << 16,
    )


class TestRoster:
    def test_partition(self):
        assert set(OUR_ALGORITHMS) | set(BASELINE_ALGORITHMS) == set(ALL_ALGORITHMS)
        assert not set(OUR_ALGORITHMS) & set(BASELINE_ALGORITHMS)
        assert len(BASELINE_ALGORITHMS) == 8


class TestRunPoint:
    def test_supported(self):
        p = run_point("air_topk", distribution="uniform", n=1 << 12, k=16)
        assert p.time is not None and p.time > 0
        assert p.mode == "exact"

    def test_unsupported_yields_none(self):
        p = run_point("bitonic_topk", distribution="uniform", n=1 << 12, k=512)
        assert p.time is None
        assert p.status == "unsupported"
        assert p.detail  # the reason is recorded, not silently dropped

    def test_ok_status(self):
        p = run_point("sort", distribution="uniform", n=1 << 12, k=16)
        assert p.status == "ok" and p.detail == ""

    def test_auto_records_dispatch(self):
        p = run_point("auto", distribution="uniform", n=1 << 12, k=16)
        assert p.status == "ok"
        assert p.detail.startswith("dispatch=")
        assert p.detail.removeprefix("dispatch=") in ALL_ALGORITHMS


class TestSweep:
    def test_grid_coverage(self, mini_sweep):
        assert len(mini_sweep.points) == len(ALL_ALGORITHMS) * 2 * 2
        assert len(mini_sweep.keys()) == 4

    def test_records_k_above_n_as_unsupported(self):
        res = sweep(
            algos=("air_topk",),
            distributions=("uniform",),
            ns=(16,),
            ks=(8, 64),
            cap=1 << 16,
        )
        # the k > n point is recorded explicitly, not silently dropped
        assert len(res.points) == 2
        ok, bad = res.points
        assert ok.status == "ok" and ok.k == 8
        assert bad.status == "unsupported" and bad.k == 64
        assert bad.time is None and "exceeds" in bad.detail

    def test_time_of(self, mini_sweep):
        t = mini_sweep.time_of("sort", "uniform", 1 << 12, 8, 1)
        assert t is not None
        assert mini_sweep.time_of("sort", "uniform", 1 << 13, 8, 1) is None

    def test_sota_excludes_our_methods(self, mini_sweep):
        key = ("uniform", 1 << 12, 8, 1)
        sota = mini_sweep.sota_time(*key)
        baseline_times = [
            mini_sweep.time_of(a, *key)
            for a in BASELINE_ALGORITHMS
            if mini_sweep.time_of(a, *key) is not None
        ]
        assert sota == min(baseline_times)
        air = mini_sweep.time_of("air_topk", *key)
        # even if AIR is faster, SOTA must not include it
        assert sota >= min(baseline_times)
        assert air not in (None,)

    def test_series(self, mini_sweep):
        s = mini_sweep.series(
            "air_topk", distribution="uniform", batch=1, vary="k", fixed={"n": 1 << 12}
        )
        assert [x for x, _ in s] == [8, 64]
        with pytest.raises(ValueError):
            mini_sweep.series(
                "air_topk", distribution="uniform", batch=1, vary="z", fixed={}
            )

    def test_progress_callback(self):
        seen = []
        sweep(
            algos=("air_topk", "sort"),
            distributions=("uniform",),
            ns=(1 << 10,),
            ks=(4,),
            cap=1 << 14,
            progress=seen.append,
        )
        assert len(seen) == 2
        assert all(isinstance(ev.point, BenchPoint) for ev in seen)


class TestSpeedups:
    def test_range_vs_algorithm(self, mini_sweep):
        r = speedup_range(
            mini_sweep,
            numerator="air_topk",
            denominator="radix_select",
            distribution="uniform",
            batch=1,
        )
        assert r.points == 4
        assert 0 < r.low <= r.high

    def test_range_vs_sota(self, mini_sweep):
        r = speedup_range(
            mini_sweep,
            numerator="air_topk",
            denominator="sota",
            distribution="uniform",
            batch=1,
        )
        assert r.points == 4

    def test_empty_range(self, mini_sweep):
        r = speedup_range(
            mini_sweep,
            numerator="air_topk",
            denominator="sota",
            distribution="normal",
            batch=1,
        )
        assert r.points == 0
        assert r.formatted() == "n/a"

    def test_table2_rows(self, mini_sweep):
        rows = table2(mini_sweep, batches=(1,), distributions=("uniform",))
        assert len(rows) == 1
        row = rows[0]
        assert row.air_vs_radix.low > 1.0  # AIR always beats RadixSelect here
        assert "-" in row.air_vs_radix.formatted()


class TestReport:
    def test_format_time(self):
        assert format_time(None) == "-"
        assert format_time(5e-6) == "5.00us"
        assert format_time(5e-3) == "5.000ms"
        assert format_time(5.0) == "5.000s"

    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(l) for l in lines[:1])) == 1

    def test_format_table_validates(self):
        with pytest.raises(ValueError):
            format_table(["a"], [["1", "2"]])

    def test_series_table(self, mini_sweep):
        text = format_series_table(
            mini_sweep,
            algos=("air_topk", "sort"),
            distribution="uniform",
            batch=1,
            vary="k",
            fixed={"n": 1 << 12},
        )
        assert "air_topk" in text and "sort" in text
        assert "2^3" in text  # power-of-two x labels

    def test_write_csv(self, mini_sweep, tmp_path):
        path = write_csv(mini_sweep.points, tmp_path / "out" / "points.csv")
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "algo",
            "distribution",
            "n",
            "k",
            "batch",
            "time_s",
            "mode",
            "status",
            "detail",
        ]
        assert len(rows) == len(mini_sweep.points) + 1

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geomean([])
