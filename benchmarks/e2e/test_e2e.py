"""Tests of the end-to-end benchmark: ``python -m pytest benchmarks/e2e -q``.

Workloads run shrunk through ``scale`` and in this process, so the suite
takes seconds rather than the benchmark's minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import compare  # noqa: E402
import harness  # noqa: E402
import repro  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, Answer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = 1 / 16


def names(kind: str) -> list[str]:
    return [m["name"] for m in BENCH[kind]]


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_emits_exactly_the_declared_metrics(workload, tmp_path):
    plain = harness.measure(workload, seed=3, budget_s=0.0, scale=SCALE)
    traced = harness.measure(
        workload, seed=3, budget_s=0.0, trace=True, scale=SCALE,
        trace_path=tmp_path / "trace.json",
    )
    for record in (plain, traced):
        assert record["correct"], record["problems"]
        assert record["failed"] == 0
    assert list(run.e2e_metrics([plain])) == names("end_to_end")
    assert list(traced["layers"]) == names("per_layer")
    summary = run.summarize([plain, plain], BENCH["end_to_end"], trace=False)
    assert list(summary["metrics"]) == names("end_to_end")
    assert summary["correct"] and summary["attempted"] == 2 * plain["attempted"]
    summary = run.summarize([traced], BENCH["per_layer"], trace=True)
    assert list(summary["metrics"]) == names("per_layer")


def test_planted_wrong_answer_fails_the_run(monkeypatch):
    real = repro.topk

    def planted(data, k, **kwargs):
        result = real(data, k, **kwargs)
        if kwargs.get("algo") == "air_topk":
            result.values = result.values + np.float32(1.0)
        return result

    monkeypatch.setattr(repro, "topk", planted)
    record = harness.measure("roster", seed=0, budget_s=0.0, scale=SCALE)
    assert not record["correct"]
    assert record["mismatches"] >= 1
    assert "data[indices] != values" in record["problems"][0]
    assert not run.summarize([record], BENCH["end_to_end"], trace=False)["correct"]


def test_oracle_checks_exact_values_and_approximate_recall():
    data = np.arange(100, dtype=np.float32)[::-1].copy()
    best = np.arange(99, 89, -1)
    good = Answer(data, 10, "ok", data[best], best)
    assert harness.oracle_problem(good) is None
    shifted = np.arange(98, 88, -1)
    wrong = Answer(data, 10, "ok", data[shifted], shifted)
    assert "np.partition" in harness.oracle_problem(wrong)
    # 9 of the true top 10: recall 0.9
    approx = Answer(data, 10, "ok", data[shifted], shifted, exact=False, recall_bound=0.9)
    assert harness.oracle_problem(approx) is None
    approx.recall_bound = 0.95
    assert "below its bound" in harness.oracle_problem(approx)
    assert harness.oracle_problem(Answer(data, 10, "shed")) is None


def test_a_round_that_changes_its_simulated_figures_fails(monkeypatch):
    real = WORKLOADS["serve-hot"].run
    calls = []

    def drifting(self):
        rnd = real(self)
        calls.append(1)
        if len(calls) > 1:
            rnd.sim["sim_ms_p99"] += 1e-9
        return rnd

    monkeypatch.setattr(WORKLOADS["serve-hot"], "run", drifting)
    record = harness.measure("serve-hot", seed=0, budget_s=0.0, scale=SCALE)
    assert not record["correct"]
    assert "differ from the warm-up round" in record["problems"][0]


@pytest.mark.parametrize("workload", ["roster", "cluster-chaos"])
def test_layer_self_times_cover_the_traced_round_wall(workload, tmp_path):
    record = harness.measure(
        workload, seed=1, budget_s=0.0, trace=True, scale=SCALE,
        trace_path=tmp_path / "trace.json",
    )
    assert abs(record["layer_coverage"] - 1.0) <= 0.05
    layers = record["layers"]
    assert layers["bench.harness_pct"] <= 5.0
    shares = sum(v for k, v in layers.items() if k.endswith("self_pct"))
    assert abs(shares + layers["bench.harness_pct"] - 100.0) <= 5.0
    trace = json.loads((tmp_path / "trace.json").read_text())
    events = trace["traceEvents"]
    assert events and {e["ph"] for e in events} == {"X"}
    ids = {e["args"]["span_id"] for e in events}
    assert all(e["args"]["parent_id"] in ids | {0} for e in events)
    assert trace["otherData"]["device_pass_host_us"]


def _result(workload, seed, value, sim=1.0):
    return {
        "workload": workload, "seed": seed,
        "metrics": {m: {"value": value, "unit": "x"} for m in names("end_to_end")},
        "sim": {"sim_ms_p99": sim}, "sim_digest": str(sim),
    }


def test_compare_verdicts_on_synthetic_runs(tmp_path):
    v = compare.verdict
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    assert v(parent, list(parent), better="higher", bound=0.1) == "same"
    assert v(parent, [x * 0.8 for x in parent], better="higher", bound=0.1) == "worse"
    assert v(parent, [x * 0.8 for x in parent], better="lower", bound=0.1) == "improved"
    assert v(parent, [x * 1.05 for x in parent], better="higher", bound=0.1) == "improved"
    noisy = [50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 80.0, 120.0, 100.0]
    assert v(parent, noisy, better="higher", bound=0.1) == "unresolved"
    # a wide spread does not hide a change that beats every parent run
    assert v(parent, [x + 200 for x in noisy], better="higher", bound=0.1) == "improved"
    # a setup_s change under its absolute floor is not worse
    assert v([0.2] * 5, [0.25] * 5, better="lower", bound=0.1, floor=0.1) == "same"
    assert v([1.0, 2.0], [1.0, 2.0], better="lower", bound=0.0) == "same"
    assert v([1.0, 2.0], [1.0, 2.5], better="lower", bound=0.0) == "worse"

    for side, factor in (("parent", 1.0), ("change", 0.5)):
        (tmp_path / side).mkdir()
        for seed in range(3):
            sim = 2.0 if side == "change" and seed == 0 else 1.0
            path = tmp_path / side / f"roster.seed{seed}.json"
            path.write_text(json.dumps(_result("roster", seed, 10.0 * factor, sim)))
    table = {r["metric"]: r["verdict"] for r in compare.rows(
        compare.load(tmp_path / "parent"), compare.load(tmp_path / "change"), BENCH
    )}
    assert table["host_rps"] == "worse"  # higher is better, and it halved
    assert table["setup_s"] == "improved"
    assert table["sim_ms_p99"] == "changed"
    assert table["sim_digest"] == "changed"
    assert compare.main([str(tmp_path / "parent"), str(tmp_path / "change")]) == 1


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "roster",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
