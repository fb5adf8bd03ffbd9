"""End-to-end benchmark of the repro package, on the host and simulated clocks.

    python3 benchmarks/e2e/run.py --workload roster --seed 0 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --seed 0 --out results/    # every workload
    python3 benchmarks/e2e/run.py --workload serve-hot --trace 1

Each workload is measured by fresh worker processes (worker.py), started
one after another, each with one thread per numeric library.  Without
``--trace`` three workers share the ``--seconds`` budget, and ``setup_s``
is the median of their three set-ups.  With ``--trace`` one worker
alternates untraced and traced rounds and reports the per-layer metrics.

Every metric BENCHMARK.json declares is printed with its unit and sample
count; the last line of standard output is the result as one JSON object.
Results, layer metrics and Perfetto traces go to ``--out``.  The exit
code is 0 only when every answer passed the oracle and every round
reproduced the first one.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: worker processes per untraced run; setup_s is the median of theirs
WORKERS = 3
#: the workers of one workload end within this many seconds
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def e2e_metrics(records: list[dict]) -> dict[str, tuple[float, int]]:
    """End-to-end metric -> (value, sample count) over the workers' records.

    Host times are scaled to the reference speed measured next to them
    (harness.Reference), so that the host's drifting speed cancels out.
    """
    rounds = [r for rec in records for r in rec["rounds"]]
    return {
        "setup_s": (
            statistics.median(rec["setup_s"] * rec["setup_speed"] for rec in records),
            len(records),
        ),
        "host_rps": (
            statistics.median(r["ops"] * 1e9 / r["wall_ns"] / r["speed"] for r in rounds),
            len(rounds),
        ),
        "peak_rss_mb": (
            statistics.median(rec["peak_rss_mb"] for rec in records),
            len(records),
        ),
    }


def summarize(records: list[dict], declared: list[dict], trace: bool) -> dict:
    """The result of one workload: correctness, counts and every declared
    metric as ``{"value", "unit", "samples"}``."""
    if trace:
        (record,) = records
        traced = sum(r["traced"] for r in record["rounds"])
        values = {name: (v, traced) for name, v in record["layers"].items()}
    else:
        values = e2e_metrics(records)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics declared but not measured: {missing}")
    problems = [p for rec in records for p in rec["problems"]]
    digests = {(rec["output_digest"], rec["sim_digest"]) for rec in records}
    if len(digests) > 1:
        problems.append("workers disagree on answers or simulated figures")
    return {
        "correct": not problems,
        "attempted": sum(rec["attempted"] for rec in records),
        "failed": sum(rec["failed"] for rec in records),
        "metrics": {
            m["name"]: {
                "value": values[m["name"]][0],
                "unit": m["unit"],
                "samples": values[m["name"]][1],
            }
            for m in declared
        },
        "problems": problems,
    }


def run_workload(name: str, args, deadline: float) -> list[dict]:
    """Start the workers of one workload one at a time; their records."""
    count = 1 if args.trace else WORKERS
    env = dict(
        os.environ,
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        ),
    )
    command = [
        sys.executable, str(HERE / "worker.py"), name,
        "--seed", str(args.seed), "--seconds", str(args.seconds / count),
    ]
    if args.trace:
        command += ["--trace", "--trace-file", str(args.out / f"trace_{name}.json")]
    records = []
    for _ in range(count):
        try:
            proc = subprocess.run(
                command, cwd=ROOT, env=env, capture_output=True, text=True,
                timeout=max(1.0, deadline - time.monotonic()),
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{name}: worker passed the run deadline") from exc
        if proc.returncode != 0:
            raise BenchError(
                f"{name}: worker exited {proc.returncode}\n{proc.stderr[-3000:]}"
            )
        records.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return records


def report(name: str, summary: dict, records: list[dict]) -> None:
    """Human-readable block for one workload."""
    rounds = sum(len(rec["rounds"]) for rec in records)
    print(
        f"== {name}: {len(records)} worker(s), {rounds} rounds, "
        f"{summary['attempted']} ops attempted, {summary['failed']} failed, "
        f"correct={summary['correct']}"
    )
    for metric, m in summary["metrics"].items():
        print(f"  {metric:42s} {m['value']:14.6g} {m['unit']:8s} n={m['samples']}")
    sim = records[0]["sim"]
    print("  simulated clock: " + "  ".join(f"{k}={v:.6g}" for k, v in sim.items()))
    print(f"  sim_digest {records[0]['sim_digest']}")
    for label in records[0].get("missing_wrap_points", ()):
        print(f"  WARNING: wrap point {label} not found; its layer reads low")
    for problem in summary["problems"]:
        print(f"  PROBLEM: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", help="one workload (default: every one)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="measuring time per workload")
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: report per-layer metrics from traced rounds",
    )
    parser.add_argument("--out", type=Path, default=HERE / "results")
    args = parser.parse_args(argv)
    # exit through Python on SIGTERM, so subprocess.run kills and reaps
    # the running worker instead of leaving it behind
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    declared = bench["per_layer" if args.trace else "end_to_end"]
    args.out.mkdir(parents=True, exist_ok=True)

    results = {}
    for name in [args.workload] if args.workload else names:
        try:
            records = run_workload(name, args, time.monotonic() + DEADLINE_S)
            summary = summarize(records, declared, bool(args.trace))
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        report(name, summary, records)
        results[name] = summary
        stem = f"layers_{name}" if args.trace else f"{name}.seed{args.seed}"
        (args.out / f"{stem}.json").write_text(json.dumps({
            "workload": name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            **summary,
            "sim": records[0]["sim"],
            "sim_digest": records[0]["sim_digest"],
            "records": records,
        }, indent=1))

    metrics = {
        (f"{name}/{metric}" if len(results) > 1 else metric): {
            "value": m["value"], "unit": m["unit"],
        }
        for name, summary in results.items()
        for metric, m in summary["metrics"].items()
    }
    correct = all(s["correct"] for s in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["attempted"] for s in results.values()),
        "failed": sum(s["failed"] for s in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
