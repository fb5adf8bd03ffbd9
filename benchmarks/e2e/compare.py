"""Compare two sets of benchmark results, one row per (workload, metric).

    python3 benchmarks/e2e/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the ``<workload>.seed<n>.json`` files run.py writes
with ``--out``; make the two sets with the same run length and alternate
which side runs first.  Runs pair up by seed.  Every row shows each side's
median and quartiles and one verdict:

* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound (a share of the parent median) and its floor;
* ``unresolved``: either side's spread (interquartile range over median)
  is wider than the bound, unless every change run beats every parent run;
* ``improved``: the change wins at least 9 of 10 pairs, ties counting for
  neither, and the medians differ by more than the parent's interquartile
  range;
* ``same`` otherwise.

Simulated-clock figures are deterministic, so they compare exactly per
seed: ``same``, or ``worse``/``improved``/``changed``.  The exit code is 1
when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: absolute change a metric must also exceed to count as worse
FLOORS = {"setup_s": 0.1}
#: simulated figures where a larger value is better (the rest: lower)
SIM_HIGHER = {"sim_capacity_rps", "served", "approx_served"}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: list[float],
    change: list[float],
    *,
    better: str,
    bound: float,
    floor: float = 0.0,
) -> str:
    """The verdict on one metric; ``parent[i]`` pairs with ``change[i]``."""
    sign = 1.0 if better == "higher" else -1.0
    p1, mp, p3 = quartiles(parent)
    c1, mc, c3 = quartiles(change)
    worse_by = sign * (mp - mc)
    if bound == 0:
        if parent == change:
            return "same"
        return "worse" if worse_by > 0 else "improved" if worse_by < 0 else "changed"
    every_run_better = all(sign * (c - p) > 0 for c in change for p in parent)
    spread = max((p3 - p1) / abs(mp) if mp else 0.0, (c3 - c1) / abs(mc) if mc else 0.0)
    if spread > bound and not every_run_better:
        return "unresolved"
    if worse_by > bound * abs(mp) and worse_by > floor:
        return "worse"
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    if wins >= 0.9 * min(len(parent), len(change)) and abs(mc - mp) > p3 - p1:
        return "improved"
    return "same"


def load(directory: Path) -> dict[str, dict[int, dict]]:
    """workload -> seed -> result, from one set's result files."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(directory.glob("*.seed*.json")):
        result = json.loads(path.read_text())
        runs.setdefault(result["workload"], {})[result["seed"]] = result
    return runs


def rows(parent: dict, change: dict, bench: dict) -> list[dict]:
    """One comparison row per (workload, metric) present on both sides."""
    declared = {m["name"]: m for m in bench["end_to_end"]}
    out = []
    for workload in sorted(parent.keys() & change.keys()):
        seeds = sorted(parent[workload].keys() & change[workload].keys())
        if seeds:  # pair runs of the same seed
            p_runs = [parent[workload][s] for s in seeds]
            c_runs = [change[workload][s] for s in seeds]
        else:
            p_runs = [parent[workload][s] for s in sorted(parent[workload])]
            c_runs = [change[workload][s] for s in sorted(change[workload])]
        series = []
        for name, m in declared.items():
            series.append((
                name, m["unit"], m["better"], m["bound"], FLOORS.get(name, 0.0),
                [r["metrics"][name]["value"] for r in p_runs],
                [r["metrics"][name]["value"] for r in c_runs],
            ))
        if seeds:
            for name in p_runs[0]["sim"]:
                series.append((
                    name, "sim", "higher" if name in SIM_HIGHER else "lower", 0.0, 0.0,
                    [r["sim"][name] for r in p_runs],
                    [r["sim"][name] for r in c_runs],
                ))
            digests = ([r["sim_digest"] for r in p_runs], [r["sim_digest"] for r in c_runs])
            out.append({
                "workload": workload, "metric": "sim_digest", "unit": "sha256",
                "parent": None, "change": None, "runs": len(seeds),
                "verdict": "same" if digests[0] == digests[1] else "changed",
            })
        for name, unit, better, bound, floor, p, c in series:
            out.append({
                "workload": workload, "metric": name, "unit": unit,
                "parent": quartiles(p), "change": quartiles(c), "runs": len(p),
                "verdict": verdict(p, c, better=better, bound=bound, floor=floor),
            })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", type=Path, help="directory of the parent's results")
    parser.add_argument("change", type=Path, help="directory of the change's results")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = rows(load(args.parent), load(args.change), bench)
    if not table:
        print("no workload has results on both sides", file=sys.stderr)
        return 2

    def fmt(q):
        return "-" if q is None else f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"

    print(f"{'workload':14s} {'metric':20s} {'unit':7s} {'parent median [q1, q3]':38s} "
          f"{'change median [q1, q3]':38s} runs verdict")
    for r in table:
        print(f"{r['workload']:14s} {r['metric']:20s} {r['unit']:7s} {fmt(r['parent']):38s} "
              f"{fmt(r['change']):38s} {r['runs']:4d} {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in table) else 0


if __name__ == "__main__":
    sys.exit(main())
