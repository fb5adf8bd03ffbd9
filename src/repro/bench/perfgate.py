"""Performance gate: pinned workload grid → ``BENCH_<rev>.json`` trajectory.

The fused batched hot paths (AIR Top-K, BucketSelect, the queue family)
are pure-Python emulations, so their *host wall-clock* is a real, easily
regressed quantity — a careless per-row loop reappearing in a fused path
shows up as a 10-100x slowdown long before any simulated-time drift.  This
module pins a small workload grid and measures, per cell:

* ``sim_time_s`` — simulated device seconds (deterministic; any change is
  a cost-model or accounting change, never noise);
* ``wall_s`` — best-of-``repeats`` host wall-clock of the emulation;
* for the fused algorithms, ``wall_unfused_s`` — the same cell forced
  through the per-row reference path (``params={"fused": False}``), whose
  ratio ``fused_speedup`` tracks the value of batch fusion.

Snapshots are schema-validated JSON (``repro.bench.perfgate/v1``) written
as ``BENCH_<rev>.json`` at the repository root; :func:`compare_snapshots`
gates a new snapshot against the previous one with a configurable
wall-clock tolerance (simulated times must match exactly).  CI runs this
via ``repro-topk perf-bench`` — see docs/execution.md.
"""

from __future__ import annotations

import json
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

from ..obs.schema import validate
from ..perf import simulate_topk

SCHEMA_ID = "repro.bench.perfgate/v1"

#: wall-clock regression tolerance of the gate (25% — generous enough for
#: shared CI runners, tight enough to catch a de-fused hot path)
DEFAULT_TOLERANCE = 0.25

#: algorithms with a per-row reference path selectable via
#: ``params={"fused": False}``
FUSED_ALGORITHMS = ("air_topk", "bucket_select", "quick_select", "sample_select")


@dataclass(frozen=True)
class GateCell:
    """One pinned workload of the perf-gate grid."""

    algo: str
    n: int
    k: int
    batch: int
    #: hot cells gate the build: a wall-clock regression beyond tolerance
    #: fails the comparison; cold cells are recorded but informational
    hot: bool = True


#: the pinned grid.  The batch=100 cells sit in the overhead-dominated
#: regime (small rows, many of them) where per-row scheduling cost — not
#: element math — is the bill, which is precisely what batch fusion
#: removes; their aggregate fused-vs-per-row ratio is published as
#: ``batch100_fused_speedup``.  The large single-problem cell and the
#: deliberately serial sort baseline guard the math-dominated regime.
PINNED_GRID: tuple[GateCell, ...] = (
    GateCell("air_topk", 1024, 16, 100),
    GateCell("bucket_select", 2048, 16, 100),
    GateCell("bucket_select", 2048, 64, 100),
    GateCell("quick_select", 2048, 16, 100),
    GateCell("sample_select", 2048, 16, 100),
    GateCell("grid_select", 1 << 16, 64, 100),
    GateCell("air_topk", 1 << 18, 256, 1),
    GateCell("sort", 1 << 14, 64, 16, hot=False),
)

#: reduced grid for tests and smoke runs
TINY_GRID: tuple[GateCell, ...] = (
    GateCell("air_topk", 4096, 16, 8),
    GateCell("bucket_select", 4096, 16, 8),
)

SNAPSHOT_SCHEMA = {
    "type": "object",
    "required": ["schema", "rev", "gpu", "repeats", "seed", "cells"],
    "properties": {
        "schema": {"const": SCHEMA_ID},
        "rev": {"type": "string"},
        "gpu": {"type": "string"},
        "repeats": {"type": "integer"},
        "seed": {"type": "integer"},
        "batch100_fused_speedup": {"type": "number"},
        "cells": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "algo", "n", "k", "batch", "hot", "sim_time_s", "wall_s",
                ],
                "properties": {
                    "algo": {"type": "string"},
                    "n": {"type": "integer"},
                    "k": {"type": "integer"},
                    "batch": {"type": "integer"},
                    "hot": {"type": "boolean"},
                    "sim_time_s": {"type": "number"},
                    "wall_s": {"type": "number"},
                    "wall_unfused_s": {"type": "number"},
                    "fused_speedup": {"type": "number"},
                },
            },
        },
    },
}


def _git(root: Path | str, *args: str) -> str:
    """Stripped stdout of ``git args`` run in ``root``; empty outside a
    checkout or when git fails."""
    try:
        out = subprocess.run(
            ["git", *args],
            cwd=str(root),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return out.stdout.strip() if out.returncode == 0 else ""


def git_rev(root: Path | str = ".") -> str:
    """Short git revision of ``root``, or ``"local"`` outside a checkout."""
    return _git(root, "rev-parse", "--short", "HEAD") or "local"


def _measure(cell: GateCell, *, gpu: str, repeats: int, seed: int, **kwargs):
    """Best-of-``repeats`` wall-clock and the (deterministic) sim time.

    The workload is generated once, outside the timed region, so ``wall``
    measures the emulated algorithm itself and not ``datagen``."""
    from ..datagen import generate
    from ..device import get_spec

    spec = get_spec(gpu)
    data = generate("uniform", n=cell.n, batch=cell.batch, seed=seed)
    wall = float("inf")
    sim = 0.0
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        run = simulate_topk(
            cell.algo,
            distribution="uniform",
            n=cell.n,
            k=cell.k,
            batch=cell.batch,
            spec=spec,
            seed=seed,
            data=data,
            **kwargs,
        )
        wall = min(wall, time.perf_counter() - start)
        sim = run.time
    return sim, wall


def collect_snapshot(
    grid: tuple[GateCell, ...] = PINNED_GRID,
    *,
    gpu: str = "A100",
    repeats: int = 3,
    seed: int = 0,
    rev: str | None = None,
    progress=None,
) -> dict:
    """Measure every grid cell and return a validated snapshot payload."""
    cells = []
    for cell in grid:
        sim, wall = _measure(cell, gpu=gpu, repeats=repeats, seed=seed)
        entry = {
            "algo": cell.algo,
            "n": cell.n,
            "k": cell.k,
            "batch": cell.batch,
            "hot": cell.hot,
            "sim_time_s": sim,
            "wall_s": wall,
        }
        if cell.algo in FUSED_ALGORITHMS and cell.batch > 1:
            # the per-row reference path; its simulated time may legitimately
            # differ (BucketSelect's fused scheduling removes per-row syncs
            # and PCIe round trips), the wall ratio tracks the host win
            _, wall_u = _measure(
                cell, gpu=gpu, repeats=repeats, seed=seed,
                params={"fused": False},
            )
            entry["wall_unfused_s"] = wall_u
            entry["fused_speedup"] = wall_u / wall if wall > 0 else float("inf")
        cells.append(entry)
        if progress is not None:
            progress(entry)
    snapshot = {
        "schema": SCHEMA_ID,
        "rev": rev if rev is not None else git_rev(),
        "gpu": gpu,
        "repeats": int(repeats),
        "seed": int(seed),
        "cells": cells,
    }
    # aggregate fused-vs-per-row ratio over the batch=100 fusion cells —
    # wall-weighted, so big cells cannot be hidden behind fast ones
    fused = [
        c for c in cells if c["batch"] == 100 and "wall_unfused_s" in c
    ]
    if fused:
        total = sum(c["wall_s"] for c in fused)
        total_u = sum(c["wall_unfused_s"] for c in fused)
        snapshot["batch100_fused_speedup"] = (
            total_u / total if total > 0 else float("inf")
        )
    validate(snapshot, SNAPSHOT_SCHEMA)
    return snapshot


def write_snapshot(snapshot: dict, root: Path | str = ".") -> Path:
    """Validate and write ``BENCH_<rev>.json`` under ``root``."""
    validate(snapshot, SNAPSHOT_SCHEMA)
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    path = root / f"BENCH_{snapshot['rev']}.json"
    path.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return path


def load_snapshot(path: Path | str) -> dict:
    """Read and schema-validate a snapshot file."""
    payload = json.loads(Path(path).read_text())
    validate(payload, SNAPSHOT_SCHEMA)
    return payload


def find_baseline(
    root: Path | str = ".", *, exclude: Path | str | None = None
) -> Path | None:
    """The ``BENCH_<rev>.json`` under ``root`` to gate against, or None
    when there is no baseline yet.

    The snapshot whose rev is the nearest git ancestor of HEAD wins (HEAD
    itself included), so the choice does not depend on file times, which
    a fresh clone sets arbitrarily.  Outside a git checkout, or when no
    snapshot's rev is an ancestor, the newest file by mtime is used.
    ``exclude`` drops the snapshot just written.
    """
    exclude = Path(exclude).resolve() if exclude is not None else None
    candidates = [
        p for p in Path(root).glob("BENCH_*.json") if p.resolve() != exclude
    ]
    if not candidates:
        return None
    by_rev = {p.stem[len("BENCH_"):]: p for p in candidates}
    for sha in _git(root, "rev-list", "HEAD").split():
        for rev, path in by_rev.items():
            if rev and sha.startswith(rev):
                return path
    return max(candidates, key=lambda p: p.stat().st_mtime)


@dataclass
class GateReport:
    """Outcome of one snapshot comparison."""

    #: hot-cell wall-clock regressions beyond tolerance — these fail CI
    regressions: list[str] = field(default_factory=list)
    #: informational lines: cold-cell drift, new/removed cells, sim drift
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions


def _cell_key(entry: dict) -> tuple:
    return (entry["algo"], entry["n"], entry["k"], entry["batch"])


def compare_snapshots(
    baseline: dict, current: dict, *, tolerance: float = DEFAULT_TOLERANCE
) -> GateReport:
    """Gate ``current`` against ``baseline``.

    A *hot* cell whose wall-clock exceeds the baseline by more than
    ``tolerance`` (fractional, default 25%) is a regression.  Simulated
    times are deterministic, so any ``sim_time_s`` change is surfaced as a
    note — it means the cost accounting itself changed, which a PR should
    be stating loudly anyway.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance}")
    report = GateReport()
    base = {_cell_key(c): c for c in baseline["cells"]}
    for entry in current["cells"]:
        key = _cell_key(entry)
        label = "{}(n={}, k={}, batch={})".format(*key)
        ref = base.pop(key, None)
        if ref is None:
            report.notes.append(f"{label}: new cell, no baseline")
            continue
        if entry["sim_time_s"] != ref["sim_time_s"]:
            report.notes.append(
                f"{label}: simulated time changed "
                f"{ref['sim_time_s']:.6e} -> {entry['sim_time_s']:.6e}"
            )
        limit = ref["wall_s"] * (1.0 + tolerance)
        if entry["wall_s"] > limit:
            ratio = entry["wall_s"] / ref["wall_s"] if ref["wall_s"] else float("inf")
            line = (
                f"{label}: wall {ref['wall_s']:.4f}s -> "
                f"{entry['wall_s']:.4f}s ({ratio:.2f}x, tolerance "
                f"{1.0 + tolerance:.2f}x)"
            )
            if entry["hot"]:
                report.regressions.append(line)
            else:
                report.notes.append(f"cold {line}")
    for key in base:
        report.notes.append(
            "{}(n={}, k={}, batch={}): cell removed".format(*key)
        )
    return report
