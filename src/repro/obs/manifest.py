"""Run manifests: provenance for every CSV a sweep or suite writes.

The CSVs under ``benchmarks/out/`` were previously unexplainable after
the fact — no record of the grid, the seed, the package version or the
machine behaviour that produced them.  ``manifest.json``, written next to
each sweep/suite CSV, captures:

* the full sweep **config** (algorithms, distributions, Ns, Ks, batches,
  cap, workers, timeout) and the base **seed**;
* the **grid shape** and per-status row tallies (ok / unsupported /
  error / timeout), so SOTA denominators stay auditable from the
  manifest alone;
* **wall time** and package + git **versions**;
* the sweep-wide aggregate :class:`repro.device.DeviceCounters` —
  simulated kernel launches, memory traffic, FLOPs, PCIe transfers and
  syncs summed over every measured point.

Schema: ``repro.obs.manifest/v1`` (:data:`repro.obs.schema.MANIFEST_SCHEMA`).
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Iterable

from .schema import validate_manifest


def git_revision(*, short: bool = False) -> str | None:
    """Git commit of the checkout this package runs from (abbreviated
    when ``short``), or None outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", *(["--short"] if short else []), "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            cwd=Path(__file__).resolve().parent,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def versions() -> dict:
    """Package/interpreter versions identifying what produced a run."""
    import numpy

    from .. import __version__

    info = {
        "repro": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    rev = git_revision()
    if rev is not None:
        info["git"] = rev
    return info


def counters_payload(counters) -> dict:
    """JSON-ready dump of a :class:`repro.device.DeviceCounters`."""
    return {
        "kernel_launches": int(counters.kernel_launches),
        "bytes_read": float(counters.bytes_read),
        "bytes_written": float(counters.bytes_written),
        "flops": float(counters.flops),
        "h2d_transfers": int(counters.h2d_transfers),
        "d2h_transfers": int(counters.d2h_transfers),
        "h2d_bytes": float(counters.h2d_bytes),
        "d2h_bytes": float(counters.d2h_bytes),
        "syncs": int(counters.syncs),
        "peak_workspace_bytes": float(counters.peak_workspace_bytes),
    }


def build_manifest(
    *,
    command: str,
    config: dict,
    seed: int,
    points: Iterable,
    wall_time_s: float,
    artifacts: dict | None = None,
) -> dict:
    """Assemble a schema-valid manifest for one sweep/suite run.

    ``points`` is any iterable of :class:`repro.bench.BenchPoint`-likes;
    the grid shape, status tallies and aggregate device counters are
    derived from it.  ``artifacts`` maps artifact kinds to the file names
    written alongside (csv, metrics, trace).
    """
    from ..device.counters import aggregate_counters

    points = list(points)
    status: dict[str, int] = {}
    for p in points:
        status[p.status] = status.get(p.status, 0) + 1

    def distinct(attr: str) -> list:
        seen: dict = {}
        for p in points:
            seen.setdefault(getattr(p, attr), None)
        return list(seen)

    manifest = {
        "schema": "repro.obs.manifest/v1",
        "created_unix": time.time(),
        "command": command,
        "argv": sys.argv[1:],
        "config": config,
        "seed": int(seed),
        "grid": {
            "total_points": len(points),
            "algos": distinct("algo"),
            "distributions": distinct("distribution"),
            "ns": distinct("n"),
            "ks": distinct("k"),
            "batches": distinct("batch"),
        },
        "status": status,
        "wall_time_s": float(wall_time_s),
        "versions": versions(),
        "device_counters": counters_payload(aggregate_counters(points)),
    }
    if artifacts:
        manifest["artifacts"] = artifacts
    return manifest


def write_manifest(manifest: dict, path) -> Path:
    """Validate and write ``manifest.json``; returns the path."""
    validate_manifest(manifest)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(manifest, indent=1, default=str) + "\n")
    return path
