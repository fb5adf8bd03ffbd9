"""Plain-text and CSV rendering of benchmark results.

The benchmark scripts print the same rows and series the paper reports —
these helpers keep the formatting in one place.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Sequence

from .runner import BenchPoint, SweepResult


def format_time(seconds: float | None) -> str:
    """Human-readable simulated time (the figures use microseconds)."""
    if seconds is None:
        return "-"
    if seconds < 1e-3:
        return f"{seconds * 1e6:.2f}us"
    if seconds < 1.0:
        return f"{seconds * 1e3:.3f}ms"
    return f"{seconds:.3f}s"


def format_table(headers: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """Fixed-width ASCII table."""
    rows = [list(map(str, row)) for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    line = "  ".join(h.ljust(w) for h, w in zip(headers, widths))
    sep = "  ".join("-" * w for w in widths)
    body = [
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)) for row in rows
    ]
    return "\n".join([line, sep, *body])


def format_series_table(
    result: SweepResult,
    *,
    algos: Sequence[str],
    distribution: str,
    batch: int,
    vary: str,
    fixed: dict,
    x_label: str | None = None,
) -> str:
    """One figure panel as a table: x along rows, one column per algorithm.

    This is the textual equivalent of one sub-figure of the paper's Fig. 6
    (vary='k') or Fig. 7 (vary='n').
    """
    series = {
        algo: dict(
            result.series(
                algo, distribution=distribution, batch=batch, vary=vary, fixed=fixed
            )
        )
        for algo in algos
    }
    xs = sorted({x for s in series.values() for x in s})
    headers = [x_label or vary.upper()] + list(algos)
    rows = []
    for x in xs:
        row = [_pow2_label(x)]
        for algo in algos:
            row.append(format_time(series[algo].get(x)))
        rows.append(row)
    return format_table(headers, rows)


def _pow2_label(x: int) -> str:
    if x > 0 and x & (x - 1) == 0:
        return f"2^{x.bit_length() - 1}"
    return str(x)


def write_csv(points: Iterable[BenchPoint], path: str | Path) -> Path:
    """Dump benchmark points to CSV (one row per measurement)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
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
        )
        for p in points:
            writer.writerow(
                [
                    p.algo,
                    p.distribution,
                    p.n,
                    p.k,
                    p.batch,
                    "" if p.time is None else f"{p.time:.9e}",
                    p.mode,
                    p.status,
                    p.detail,
                ]
            )
    return path


def read_csv(path: str | Path) -> list[BenchPoint]:
    """Load benchmark points back from a :func:`write_csv` file.

    The inverse of :func:`write_csv` up to the columns it writes (device
    counters are not serialised).  Used by ``repro-topk drift`` and
    ``repro-topk inspect`` to analyse finished sweeps.
    """
    path = Path(path)
    points: list[BenchPoint] = []
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"algo", "distribution", "n", "k", "batch", "time_s", "status"}
        missing = required - set(reader.fieldnames or ())
        if missing:
            raise ValueError(
                f"{path} is not a sweep CSV: missing columns {sorted(missing)}"
            )
        for row in reader:
            points.append(
                BenchPoint(
                    algo=row["algo"],
                    distribution=row["distribution"],
                    n=int(row["n"]),
                    k=int(row["k"]),
                    batch=int(row["batch"]),
                    time=float(row["time_s"]) if row["time_s"] else None,
                    mode=row.get("mode", "exact"),
                    status=row["status"],
                    detail=row.get("detail", ""),
                )
            )
    return points


def format_dispatch_table(points: Iterable[BenchPoint]) -> str:
    """Where the ``auto`` dispatcher sent each problem, as a table.

    Every ``auto`` row records its chosen concrete algorithm in
    ``detail`` (``dispatch=<name>``); this renders those choices so a
    sweep report shows *which* algorithm the cost model picked per point.
    """
    rows = []
    for p in points:
        if p.algo != "auto" or not p.detail.startswith("dispatch="):
            continue
        rows.append(
            (
                p.distribution,
                _pow2_label(p.n),
                _pow2_label(p.k),
                p.batch,
                p.detail.removeprefix("dispatch="),
                format_time(p.time),
            )
        )
    if not rows:
        return "(no auto points in this sweep)"
    return format_table(
        ["distribution", "N", "K", "batch", "dispatched to", "time"], rows
    )


def geomean(values: Sequence[float]) -> float:
    """Geometric mean (used for aggregate speedup reporting)."""
    vals = [v for v in values if v > 0]
    if not vals:
        raise ValueError("geomean needs at least one positive value")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


# -------------------------------------------------------------------------- #
# shared percentile / distribution summaries
#
# Every consumer of latency-like samples — sweep summaries, the serving
# layer's latency report, the CLI — goes through these helpers instead of
# re-implementing its own aggregation.
# -------------------------------------------------------------------------- #

#: the serving-latency quantiles every report prints
REPORT_QUANTILES = (50.0, 95.0, 99.0)


def percentile(values: Sequence[float], q: float) -> float:
    """The q-th percentile (linear interpolation between order statistics).

    >>> percentile([1.0, 2.0, 3.0, 4.0], 50)
    2.5
    >>> percentile([5.0], 99)
    5.0
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    vals = sorted(values)
    if not vals:
        raise ValueError("percentile needs at least one value")
    if len(vals) == 1:
        return vals[0]
    rank = (q / 100.0) * (len(vals) - 1)
    lo = math.floor(rank)
    hi = math.ceil(rank)
    if lo == hi:
        return vals[lo]
    frac = rank - lo
    return vals[lo] * (1.0 - frac) + vals[hi] * frac


def percentiles(
    values: Sequence[float], qs: Sequence[float] = REPORT_QUANTILES
) -> dict[float, float]:
    """Several percentiles of one sample, as ``{q: value}``."""
    vals = sorted(values)
    return {q: percentile(vals, q) for q in qs}


def status_counts(points: Iterable[BenchPoint]) -> dict[str, int]:
    """Per-status row tallies of a sweep (ok / unsupported / error / ...)."""
    counts: dict[str, int] = {}
    for p in points:
        counts[p.status] = counts.get(p.status, 0) + 1
    return counts


def format_status_summary(points: Iterable[BenchPoint]) -> str:
    """One-line status tally, e.g. ``"12 ok, 3 unsupported"``."""
    counts = status_counts(points)
    return ", ".join(f"{v} {s}" for s, v in sorted(counts.items()))
