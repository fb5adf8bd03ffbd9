"""Command-line interface: run selections, comparisons and sweeps.

Examples::

    python -m repro topk --n 2^20 --k 100 --algo air_topk
    python -m repro compare --n 2^22 --k 256 --distribution adversarial
    python -m repro sweep --vary n --k 256 --points 2^12:2^26 --workers 4
    python -m repro sweep --workers 4 --trace out.json --metrics metrics.json
    python -m repro auto --n 2^24 --k 1024
    python -m repro recall-bench --out recall_bench.json
    python -m repro cluster-bench --faults benchmarks/fault_plans/cluster.json
    python -m repro drift results.csv
    python -m repro inspect out/manifest.json
    python -m repro table2

Results (tables, plots, rankings) go to stdout; status and progress go to
the ``repro`` logger on stderr (``-v`` for per-point detail, ``-q`` for
errors only).  Exit codes: 0 ok, 1 a verdict failed (an SLO, a gate, an
unreadable artifact), 2 bad input — the library's
:class:`~repro.errors.InputError`, printed as one ``ERROR`` line.
"""

from __future__ import annotations

import argparse
import inspect
import json
import logging
import sys
import time
from pathlib import Path

from . import algorithm_names, obs
from .algos import UnsupportedProblem
from .bench import (
    ALL_ALGORITHMS,
    format_dispatch_table,
    format_status_summary,
    format_table,
    format_time,
    plot_sweep,
    read_csv,
    run_paper_suite,
    status_counts,
    sweep,
    table2,
    write_csv,
)
from .bench import gates
from .bench.runner import trace_sim_streams
from .datagen import DISTRIBUTIONS
from .device import PRESETS, get_spec
from .errors import InputError
from .faults import FaultPlan
from .perf import DEFAULT_EXACT_CAP, render_roofline, simulate_topk, sol_report
from .perf.adaptive import CORRECTIONS_SCHEMA, CorrectionStore
from .perf.costmodel import rank_algorithms
from .serve import serve_bench

logger = logging.getLogger("repro")


def _size(text: str) -> int:
    """Parse '1048576' or '2^20'."""
    if "^" in text:
        base, exp = text.split("^", 1)
        return int(base) ** int(exp)
    return int(text)


def _size_range(text: str) -> list[int]:
    """Parse '2^12:2^26' into the powers of two between the endpoints,
    or a comma-separated explicit list."""
    if ":" in text:
        lo, hi = (_size(part) for part in text.split(":", 1))
        if lo <= 0 or hi < lo:
            raise argparse.ArgumentTypeError(f"bad range {text!r}")
        points = []
        p = 1 << (lo - 1).bit_length()
        p = max(p, 1)
        while p <= hi:
            if p >= lo:
                points.append(p)
            p <<= 1
        return points or [lo]
    return [_size(part) for part in text.split(",")]


def _opt(*flags: str, **kwargs) -> tuple:
    """One ``add_argument`` call, declared once for every subcommand that
    takes the option."""
    return flags, kwargs


LOGGING = (
    _opt("-v", "--verbose", action="count", default=0,
         help="log per-point progress and debug detail to stderr"),
    _opt("-q", "--quiet", action="store_true",
         help="suppress status logging (errors only)"),
)
TELEMETRY = (
    _opt("--trace", metavar="PATH", default=None,
         help="write a merged chrome-trace JSON (host spans + simulated "
         "device streams; open in Perfetto or chrome://tracing)"),
    _opt("--metrics", metavar="PATH", default=None,
         help="write the run's metrics registry as JSON"),
)
EXEC = (
    _opt("--workers", type=int, default=1,
         help="processes to shard the sweep grid across (1 = run inline)"),
    _opt("--timeout", type=float, default=None,
         help="per-point wall-clock budget in seconds (over-budget points "
         "become 'timeout' rows)"),
    _opt("--progress", action="store_true",
         help="print live progress with ETA to stderr"),
)
GPU = _opt("--gpu", choices=sorted(PRESETS), default="A100", help="simulated board")
SEED = _opt("--seed", type=int, default=0)
LARGEST = _opt("--largest", action="store_true")
DISTRIBUTION = _opt("--distribution", choices=DISTRIBUTIONS, default="uniform")
COMMON = (
    _opt("--n", type=_size, default=1 << 20, help="list length"),
    _opt("--k", type=_size, default=256, help="results per problem"),
    _opt("--batch", type=int, default=1, help="problems per run"),
    DISTRIBUTION,
    GPU,
    SEED,
    _opt("--cap", type=_size, default=DEFAULT_EXACT_CAP,
         help="max elements materialised; larger runs use scaled execution"),
)
#: ``table2`` and ``reproduce``
SUITE = (_opt("--cap", type=_size, default=DEFAULT_EXACT_CAP), SEED)
#: the recall, cluster and adapt benches; each adds its own ``--tiny``
GATE_BENCH = (
    SEED,
    _opt("--out", default=None, metavar="PATH",
         help="write the repro.bench.gates/v1 snapshot JSON here"),
)
#: serve-bench's flags, in the order of :func:`repro.serve.serve_bench`'s
#: keywords; the defaults are that function's
SERVE = (
    _opt("--qps", type=float, help="offered load"),
    _opt("--duration", type=float, help="virtual seconds of traffic"),
    _opt("--n", type=_size, help="list length"),
    _opt("--k", type=_size, help="results per query"),
    LARGEST,
    DISTRIBUTION,
    _opt("--arrival", choices=("poisson", "uniform"),
         help="arrival process of the virtual-time trace"),
    _opt("--pool", type=int,
         help="distinct payloads in the trace (small pool = hot queries, "
         "exercises the result cache)"),
    _opt("--deadline-ms", type=float,
         help="per-request latency SLO; late requests time out"),
    _opt("--algo", choices=algorithm_names(),
         help="selection algorithm ('auto' consults the cached cost model)"),
    GPU,
    _opt("--max-batch", type=int, help="size trigger of the batcher"),
    _opt("--max-delay-ms", type=float,
         help="delay trigger: flush a group once its oldest request waited this"),
    _opt("--queue-limit", type=int,
         help="admission bound; arrivals beyond it are shed"),
    _opt("--shards", type=int,
         help="split each batch across this many simulated devices (>= 2 "
         "enables sharded selection + hierarchical merge)"),
    SEED,
    _opt("--min-recall", type=float, metavar="R",
         help="recall target in (0, 1] attached to requests; targeted "
         "traffic may be served by the approximate tier when the "
         "quality-aware planner predicts the target is met "
         "(see docs/approximate.md)"),
    _opt("--approx-fraction", type=float, metavar="F",
         help="fraction of requests carrying the --min-recall target "
         "(the rest stay exact); only meaningful with --min-recall"),
    _opt("--faults", metavar="PLAN.json",
         help="JSON fault plan (repro.faults.plan/v1) to inject: shard "
         "failures, stragglers, worker crashes, cache corruption, timeouts "
         "— the run reports availability and degraded/failed tallies "
         "(see docs/faults.md; benchmarks/fault_plans/ has a reference plan)"),
    _opt("--out",
         help="directory for the run manifest (one BenchPoint per micro-batch) "
         "and the serve report"),
    _opt("--slo", metavar="SPEC.json",
         help="evaluate SLOs from a repro.obs.slo/v1 spec file ('default' "
         "uses the built-in availability + latency targets); prints the "
         "verdicts and exits 1 on any violation "
         "(benchmarks/slo/default.json is a reference spec)"),
    _opt("--report", metavar="PATH",
         help="write the windowed repro.obs.serve_report/v1 JSON here "
         "(view it with 'repro-topk serve-report')"),
    _opt("--window-ms", type=float,
         help="telemetry window width for the serve report's time series"),
    _opt("--serve-workers", type=int,
         help="host threads for sharded execution's numpy fan-out (never "
         "changes outcomes or the serve report)"),
    _opt("--adaptive", action="store_true",
         help="enable online adaptive dispatch: fold each batch's measured "
         "time back into per-regime cost-model corrections and explore "
         "alternative algorithms epsilon-greedily (needs --algo auto and "
         "--metrics/--trace telemetry; see docs/adaptive.md)"),
    _opt("--corrections", metavar="PATH",
         help="with --adaptive: persist the learned correction store "
         "(repro.perf.corrections/v1) here after the run; if the file "
         "exists it seeds the store, so successive runs keep learning"),
)


def _keywords(fn) -> dict:
    """``fn``'s keyword parameters with their defaults."""
    return {
        name: p.default for name, p in inspect.signature(fn).parameters.items()
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Parallel top-k algorithms on a simulated GPU "
            "(reproduction of Zhang et al., SC '23)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, help_text, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
    sub.choices["serve-bench"].set_defaults(**_keywords(serve_bench))
    return parser


def setup_logging(args) -> None:
    """Configure the ``repro`` logger from ``-v``/``-q`` (idempotent).

    Status and progress go through this logger to stderr; results stay on
    stdout.  Default level INFO; ``-v`` adds per-point DEBUG detail,
    ``-q`` keeps errors only.
    """
    if getattr(args, "quiet", False):
        level = logging.ERROR
    elif getattr(args, "verbose", 0):
        level = logging.DEBUG
    else:
        level = logging.INFO
    logger.setLevel(level)
    logger.propagate = False
    logger.handlers.clear()
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    logger.addHandler(handler)


def _progress_printer(args):
    """ProgressEvent callback logging sweep completion, or None.

    ``--progress`` logs every finished point at INFO; ``-v`` alone gets
    the same stream at DEBUG, so a verbose run is always narrated.
    """
    explicit = getattr(args, "progress", False)
    verbose = getattr(args, "verbose", 0) > 0
    if not (explicit or verbose):
        return None
    level = logging.INFO if explicit else logging.DEBUG

    def show(ev) -> None:
        eta = "?" if ev.eta_s is None else f"{ev.eta_s:.0f}s"
        logger.log(
            level,
            "[%d/%d] %5.1f%%  elapsed %.0fs  eta %s  last: %s n=%d k=%d (%s)",
            ev.done, ev.total, ev.fraction * 100, ev.elapsed_s, eta,
            ev.point.algo, ev.point.n, ev.point.k, ev.point.status,
        )

    return show


def _simulate(args, algo: str, **kwargs):
    """``simulate_topk`` on the problem of a command's common options."""
    return simulate_topk(
        algo,
        distribution=args.distribution,
        n=args.n,
        k=args.k,
        batch=args.batch,
        spec=get_spec(args.gpu),
        cap=args.cap,
        seed=args.seed,
        **kwargs,
    )


def cmd_topk(args) -> int:
    with obs.telemetry_session(trace=args.trace, metrics=args.metrics):
        with obs.span(
            f"point {args.algo}",
            cat="point",
            algo=args.algo,
            n=args.n,
            k=args.k,
            batch=args.batch,
        ) as point_span:
            run = _simulate(args, args.algo, largest=args.largest)
            trace_sim_streams(run, point_span)
    direction = "largest" if args.largest else "smallest"
    print(
        f"{args.algo}: {direction} {args.k} of {args.n:,} "
        f"({args.distribution}, batch {args.batch}) on {args.gpu}"
    )
    print(f"simulated time: {format_time(run.time)}  [{run.mode} mode]")
    c = run.device.counters
    print(
        f"kernels: {c.kernel_launches}, device traffic: "
        f"{c.bytes_total / 1e6:.2f} MB, PCIe transfers: {c.pcie_transfers}, "
        f"syncs: {c.syncs}"
    )
    if run.result is not None:
        vals = run.result.values if run.result.values.ndim == 1 else run.result.values[0]
        print(f"first results: {vals[: min(5, len(vals))]}")
    if args.sol:
        print("\nper-kernel Speed of Light:")
        print(
            format_table(
                ["kernel", "time %", "memory SOL", "compute SOL"],
                [r.row() for r in sol_report(run.device)],
            )
        )
    if args.timeline:
        print("\ntimeline:")
        print(run.device.timeline.render())
    if args.roofline:
        print("\nroofline:")
        print(render_roofline(run.device))
    return 0


def cmd_compare(args) -> int:
    rows = []
    for algo in algorithm_names():
        try:
            run = _simulate(args, algo)
        except UnsupportedProblem as exc:
            rows.append((float("inf"), algo, "-", str(exc)[:40]))
            continue
        note = run.mode if run.dispatch is None else f"{run.mode} -> {run.dispatch}"
        rows.append((run.time, algo, format_time(run.time), note))
    rows.sort()
    print(
        f"n={args.n:,} k={args.k} batch={args.batch} "
        f"{args.distribution} on {args.gpu}:"
    )
    print(
        format_table(
            ["rank", "algorithm", "time", "mode/notes"],
            [(i + 1, a, t, m) for i, (_, a, t, m) in enumerate(rows)],
        )
    )
    return 0


def cmd_sweep(args) -> int:
    points = args.points
    if points is None:
        points = (
            [1 << p for p in range(12, 27, 2)]
            if args.vary == "n"
            else [1 << p for p in range(3, 12)]
        )
    ns = points if args.vary == "n" else (args.n,)
    ks = points if args.vary == "k" else (args.k,)
    algos = ALL_ALGORITHMS + ("auto",) if args.with_auto else ALL_ALGORITHMS
    started = time.perf_counter()
    with obs.telemetry_session(trace=args.trace, metrics=args.metrics):
        result = sweep(
            algos=algos,
            distributions=(args.distribution,),
            ns=ns,
            ks=ks,
            batches=(args.batch,),
            spec=get_spec(args.gpu),
            cap=args.cap,
            seed=args.seed,
            workers=args.workers,
            timeout=args.timeout,
            progress=_progress_printer(args),
        )
    wall = time.perf_counter() - started
    artifacts = {}
    if args.csv:
        # write before plotting so status rows survive even when nothing
        # measured (e.g. every point timed out)
        path = write_csv(result.points, args.csv)
        artifacts["csv"] = path.name
        logger.info("wrote %d points to %s", len(result.points), path)
    for kind in ("trace", "metrics"):
        if getattr(args, kind):
            artifacts[kind] = Path(getattr(args, kind)).name
    # provenance next to the first artifact written (csv, else metrics,
    # else trace); a sweep with no artifacts leaves nothing behind
    anchor = args.csv or args.metrics or args.trace
    if anchor:
        manifest = obs.build_manifest(
            command="sweep",
            config={
                "algos": list(algos),
                "distribution": args.distribution,
                "vary": args.vary,
                "ns": list(ns),
                "ks": list(ks),
                "batch": args.batch,
                "gpu": args.gpu,
                "cap": args.cap,
                "workers": args.workers,
                "timeout": args.timeout,
            },
            seed=args.seed,
            points=result.points,
            wall_time_s=wall,
            artifacts=artifacts,
        )
        path = obs.write_manifest(
            manifest, Path(anchor).resolve().parent / "manifest.json"
        )
        logger.info("wrote run manifest to %s", path)
    if any(p.time is not None for p in result.points):
        fixed = {"k": args.k} if args.vary == "n" else {"n": args.n}
        print(
            plot_sweep(
                result,
                algos=algos,
                distribution=args.distribution,
                batch=args.batch,
                vary=args.vary,
                fixed=fixed,
            )
        )
    else:
        summary = format_status_summary(result.points)
        print(f"no measured points to plot ({summary})")
    if args.with_auto:
        print("\nauto dispatch choices:")
        print(format_dispatch_table(result.points))
    return 0


def _corrections(args):
    """The ``--corrections`` store, or None without the flag."""
    return CorrectionStore.load(args.corrections) if args.corrections else None


def cmd_auto(args) -> int:
    store = _corrections(args)
    ranking = rank_algorithms(
        n=args.n, k=args.k, batch=args.batch, spec=get_spec(args.gpu),
        corrections=store,
    )
    print(
        f"cost-model ranking for n={args.n:,} k={args.k} batch={args.batch} "
        f"on {args.gpu}:"
    )
    print(
        format_table(
            ["rank", "algorithm", "predicted", "source"],
            [
                (i + 1, p.algo, format_time(p.time), p.source)
                for i, p in enumerate(ranking)
            ],
        )
    )
    run = _simulate(args, "auto", corrections=store)
    print(
        f"\ndispatched to: {run.dispatch}\n"
        f"simulated time: {format_time(run.time)}  [{run.mode} mode]"
    )
    return 0


def cmd_table2(args) -> int:
    progress = _progress_printer(args)

    def run(ns, batch):
        return sweep(
            distributions=("uniform", "normal", "adversarial"),
            ns=ns,
            ks=(32, 256, 32768),
            batches=(batch,),
            cap=args.cap,
            seed=args.seed,
            workers=args.workers,
            timeout=args.timeout,
            progress=progress,
        )

    ns = [1 << p for p in (11, 15, 20, 25, 30)]
    result = run(ns, 1)
    for p in run([n for n in ns if n <= 1 << 24], 100).points:
        result.add(p)
    print(
        format_table(
            ["batch", "distribution", "AIR vs Radix", "Grid vs Block", "AIR vs SOTA"],
            [
                (
                    r.batch,
                    r.distribution,
                    r.air_vs_radix.formatted(),
                    r.grid_vs_block.formatted(),
                    r.air_vs_sota.formatted(),
                )
                for r in table2(result)
            ],
        )
    )
    return 0


def cmd_reproduce(args) -> int:
    with obs.telemetry_session(trace=args.trace, metrics=args.metrics):
        suite = run_paper_suite(
            out_dir=args.out,
            cap=args.cap,
            full=args.full,
            seed=args.seed,
            workers=args.workers,
            timeout=args.timeout,
            progress=_progress_printer(args),
        )
    if args.out:
        logger.info("suite artifacts written under %s", args.out)
    print(suite.render())
    return 0


def cmd_serve_bench(args) -> int:
    slos = None
    if args.slo:
        try:
            slos = (
                obs.DEFAULT_SLOS
                if args.slo == "default"
                else obs.load_slo_specs(args.slo)
            )
        except (OSError, ValueError) as exc:
            logger.error("cannot load SLO spec %s: %s", args.slo, exc)
            return 1
    keywords = {name: getattr(args, name) for name in _keywords(serve_bench)}
    report = serve_bench(**{**keywords, "slo": slos})
    print(report.format())
    if args.adaptive:
        s = report.stats
        print(
            f"adaptation: observations={s.adapt_observations} "
            f"folds={s.adapt_folds} explored={s.adapt_explored}"
            + (
                ""
                if s.adapt_observations
                else "  (inactive: no metrics session — pass --metrics)"
            )
        )
    if not args.slo:
        return 0
    for entry in report.serve_report["slos"]:
        verdict = "VIOLATED" if entry["violated"] else "ok"
        print(
            f"  SLO [{verdict}] {entry['name']}: "
            f"sli {entry['sli'] * 100:.2f}% vs target "
            f"{entry['target'] * 100:g}%  "
            f"max burn {entry['max_burn_rate']:.2f}x"
        )
    if report.serve_report["violations"]:
        logger.error(
            "SLO violations: %s", ", ".join(report.serve_report["violations"])
        )
        return 1
    return 0


def cmd_serve_report(args) -> int:
    path = Path(args.path)
    try:
        payload = json.loads(path.read_text())
        obs.validate_serve_report(payload)
    except (OSError, ValueError) as exc:
        logger.error("cannot read serve report %s: %s", path, exc)
        return 1
    print(obs.render_serve_report(payload))
    if payload["violations"] and not args.no_fail:
        return 1
    return 0


def cmd_drift(args) -> int:
    try:
        points = read_csv(args.csv)
    except (OSError, ValueError) as exc:
        logger.error("cannot read %s: %s", args.csv, exc)
        return 1
    store = _corrections(args)
    rows = obs.drift_report(points, spec=get_spec(args.gpu), corrections=store)
    measured = sum(1 for p in points if p.time is not None)
    logger.info(
        "%d points in %s (%d measured, %d predictable)",
        len(points),
        args.csv,
        measured,
        sum(r.points for r in rows),
    )
    if not rows:
        print("no predictable measured points in this sweep")
        return 0
    print(f"cost-model drift vs simulated times on {args.gpu}:")
    headers = ["algorithm", "points", "geomean", "min", "max", "rmse(log2)"]
    if store is not None:
        headers.append("corrected")
    table_rows = [
        [r.algo, r.points, f"{r.geomean_ratio:.3f}x", f"{r.min_ratio:.3f}x",
         f"{r.max_ratio:.3f}x", f"{r.rmse_log2:.3f}"]
        + ([] if store is None else [f"{r.corrected_geomean:.3f}x"])
        for r in rows
    ]
    print(format_table(headers, table_rows))
    print(
        "\n(geomean 1.000x = unbiased model; ratios are simulated/predicted "
        "time per point)"
    )
    return 0


def cmd_gate_bench(args) -> int:
    """``recall-bench``, ``cluster-bench`` and ``adapt-bench``: measure,
    gate, print, write ``--out``; exit 1 on any failed gate."""
    options = {}
    if getattr(args, "faults", None):
        options["chaos_plan"] = FaultPlan.load(args.faults)
    bench = gates.bench_module(args.command.removesuffix("-bench"))
    snapshot = bench.collect_snapshot(tiny=args.tiny, seed=args.seed, **options)
    return gates.finish(snapshot, args.out)


def _table(rows) -> str:
    return format_table(["field", "value"], rows)


def _labels(labels: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"


def _inspect_trace(payload: dict) -> str:
    events = payload["traceEvents"]
    durations = [e for e in events if e["ph"] == "X"]
    pids = {e["pid"] for e in events}
    lanes = {(e["pid"], e["tid"]) for e in events}
    return (
        "valid chrome trace\n"
        f"{len(durations)} spans across {len(pids)} processes / "
        f"{len(lanes)} lanes"
    )


def _inspect_manifest(payload: dict) -> str:
    return "valid run manifest\n" + _table([
        ("command", payload["command"]),
        ("seed", payload["seed"]),
        ("total points", payload["grid"]["total_points"]),
        ("status", ", ".join(f"{k}={v}" for k, v in payload["status"].items())),
        ("wall time", f"{payload['wall_time_s']:.2f}s"),
        ("versions", ", ".join(f"{k} {v}" for k, v in payload["versions"].items())),
        ("kernel launches", payload["device_counters"]["kernel_launches"]),
    ])


def _inspect_serve_report(payload: dict) -> str:
    totals = payload["totals"]
    latency = "  ".join(
        f"p{q:g}=-"
        if totals[f"latency_p{q:g}_s"] is None
        else f"p{q:g}={totals[f'latency_p{q:g}_s'] * 1e3:.3f}ms"
        for q in (50.0, 95.0, 99.0)
    )
    slos = ", ".join(
        f"{s['name']} ({'VIOLATED' if s['violated'] else 'ok'})"
        for s in payload["slos"]
    )
    return "valid serve report\n" + _table([
        ("windows", f"{len(payload['windows'])} x {payload['window_s']:g}s"),
        ("requests", totals["requests"]),
        ("availability", f"{totals['availability'] * 100:.2f}%"),
        ("latency", latency),
        ("slos", slos or "-"),
    ])


def _inspect_gates(payload: dict) -> str:
    return (
        f"valid {payload['bench']}-bench snapshot "
        f"(rev {payload['rev']}, seed {payload['seed']})\n"
        + gates.render_verdicts(payload)
    )


def _inspect_metrics(payload: dict) -> str:
    rows = [
        (m["name"], _labels(m["labels"]), f"{m['value']:g}")
        for m in payload["counters"] + payload["gauges"]
    ]
    rows += [
        (
            h["name"],
            _labels(h["labels"]),
            f"n={h['count']} mean={h['sum'] / h['count']:.3f}" if h["count"] else "n=0",
        )
        for h in payload["histograms"]
    ]
    return "valid metrics dump\n" + format_table(["metric", "labels", "value"], rows)


#: artifact marker -> (validator, summary after "<path>: "); a trace has
#: no ``schema`` field and is recognised by its ``traceEvents``
INSPECTORS = {
    "traceEvents": (obs.validate_trace, _inspect_trace),
    "repro.obs.manifest/v1": (obs.validate_manifest, _inspect_manifest),
    "repro.obs.serve_report/v1": (obs.validate_serve_report, _inspect_serve_report),
    "repro.bench.gates/v1": (gates.validate_snapshot, _inspect_gates),
    "repro.perf.corrections/v1": (
        lambda p: obs.validate(p, CORRECTIONS_SCHEMA),
        lambda p: (
            f"valid correction store ({len(p['corrections'])} corrections, "
            f"{p['folds']} folds, epoch {p['epoch']})"
        ),
    ),
    "repro.obs.slo/v1": (
        obs.validate_slo_spec,
        lambda p: f"valid SLO spec ({len(p['slos'])} objectives)",
    ),
    "repro.obs.metrics/v1": (obs.validate_metrics, _inspect_metrics),
}


def _inspect_csv(points: list) -> str:
    return f"sweep CSV, {len(points)} points\n" + format_table(
        ["status", "points"], sorted(status_counts(points).items())
    )


def cmd_inspect(args) -> int:
    path = Path(args.path)
    try:
        if path.suffix == ".csv":
            payload, summarise = read_csv(path), _inspect_csv
        else:
            payload = json.loads(path.read_text())
            marker = None
            if isinstance(payload, dict):
                marker = "traceEvents" if "traceEvents" in payload else str(payload.get("schema"))
            if marker not in INSPECTORS:
                logger.error("%s: unrecognised artifact (no known schema marker)", path)
                return 1
            validate, summarise = INSPECTORS[marker]
            validate(payload)
    except (OSError, ValueError) as exc:
        logger.error("cannot read %s: %s", path, exc)
        return 1
    print(f"{path}: {summarise(payload)}")
    return 0


def _tiny(help_text: str) -> tuple:
    return _opt("--tiny", action="store_true", help=help_text)


#: subcommand -> (handler, help, options in declaration order)
COMMANDS = {
    "topk": (
        cmd_topk,
        "run one algorithm on one problem",
        COMMON + LOGGING + TELEMETRY + (
            _opt("--algo", choices=algorithm_names(), default="air_topk"),
            LARGEST,
            _opt("--sol", action="store_true", help="print the per-kernel SOL table"),
            _opt("--timeline", action="store_true",
                 help="print the execution timeline"),
            _opt("--roofline", action="store_true",
                 help="print the roofline analysis"),
        ),
    ),
    "compare": (cmd_compare, "rank every algorithm on one problem", COMMON + LOGGING),
    "sweep": (
        cmd_sweep,
        "sweep N or K and plot the series",
        COMMON + EXEC + LOGGING + TELEMETRY + (
            _opt("--vary", choices=("n", "k"), default="n"),
            _opt("--points", type=_size_range, default=None,
                 help="swept values, '2^12:2^26' or comma list"),
            _opt("--csv", default=None, help="also write every point to this CSV file"),
            _opt("--with-auto", action="store_true",
                 help="include the 'auto' dispatcher in the sweep and print where "
                 "it sent each point"),
        ),
    ),
    "auto": (
        cmd_auto,
        "cost-model dispatch: predict the fastest algorithm and run it",
        COMMON + LOGGING + (
            _opt("--corrections", default=None, metavar="PATH",
                 help="correction store (repro.perf.corrections/v1, as written by "
                 "'serve-bench --adaptive --corrections') rescaling the analytic "
                 "predictions"),
        ),
    ),
    "table2": (
        cmd_table2,
        "reproduce the paper's Table 2 (reduced grid)",
        SUITE + EXEC + LOGGING,
    ),
    "reproduce": (
        cmd_reproduce,
        "run the paper's full Section-5 evaluation",
        SUITE + (
            _opt("--full", action="store_true", help="paper-size grids"),
            _opt("--out", default=None, help="directory for CSV/txt output"),
        ) + EXEC + LOGGING + TELEMETRY,
    ),
    "serve-bench": (
        cmd_serve_bench,
        "open-loop load test of the top-k serving layer "
        "(micro-batching, sharding, caching, backpressure)",
        SERVE + LOGGING + TELEMETRY,
    ),
    "serve-report": (
        cmd_serve_report,
        "render a serve_report JSON (written by serve-bench --report) "
        "as the windowed ascii dashboard with SLO verdicts",
        (
            _opt("path", help="repro.obs.serve_report/v1 JSON file"),
            _opt("--no-fail", action="store_true",
                 help="exit 0 even when the report records SLO violations"),
        ) + LOGGING,
    ),
    "drift": (
        cmd_drift,
        "cost-model drift report: predicted vs measured times of a "
        "finished sweep CSV",
        (
            _opt("csv", help="sweep CSV written by 'sweep --csv'"),
            GPU,
            _opt("--corrections", default=None, metavar="PATH",
                 help="correction store (repro.perf.corrections/v1); adds a "
                 "corrected-residual column"),
        ) + LOGGING,
    ),
    "recall-bench": (
        cmd_gate_bench,
        "Pareto sweep of the approximate tier (recall vs simulated "
        "time vs QPS per pinned regime) plus a mixed-load serving run; "
        "gates empirical recall against the promised floors and the "
        "acceptance regime's speedup headline",
        GATE_BENCH + (
            _tiny("use the reduced smoke grid instead of the pinned regimes "
                  "(no acceptance regime, so no speedup gate)"),
        ) + LOGGING,
    ),
    "cluster-bench": (
        cmd_gate_bench,
        "node-count scaling sweep of the simulated cluster (capacity "
        "vs nodes at the 200 QPS acceptance load) plus a chaos cell under "
        "a pinned node-fault plan; gates near-linear scaling and "
        "availability under replica loss",
        GATE_BENCH + (
            _tiny("use the reduced smoke workload instead of the pinned "
                  "acceptance load (no scaling-speedup gate)"),
            _opt("--faults", default=None, metavar="PLAN",
                 help="JSON fault plan (repro.faults.plan/v1) for the chaos cell; "
                 "default is the pinned plan mirrored at "
                 "benchmarks/fault_plans/cluster.json"),
        ) + LOGGING,
    ),
    "adapt-bench": (
        cmd_gate_bench,
        "regret bench of online adaptive dispatch: replay a decision "
        "stream with a mid-run A100 -> V100 device-spec shift and gate the "
        "adaptive dispatcher's post-shift cumulative regret against static "
        "cost-model dispatch (plus byte-identity and no-telemetry no-op)",
        GATE_BENCH + (
            _tiny("use the reduced smoke grid instead of the pinned regimes"),
        ) + LOGGING,
    ),
    "inspect": (
        cmd_inspect,
        "validate and summarise a telemetry artifact "
        "(manifest.json, metrics.json, trace JSON, sweep CSV or gate-bench "
        "snapshot)",
        (_opt("path", help="artifact file to inspect"),) + LOGGING,
    ),
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    setup_logging(args)
    try:
        return COMMANDS[args.command][0](args)
    except InputError as exc:
        logger.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
