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
errors only).
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
import time
from contextlib import ExitStack, contextmanager
from pathlib import Path

from . import algorithm_names, obs
from .cluster import PLACEMENTS as CLUSTER_PLACEMENTS
from .bench import (
    ALL_ALGORITHMS,
    SNAPSHOT_SCHEMAS,
    BenchPoint,
    format_dispatch_table,
    format_status_summary,
    format_table,
    format_time,
    load_snapshot,
    plot_sweep,
    read_csv,
    run_paper_suite,
    status_counts,
    sweep,
    table2,
    write_csv,
    write_snapshot,
)
from .datagen import DISTRIBUTIONS
from .device import PRESETS, get_spec, timeline_spans
from .perf import DEFAULT_EXACT_CAP, render_roofline, simulate_topk, sol_report

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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Parallel top-k algorithms on a simulated GPU "
            "(reproduction of Zhang et al., SC '23)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_logging(p):
        p.add_argument(
            "-v",
            "--verbose",
            action="count",
            default=0,
            help="log per-point progress and debug detail to stderr",
        )
        p.add_argument(
            "-q",
            "--quiet",
            action="store_true",
            help="suppress status logging (errors only)",
        )

    def add_telemetry(p):
        p.add_argument(
            "--trace",
            metavar="PATH",
            default=None,
            help="write a merged chrome-trace JSON (host spans + simulated "
            "device streams; open in Perfetto or chrome://tracing)",
        )
        p.add_argument(
            "--metrics",
            metavar="PATH",
            default=None,
            help="write the run's metrics registry as JSON",
        )

    def add_exec(p):
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="processes to shard the sweep grid across (1 = run inline)",
        )
        p.add_argument(
            "--timeout",
            type=float,
            default=None,
            help="per-point wall-clock budget in seconds (over-budget points "
            "become 'timeout' rows)",
        )
        p.add_argument(
            "--progress",
            action="store_true",
            help="print live progress with ETA to stderr",
        )

    def add_common(p):
        p.add_argument("--n", type=_size, default=1 << 20, help="list length")
        p.add_argument("--k", type=_size, default=256, help="results per problem")
        p.add_argument("--batch", type=int, default=1, help="problems per run")
        p.add_argument(
            "--distribution",
            choices=DISTRIBUTIONS,
            default="uniform",
        )
        p.add_argument(
            "--gpu", choices=sorted(PRESETS), default="A100", help="simulated board"
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--cap",
            type=_size,
            default=DEFAULT_EXACT_CAP,
            help="max elements materialised; larger runs use scaled execution",
        )

    def add_gate_bench(p, kind, tiny_help, gpu_help="simulated board"):
        p.add_argument(
            "--gpu", choices=sorted(PRESETS), default="A100", help=gpu_help
        )
        p.add_argument("--seed", type=int, default=0)
        p.add_argument(
            "--out",
            default=None,
            metavar="PATH",
            help=f"write the repro.bench.{kind}/v1 snapshot JSON here",
        )
        p.add_argument("--tiny", action="store_true", help=tiny_help)
        p.add_argument(
            "--no-gate",
            action="store_true",
            help="measure and report without gating",
        )

    p_topk = sub.add_parser("topk", help="run one algorithm on one problem")
    add_common(p_topk)
    add_logging(p_topk)
    add_telemetry(p_topk)
    p_topk.add_argument("--algo", choices=algorithm_names(), default="air_topk")
    p_topk.add_argument("--largest", action="store_true")
    p_topk.add_argument(
        "--sol", action="store_true", help="print the per-kernel SOL table"
    )
    p_topk.add_argument(
        "--timeline", action="store_true", help="print the execution timeline"
    )
    p_topk.add_argument(
        "--roofline", action="store_true", help="print the roofline analysis"
    )

    p_cmp = sub.add_parser("compare", help="rank every algorithm on one problem")
    add_common(p_cmp)
    add_logging(p_cmp)

    p_sweep = sub.add_parser("sweep", help="sweep N or K and plot the series")
    add_common(p_sweep)
    add_exec(p_sweep)
    add_logging(p_sweep)
    add_telemetry(p_sweep)
    p_sweep.add_argument("--vary", choices=("n", "k"), default="n")
    p_sweep.add_argument(
        "--points",
        type=_size_range,
        default=None,
        help="swept values, '2^12:2^26' or comma list",
    )
    p_sweep.add_argument(
        "--csv", default=None, help="also write every point to this CSV file"
    )
    p_sweep.add_argument(
        "--with-auto",
        action="store_true",
        help="include the 'auto' dispatcher in the sweep and print where it "
        "sent each point",
    )

    p_auto = sub.add_parser(
        "auto",
        help="cost-model dispatch: predict the fastest algorithm and run it",
    )
    add_common(p_auto)
    add_logging(p_auto)
    p_auto.add_argument(
        "--corrections",
        default=None,
        metavar="PATH",
        help="correction store (repro.perf.corrections/v1, as written by "
        "'serve-bench --adaptive --corrections') rescaling the analytic "
        "predictions",
    )

    p_t2 = sub.add_parser("table2", help="reproduce the paper's Table 2 (reduced grid)")
    p_t2.add_argument("--cap", type=_size, default=DEFAULT_EXACT_CAP)
    p_t2.add_argument("--seed", type=int, default=0)
    add_exec(p_t2)
    add_logging(p_t2)

    p_rep = sub.add_parser(
        "reproduce", help="run the paper's full Section-5 evaluation"
    )
    p_rep.add_argument("--cap", type=_size, default=DEFAULT_EXACT_CAP)
    p_rep.add_argument("--seed", type=int, default=0)
    p_rep.add_argument("--full", action="store_true", help="paper-size grids")
    p_rep.add_argument("--out", default=None, help="directory for CSV/txt output")
    add_exec(p_rep)
    add_logging(p_rep)
    add_telemetry(p_rep)

    p_serve = sub.add_parser(
        "serve-bench",
        help="closed-loop load test of the top-k serving layer "
        "(micro-batching, sharding, caching, backpressure)",
    )
    p_serve.add_argument("--qps", type=float, default=200.0, help="offered load")
    p_serve.add_argument(
        "--duration", type=float, default=2.0, help="virtual seconds of traffic"
    )
    p_serve.add_argument("--n", type=_size, default=1 << 16, help="list length")
    p_serve.add_argument("--k", type=_size, default=64, help="results per query")
    p_serve.add_argument("--largest", action="store_true")
    p_serve.add_argument("--distribution", choices=DISTRIBUTIONS, default="uniform")
    p_serve.add_argument(
        "--arrival",
        choices=("poisson", "uniform"),
        default="poisson",
        help="arrival process of the virtual-time trace",
    )
    p_serve.add_argument(
        "--pool",
        type=int,
        default=4096,
        help="distinct payloads in the trace (small pool = hot queries, "
        "exercises the result cache)",
    )
    p_serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request latency SLO; late requests time out",
    )
    p_serve.add_argument(
        "--algo",
        choices=algorithm_names(),
        default="auto",
        help="selection algorithm ('auto' consults the cached cost model)",
    )
    p_serve.add_argument(
        "--gpu", choices=sorted(PRESETS), default="A100", help="simulated board"
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=64, help="size trigger of the batcher"
    )
    p_serve.add_argument(
        "--max-delay-ms",
        type=float,
        default=50.0,
        help="delay trigger: flush a group once its oldest request waited this",
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=512,
        help="admission bound; arrivals beyond it are shed",
    )
    p_serve.add_argument(
        "--shards",
        type=int,
        default=1,
        help="split each batch across this many simulated devices (>= 2 "
        "enables sharded selection + hierarchical merge)",
    )
    p_serve.add_argument("--seed", type=int, default=0)
    p_serve.add_argument(
        "--min-recall",
        type=float,
        default=None,
        metavar="R",
        help="recall target in (0, 1] attached to requests; targeted "
        "traffic may be served by the approximate tier when the "
        "quality-aware planner predicts the target is met "
        "(see docs/approximate.md)",
    )
    p_serve.add_argument(
        "--approx-fraction",
        type=float,
        default=1.0,
        metavar="F",
        help="fraction of requests carrying the --min-recall target "
        "(the rest stay exact); only meaningful with --min-recall",
    )
    p_serve.add_argument(
        "--faults",
        default=None,
        metavar="PLAN.json",
        help="JSON fault plan (repro.faults.plan/v1) to inject: shard "
        "failures, stragglers, worker crashes, cache corruption, timeouts "
        "— the run reports availability and degraded/failed tallies "
        "(see docs/faults.md; benchmarks/fault_plans/ has a reference plan)",
    )
    p_serve.add_argument(
        "--out",
        default=None,
        help="directory for the run manifest (one BenchPoint per micro-batch) "
        "and the serve report",
    )
    p_serve.add_argument(
        "--slo",
        default=None,
        metavar="SPEC.json",
        help="evaluate SLOs from a repro.obs.slo/v1 spec file ('default' "
        "uses the built-in availability + latency targets); prints the "
        "verdicts and exits 1 on any violation "
        "(benchmarks/slo/default.json is a reference spec)",
    )
    p_serve.add_argument(
        "--report",
        default=None,
        metavar="PATH",
        help="write the windowed repro.obs.serve_report/v1 JSON here "
        "(view it with 'repro-topk serve-report')",
    )
    p_serve.add_argument(
        "--window-ms",
        type=float,
        default=250.0,
        help="telemetry window width for the serve report's time series",
    )
    p_serve.add_argument(
        "--serve-workers",
        type=int,
        default=1,
        help="host threads for sharded execution's numpy fan-out (never "
        "changes outcomes or the serve report)",
    )
    p_serve.add_argument(
        "--adaptive",
        action="store_true",
        help="enable online adaptive dispatch: fold each batch's measured "
        "time back into per-regime cost-model corrections and explore "
        "alternative algorithms epsilon-greedily (needs --algo auto and "
        "--metrics/--trace telemetry; see docs/adaptive.md)",
    )
    p_serve.add_argument(
        "--corrections",
        default=None,
        metavar="PATH",
        help="with --adaptive: persist the learned correction store "
        "(repro.perf.corrections/v1) here after the run; if the file "
        "exists it seeds the store, so successive runs keep learning",
    )
    add_logging(p_serve)
    add_telemetry(p_serve)

    p_srep = sub.add_parser(
        "serve-report",
        help="render a serve_report JSON (written by serve-bench --report) "
        "as the windowed ascii dashboard with SLO verdicts",
    )
    p_srep.add_argument("path", help="repro.obs.serve_report/v1 JSON file")
    p_srep.add_argument(
        "--no-fail",
        action="store_true",
        help="exit 0 even when the report records SLO violations",
    )
    add_logging(p_srep)

    p_drift = sub.add_parser(
        "drift",
        help="cost-model drift report: predicted vs measured times of a "
        "finished sweep CSV",
    )
    p_drift.add_argument("csv", help="sweep CSV written by 'sweep --csv'")
    p_drift.add_argument(
        "--gpu", choices=sorted(PRESETS), default="A100", help="simulated board"
    )
    p_drift.add_argument(
        "--corrections",
        default=None,
        metavar="PATH",
        help="correction store (repro.perf.corrections/v1); adds a "
        "corrected-residual column",
    )
    add_logging(p_drift)

    p_rb = sub.add_parser(
        "recall-bench",
        help="Pareto sweep of the approximate tier (recall vs simulated "
        "time vs QPS per pinned regime) plus a mixed-load serving run; "
        "gates empirical recall against the promised floors and the "
        "acceptance regime's speedup headline",
    )
    add_gate_bench(
        p_rb,
        "recall",
        "use the reduced smoke grid instead of the pinned regimes "
        "(skips the acceptance-speedup gate)",
    )
    p_rb.add_argument(
        "--no-serve",
        action="store_true",
        help="skip the mixed-load serving gate (offline sweep only)",
    )
    add_logging(p_rb)

    p_cb = sub.add_parser(
        "cluster-bench",
        help="node-count scaling sweep of the simulated cluster (capacity "
        "vs nodes at the 200 QPS acceptance load) plus a chaos cell under "
        "a pinned node-fault plan; gates near-linear scaling and "
        "availability under replica loss",
    )
    p_cb.add_argument(
        "--nodes",
        default=None,
        metavar="N,N,...",
        help="comma-separated node counts to sweep (default 1,2,4)",
    )
    p_cb.add_argument(
        "--replication",
        type=int,
        default=2,
        help="replicas per data partition (default 2)",
    )
    p_cb.add_argument(
        "--placement",
        choices=CLUSTER_PLACEMENTS,
        default="least-loaded",
        help="replica placement policy (default least-loaded)",
    )
    p_cb.add_argument(
        "--partitions",
        type=int,
        default=None,
        help="data partitions per large request (default: node count)",
    )
    add_gate_bench(
        p_cb,
        "cluster",
        "use the reduced smoke workload instead of the pinned acceptance "
        "load (skips the scaling-speedup gate)",
    )
    p_cb.add_argument(
        "--workers",
        type=int,
        default=1,
        help="host threads running node replicas (results are identical "
        "for any value; >1 only changes wall-clock)",
    )
    p_cb.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="JSON fault plan (repro.faults.plan/v1) for the chaos cell; "
        "default is the pinned plan mirrored at "
        "benchmarks/fault_plans/cluster.json",
    )
    p_cb.add_argument(
        "--no-chaos",
        action="store_true",
        help="skip the chaos cell (scaling sweep only)",
    )
    add_logging(p_cb)

    p_ab = sub.add_parser(
        "adapt-bench",
        help="regret bench of online adaptive dispatch: replay a decision "
        "stream with a mid-run device-spec shift and gate the adaptive "
        "dispatcher's post-shift cumulative regret against static "
        "cost-model dispatch (plus byte-identity and no-telemetry no-op)",
    )
    add_gate_bench(
        p_ab,
        "adapt",
        "use the reduced smoke grid instead of the pinned regimes",
        gpu_help="the board the cost model believes it is on",
    )
    p_ab.add_argument(
        "--gpu-shift",
        choices=sorted(PRESETS),
        default="V100",
        help="the board the device silently becomes mid-stream",
    )
    p_ab.add_argument(
        "--decisions",
        type=int,
        default=None,
        help="length of the dispatch decision stream (default 240, "
        "tiny 80); the shift lands halfway",
    )
    add_logging(p_ab)

    p_ins = sub.add_parser(
        "inspect",
        help="validate and summarise a telemetry artifact "
        "(manifest.json, metrics.json, trace JSON, or a sweep CSV)",
    )
    p_ins.add_argument("path", help="artifact file to inspect")
    add_logging(p_ins)

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
    for handler in list(logger.handlers):
        logger.removeHandler(handler)
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
            ev.done,
            ev.total,
            ev.fraction * 100,
            ev.elapsed_s,
            eta,
            ev.point.algo,
            ev.point.n,
            ev.point.k,
            ev.point.status,
        )

    return show


@contextmanager
def _telemetry_session(args):
    """Install tracer/metrics sessions for ``--trace``/``--metrics``.

    Yields ``(tracer | None, registry | None)``; on clean exit the
    requested artifact files are written (and schema-validated).
    """
    trace_path = getattr(args, "trace", None)
    metrics_path = getattr(args, "metrics", None)
    with ExitStack() as stack:
        tracer = stack.enter_context(obs.trace_session()) if trace_path else None
        registry = (
            stack.enter_context(obs.metrics_session()) if metrics_path else None
        )
        yield tracer, registry
        if tracer is not None:
            path = obs.write_trace(tracer.events, trace_path)
            logger.info("wrote trace (%d spans) to %s", len(tracer), path)
        if registry is not None:
            path = registry.write(metrics_path)
            logger.info("wrote %d metrics to %s", len(registry), path)


def cmd_topk(args) -> int:
    with _telemetry_session(args) as (tracer, _registry):
        with obs.span(
            f"point {args.algo}",
            cat="point",
            algo=args.algo,
            n=args.n,
            k=args.k,
            batch=args.batch,
        ) as point_span:
            run = simulate_topk(
                args.algo,
                distribution=args.distribution,
                n=args.n,
                k=args.k,
                batch=args.batch,
                spec=get_spec(args.gpu),
                cap=args.cap,
                seed=args.seed,
                largest=args.largest,
            )
        if tracer is not None:
            label = (
                f"sim {args.algo} {args.distribution} "
                f"n={args.n} k={args.k} b={args.batch}"
            )
            tracer.extend(
                timeline_spans(
                    run.device.timeline,
                    lane_prefix=label,
                    base_us=point_span.start_us,
                    device=run.device,
                )
            )
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
            run = simulate_topk(
                algo,
                distribution=args.distribution,
                n=args.n,
                k=args.k,
                batch=args.batch,
                spec=get_spec(args.gpu),
                cap=args.cap,
                seed=args.seed,
            )
        except Exception as exc:  # UnsupportedProblem etc.
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
    with _telemetry_session(args) as (_tracer, _registry):
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
        if getattr(args, kind, None):
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


def cmd_auto(args) -> int:
    from .perf.costmodel import rank_algorithms

    store = None
    if args.corrections:
        store = _load_corrections(args.corrections)
        if store is None:
            return 2
    spec = get_spec(args.gpu)
    ranking = rank_algorithms(
        n=args.n, k=args.k, batch=args.batch, spec=spec, corrections=store
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
    run = simulate_topk(
        "auto",
        distribution=args.distribution,
        n=args.n,
        k=args.k,
        batch=args.batch,
        spec=spec,
        cap=args.cap,
        seed=args.seed,
        corrections=store,
    )
    print(
        f"\ndispatched to: {run.dispatch}\n"
        f"simulated time: {format_time(run.time)}  [{run.mode} mode]"
    )
    return 0


def cmd_table2(args) -> int:
    ns = [1 << p for p in (11, 15, 20, 25, 30)]
    progress = _progress_printer(args)
    result = sweep(
        distributions=("uniform", "normal", "adversarial"),
        ns=ns,
        ks=(32, 256, 32768),
        batches=(1,),
        cap=args.cap,
        seed=args.seed,
        workers=args.workers,
        timeout=args.timeout,
        progress=progress,
    )
    batch100 = sweep(
        distributions=("uniform", "normal", "adversarial"),
        ns=[n for n in ns if n <= 1 << 24],
        ks=(32, 256, 32768),
        batches=(100,),
        cap=args.cap,
        seed=args.seed,
        workers=args.workers,
        timeout=args.timeout,
        progress=progress,
    )
    for p in batch100.points:
        result.add(p)
    rows = table2(result)
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
                for r in rows
            ],
        )
    )
    return 0


def cmd_reproduce(args) -> int:
    progress = _progress_printer(args)
    with _telemetry_session(args):
        suite = run_paper_suite(
            out_dir=args.out,
            cap=args.cap,
            full=args.full,
            seed=args.seed,
            workers=args.workers,
            timeout=args.timeout,
            progress=progress,
        )
    if args.out:
        logger.info("suite artifacts written under %s", args.out)
    print(suite.render())
    return 0


def _load_fault_plan(path: str):
    """The ``--faults`` plan at ``path``, or None after one ERROR line."""
    from .faults import FaultPlan

    try:
        return FaultPlan.load(path)
    except (OSError, ValueError) as exc:
        logger.error("cannot load fault plan %s: %s", path, exc)
        return None


def _load_corrections(path: str):
    """The correction store at ``path``, or None after one ERROR line."""
    from .perf.adaptive import CorrectionStore

    try:
        return CorrectionStore.load(path)
    except (OSError, ValueError) as exc:
        logger.error("cannot load correction store %s: %s", path, exc)
        return None


def cmd_serve_bench(args) -> int:
    from .serve import LoadSpec, ServeConfig, run_serve_bench

    plan = None
    if args.faults:
        plan = _load_fault_plan(args.faults)
        if plan is None:
            return 2
    spec = LoadSpec(
        qps=args.qps,
        duration_s=args.duration,
        n=args.n,
        k=args.k,
        largest=args.largest,
        distribution=args.distribution,
        arrival=args.arrival,
        payload_pool=args.pool,
        deadline_s=None if args.deadline_ms is None else args.deadline_ms / 1e3,
        min_recall=args.min_recall,
        approx_fraction=args.approx_fraction if args.min_recall else 0.0,
        seed=args.seed,
    )
    store = None
    if args.adaptive:
        if args.algo != "auto":
            logger.error("--adaptive requires --algo auto")
            return 2
        if args.corrections and Path(args.corrections).exists():
            store = _load_corrections(args.corrections)
            if store is None:
                return 2
            logger.info(
                "seeded correction store from %s (%d corrections)",
                args.corrections,
                len(store),
            )
    config = ServeConfig(
        algo=args.algo,
        device=args.gpu,
        max_batch=args.max_batch,
        max_delay_s=args.max_delay_ms / 1e3,
        queue_limit=args.queue_limit,
        shards=args.shards,
        seed=args.seed,
        faults=plan,
        window_s=args.window_ms / 1e3,
        workers=args.serve_workers,
        adaptive=args.adaptive,
        corrections=store,
    )
    started = time.perf_counter()
    with _telemetry_session(args) as (tracer, _registry):
        with obs.span(
            "serve-bench", cat="serve", qps=args.qps, duration=args.duration
        ) as serve_span:
            report, service = run_serve_bench(spec, config)
        if tracer is not None:
            # re-base the virtual-time request/node lanes onto the wall
            # clock of the enclosing span, same convention as the
            # simulated device timelines
            tracer.extend(
                service.telemetry_spans(base_us=serve_span.start_us)
            )
    wall = time.perf_counter() - started
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
        if args.corrections and service.adaptation is not None:
            path = service.adaptation.corrections.save(args.corrections)
            logger.info("wrote correction store to %s", path)

    slos = obs.DEFAULT_SLOS
    if args.slo and args.slo != "default":
        try:
            slos = obs.load_slo_specs(args.slo)
        except (OSError, ValueError) as exc:
            logger.error("cannot load SLO spec %s: %s", args.slo, exc)
            return 1
    serve_report = None
    if args.slo or args.report or args.out:
        serve_report = obs.build_serve_report(
            service.telemetry,
            report.stats,
            config={
                "qps": args.qps,
                "duration_s": args.duration,
                "n": args.n,
                "k": args.k,
                "algo": args.algo,
                "gpu": args.gpu,
                "shards": args.shards,
                "seed": args.seed,
                **(
                    {
                        "min_recall": args.min_recall,
                        "approx_fraction": args.approx_fraction,
                    }
                    if args.min_recall is not None
                    else {}
                ),
            },
            slos=slos,
        )
    if args.report:
        path = obs.write_serve_report(serve_report, args.report)
        logger.info(
            "wrote serve report (%d windows) to %s",
            len(serve_report["windows"]),
            path,
        )
    if args.slo:
        for entry in serve_report["slos"]:
            verdict = "VIOLATED" if entry["violated"] else "ok"
            print(
                f"  SLO [{verdict}] {entry['name']}: "
                f"sli {entry['sli'] * 100:.2f}% vs target "
                f"{entry['target'] * 100:g}%  "
                f"max burn {entry['max_burn_rate']:.2f}x"
            )
    if args.out:
        # one BenchPoint per executed micro-batch: the serving analogue of
        # a sweep row, so manifests stay schema-compatible with PR 2
        points = [
            BenchPoint(
                algo=rec.algo,
                distribution=spec.distribution,
                n=rec.n,
                k=rec.k,
                batch=rec.size,
                time=rec.duration_s,
            )
            for rec in service.batch_records
        ]
        artifacts = {
            kind: Path(getattr(args, kind)).name
            for kind in ("trace", "metrics")
            if getattr(args, kind, None)
        }
        report_path = obs.write_serve_report(
            serve_report, Path(args.out) / "serve_report.json"
        )
        artifacts["serve_report"] = report_path.name
        logger.info(
            "wrote serve report (%d windows) to %s",
            len(serve_report["windows"]),
            report_path,
        )
        manifest = obs.build_manifest(
            command="serve-bench",
            config={
                "qps": args.qps,
                "duration_s": args.duration,
                "n": args.n,
                "k": args.k,
                "algo": args.algo,
                "gpu": args.gpu,
                "arrival": args.arrival,
                "pool": args.pool,
                "max_batch": args.max_batch,
                "max_delay_ms": args.max_delay_ms,
                "queue_limit": args.queue_limit,
                "shards": args.shards,
                "served": report.stats.served,
                "shed": report.stats.shed,
                "timeout": report.stats.timeout,
                # quality accounting appears only for mixed-load runs so
                # exact-only manifests keep their earlier shape
                **(
                    {
                        "min_recall": args.min_recall,
                        "approx_fraction": args.approx_fraction,
                        "approx_served": report.stats.approx_served,
                        "recall_violations": report.stats.recall_violations,
                    }
                    if args.min_recall is not None
                    else {}
                ),
                # availability accounting appears only for fault runs so
                # fault-free manifests keep their PR-3 shape
                **(
                    {
                        "faults_plan": Path(args.faults).name,
                        "degraded": report.stats.degraded,
                        "failed": report.stats.failed,
                        "availability": report.stats.availability,
                        "faults_injected": report.stats.faults,
                        "retries": report.stats.retries,
                        "hedges": report.stats.hedges,
                    }
                    if plan is not None
                    else {}
                ),
            },
            seed=args.seed,
            points=points,
            wall_time_s=wall,
            artifacts=artifacts or None,
        )
        path = obs.write_manifest(manifest, Path(args.out) / "manifest.json")
        logger.info("wrote run manifest to %s", path)
    if args.slo and serve_report["violations"]:
        logger.error(
            "SLO violations: %s", ", ".join(serve_report["violations"])
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
    from .obs.drift import drift_report

    try:
        points = read_csv(args.csv)
    except (OSError, ValueError) as exc:
        logger.error("cannot read %s: %s", args.csv, exc)
        return 1
    store = None
    if args.corrections:
        store = _load_corrections(args.corrections)
        if store is None:
            return 2
    rows = drift_report(points, spec=get_spec(args.gpu), corrections=store)
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
    table_rows = []
    for r in rows:
        row = [
            r.algo,
            r.points,
            f"{r.geomean_ratio:.3f}x",
            f"{r.min_ratio:.3f}x",
            f"{r.max_ratio:.3f}x",
            f"{r.rmse_log2:.3f}",
        ]
        if store is not None:
            row.append(f"{r.corrected_geomean:.3f}x")
        table_rows.append(row)
    print(format_table(headers, table_rows))
    print(
        "\n(geomean 1.000x = unbiased model; ratios are simulated/predicted "
        "time per point)"
    )
    return 0


def _finish_gate_bench(args, snapshot: dict, render, gate) -> int:
    """Shared tail of the gate benches: print the report, write ``--out``,
    then (unless ``--no-gate``) print each ``GATE FAIL`` and return 1 if
    ``gate`` found any, else 0."""
    print(render(snapshot))
    if args.out:
        print(f"snapshot: {write_snapshot(snapshot, args.out)}")
    if args.no_gate:
        return 0
    name = args.command.removesuffix("-bench")
    failures = gate(snapshot)
    for line in failures:
        print(f"GATE FAIL: {line}")
    if failures:
        logger.error("%d %s-gate failure(s)", len(failures), name)
        return 1
    print(f"{name} gate: ok")
    return 0


def cmd_recall_bench(args) -> int:
    from .bench import recallbench

    regimes = (
        recallbench.TINY_REGIMES if args.tiny else recallbench.DEFAULT_REGIMES
    )
    logger.info(
        "recall-bench: %d regimes x %d configs%s",
        len(regimes),
        len(recallbench.APPROX_VARIANTS),
        "" if args.no_serve else " + mixed-load serve gate",
    )

    def show(cell, entry) -> None:
        logger.info(
            "%s n=%d k=%d batch=%d %s: sim %s (%.2fx) empirical recall %.4f",
            entry["algo"],
            cell.n,
            cell.k,
            cell.batch,
            entry["label"],
            format_time(entry["sim_time_s"]),
            entry["speedup"],
            entry["empirical_recall"],
        )

    snapshot = recallbench.collect_snapshot(
        regimes,
        gpu=args.gpu,
        seed=args.seed,
        serve=not args.no_serve,
        progress=show,
    )
    return _finish_gate_bench(
        args, snapshot, recallbench.render_recall_report, recallbench.gate_recall
    )


def cmd_adapt_bench(args) -> int:
    from .bench import adaptbench

    if args.gpu_shift == args.gpu:
        logger.error("--gpu-shift must differ from --gpu")
        return 2
    regimes = (
        adaptbench.TINY_REGIMES if args.tiny else adaptbench.DEFAULT_REGIMES
    )
    decisions = args.decisions or (80 if args.tiny else 240)
    logger.info(
        "adapt-bench: %d regimes x %d candidates, %d decisions, "
        "%s -> %s shift at %d",
        len(regimes),
        len(adaptbench.CANDIDATES),
        decisions,
        args.gpu,
        args.gpu_shift,
        decisions // 2,
    )

    def show(cell, entry) -> None:
        logger.info(
            "n=%d k=%d batch=%d: static %s, oracle %s -> %s%s",
            cell.n,
            cell.k,
            cell.batch,
            entry["static_algo"],
            entry["oracle_pre"],
            entry["oracle_post"],
            " (flip)" if entry["oracle_pre"] != entry["oracle_post"] else "",
        )

    snapshot = adaptbench.collect_snapshot(
        regimes,
        gpu=args.gpu,
        gpu_shift=args.gpu_shift,
        seed=args.seed,
        decisions=decisions,
        progress=show,
    )
    return _finish_gate_bench(
        args, snapshot, adaptbench.render_adapt_report, adaptbench.gate_adapt
    )


def cmd_cluster_bench(args) -> int:
    from .bench import clusterbench

    if args.nodes:
        try:
            node_counts = tuple(
                int(part) for part in args.nodes.split(",") if part.strip()
            )
        except ValueError:
            logger.error("--nodes must be a comma-separated list of ints")
            return 2
        if not node_counts or any(n < 1 for n in node_counts):
            logger.error("--nodes needs at least one count >= 1")
            return 2
    else:
        node_counts = clusterbench.DEFAULT_NODE_COUNTS
    if args.no_chaos:
        chaos_plan = None
    elif args.faults:
        chaos_plan = _load_fault_plan(args.faults)
        if chaos_plan is None:
            return 2
    else:
        chaos_plan = clusterbench.DEFAULT_CHAOS_PLAN
    logger.info(
        "cluster-bench: nodes %s, R=%d, placement %s%s",
        ",".join(str(n) for n in node_counts),
        args.replication,
        args.placement,
        "" if chaos_plan is None else " + chaos cell",
    )

    def show(cell) -> None:
        logger.info(
            "%d node(s): capacity %.0f rps (%.2fx), availability %.4f",
            cell["nodes"],
            cell["capacity_rps"],
            cell["speedup"],
            cell["availability"],
        )

    snapshot = clusterbench.collect_snapshot(
        node_counts=node_counts,
        replication=args.replication,
        placement=args.placement,
        partitions=args.partitions,
        gpu=args.gpu,
        seed=args.seed,
        workers=args.workers,
        chaos_plan=chaos_plan,
        tiny=args.tiny,
        progress=show,
    )
    # the tiny smoke workload is launch-bound, so only the full
    # acceptance load is held to the scaling floor
    min_speedup = 0.0 if args.tiny else clusterbench.ACCEPT_SPEEDUP
    return _finish_gate_bench(
        args,
        snapshot,
        clusterbench.render_cluster_report,
        lambda s: clusterbench.gate_cluster(s, min_speedup=min_speedup),
    )


def cmd_inspect(args) -> int:
    path = Path(args.path)
    if path.suffix == ".csv":
        try:
            points = read_csv(path)
        except (OSError, ValueError) as exc:
            logger.error("cannot read %s: %s", path, exc)
            return 1
        print(f"{path}: sweep CSV, {len(points)} points")
        print(
            format_table(
                ["status", "points"], sorted(status_counts(points).items())
            )
        )
        return 0
    payload = json.loads(path.read_text())
    if isinstance(payload, dict) and "traceEvents" in payload:
        obs.validate_trace(payload)
        events = payload["traceEvents"]
        durations = [e for e in events if e["ph"] == "X"]
        pids = {e["pid"] for e in events}
        lanes = {(e["pid"], e["tid"]) for e in events}
        print(f"{path}: valid chrome trace")
        print(
            f"{len(durations)} spans across {len(pids)} processes / "
            f"{len(lanes)} lanes"
        )
        return 0
    schema = payload.get("schema") if isinstance(payload, dict) else None
    if schema == "repro.obs.manifest/v1":
        obs.validate_manifest(payload)
        print(f"{path}: valid run manifest")
        rows = [
            ("command", payload["command"]),
            ("seed", payload["seed"]),
            ("total points", payload["grid"]["total_points"]),
            ("status", ", ".join(f"{k}={v}" for k, v in payload["status"].items())),
            ("wall time", f"{payload['wall_time_s']:.2f}s"),
            ("versions", ", ".join(f"{k} {v}" for k, v in payload["versions"].items())),
            (
                "kernel launches",
                payload["device_counters"]["kernel_launches"],
            ),
        ]
        print(format_table(["field", "value"], rows))
        return 0
    if schema == "repro.obs.serve_report/v1":
        obs.validate_serve_report(payload)
        totals = payload["totals"]
        print(f"{path}: valid serve report")
        rows = [
            ("windows", f"{len(payload['windows'])} x {payload['window_s']:g}s"),
            ("requests", totals["requests"]),
            ("availability", f"{totals['availability'] * 100:.2f}%"),
            (
                "latency",
                "  ".join(
                    f"p{q:g}={totals[f'latency_p{q:g}_s'] * 1e3:.3f}ms"
                    if totals[f"latency_p{q:g}_s"] is not None
                    else f"p{q:g}=-"
                    for q in (50.0, 95.0, 99.0)
                ),
            ),
            (
                "slos",
                ", ".join(
                    f"{s['name']} ({'VIOLATED' if s['violated'] else 'ok'})"
                    for s in payload["slos"]
                )
                or "-",
            ),
        ]
        print(format_table(["field", "value"], rows))
        return 0
    if schema in SNAPSHOT_SCHEMAS:
        payload = load_snapshot(path)
    if schema == "repro.bench.recall/v1":
        from .bench.recallbench import gate_recall

        failures = gate_recall(payload)
        points = sum(len(c["points"]) for c in payload["cells"])
        print(
            f"{path}: valid recall-bench snapshot "
            f"({len(payload['cells'])} regimes, {points} points, "
            f"gate {'FAIL' if failures else 'ok'})"
        )
        return 0
    if schema == "repro.bench.cluster/v1":
        from .bench.clusterbench import gate_cluster

        failures = gate_cluster(payload, min_speedup=0.0)
        counts = ",".join(str(c["nodes"]) for c in payload["sweep"])
        chaos = payload.get("chaos")
        print(
            f"{path}: valid cluster-bench snapshot "
            f"(nodes {counts}, chaos "
            f"{'absent' if chaos is None else 'present'}, "
            f"gate {'FAIL' if failures else 'ok'})"
        )
        return 0
    if schema == "repro.bench.adapt/v1":
        from .bench.adaptbench import gate_adapt

        failures = gate_adapt(payload)
        ratio = payload["post_shift"]["ratio"]
        print(
            f"{path}: valid adapt-bench snapshot "
            f"({len(payload['regimes'])} regimes, "
            f"{payload['gpu']} -> {payload['gpu_shift']}, "
            f"post-shift ratio "
            f"{'inf' if ratio is None else f'{ratio:.2f}x'}, "
            f"gate {'FAIL' if failures else 'ok'})"
        )
        return 0
    if schema == "repro.perf.corrections/v1":
        from .perf.adaptive import CORRECTIONS_SCHEMA

        obs.schema.validate(payload, CORRECTIONS_SCHEMA)
        print(
            f"{path}: valid correction store "
            f"({len(payload['corrections'])} corrections, "
            f"{payload['folds']} folds, epoch {payload['epoch']})"
        )
        return 0
    if schema == "repro.obs.slo/v1":
        obs.validate_slo_spec(payload)
        print(f"{path}: valid SLO spec ({len(payload['slos'])} objectives)")
        return 0
    if schema == "repro.obs.metrics/v1":
        obs.validate_metrics(payload)
        print(f"{path}: valid metrics dump")
        rows = [
            (c["name"], _format_labels(c["labels"]), f"{c['value']:g}")
            for c in payload["counters"]
        ]
        rows += [
            (g["name"], _format_labels(g["labels"]), f"{g['value']:g}")
            for g in payload["gauges"]
        ]
        rows += [
            (
                h["name"],
                _format_labels(h["labels"]),
                f"n={h['count']} mean={h['sum'] / h['count']:.3f}"
                if h["count"]
                else "n=0",
            )
            for h in payload["histograms"]
        ]
        print(format_table(["metric", "labels", "value"], rows))
        return 0
    logger.error("%s: unrecognised artifact (no known schema marker)", path)
    return 1


def _format_labels(labels: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(labels.items())) or "-"


COMMANDS = {
    "topk": cmd_topk,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "auto": cmd_auto,
    "table2": cmd_table2,
    "reproduce": cmd_reproduce,
    "serve-bench": cmd_serve_bench,
    "serve-report": cmd_serve_report,
    "drift": cmd_drift,
    "recall-bench": cmd_recall_bench,
    "adapt-bench": cmd_adapt_bench,
    "cluster-bench": cmd_cluster_bench,
    "inspect": cmd_inspect,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    setup_logging(args)
    return COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
