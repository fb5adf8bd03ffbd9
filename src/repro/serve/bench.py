"""``serve-bench`` as one library call: a load test and its artifacts.

:func:`serve_bench` drives one open-loop load test
(:func:`~repro.serve.loadgen.run_serve_bench`) and does everything
around it that ``repro-topk serve-bench`` offers: the trace and metrics
session, the fault plan, the adaptive correction store, SLO grading,
the windowed serve report and the run manifest.  Its keywords are the
command's flags, one for one, with the same defaults; the command maps
its arguments onto it and prints what comes back.
"""

from __future__ import annotations

import logging
import time
from pathlib import Path
from typing import Sequence

from .. import obs
from ..bench.runner import BenchPoint
from ..errors import InputError
from ..faults import FaultPlan
from ..perf.adaptive import CorrectionStore
from .loadgen import LoadSpec, ServeBenchReport, run_serve_bench
from .service import ServeConfig, ServeStats

logger = logging.getLogger(__name__)


def serve_bench(
    *,
    qps: float = 200.0,
    duration: float = 2.0,
    n: int = 1 << 16,
    k: int = 64,
    largest: bool = False,
    distribution: str = "uniform",
    arrival: str = "poisson",
    pool: int = 4096,
    deadline_ms: float | None = None,
    algo: str = "auto",
    gpu: str = "A100",
    max_batch: int = 64,
    max_delay_ms: float = 50.0,
    queue_limit: int = 512,
    shards: int = 1,
    seed: int = 0,
    min_recall: float | None = None,
    approx_fraction: float = 1.0,
    faults: str | None = None,
    out: str | None = None,
    slo: Sequence[obs.SLOSpec] | None = None,
    report: str | None = None,
    window_ms: float = 250.0,
    serve_workers: int = 1,
    adaptive: bool = False,
    corrections: str | None = None,
    trace: str | None = None,
    metrics: str | None = None,
) -> ServeBenchReport:
    """Run one load test and write the artifacts asked for.

    Times are in the command's units (``*_ms`` in milliseconds).
    ``faults`` and ``corrections`` are file paths; with ``adaptive`` the
    store at ``corrections`` seeds the learner when the file exists and
    receives what it learned afterwards.  ``slo`` is the SLO specs to
    grade (``obs.DEFAULT_SLOS`` for the built-in targets); ``report``
    writes the serve report to a file, ``out`` writes it and the
    manifest (one :class:`~repro.bench.BenchPoint` per micro-batch) to
    a directory, and ``trace``/``metrics`` record the run.

    Returns the finished report; its ``serve_report`` holds the graded
    ``repro.obs.serve_report/v1`` payload whenever ``slo``, ``report``
    or ``out`` asked for one.  Invalid arguments and unreadable plan or
    store files raise :class:`~repro.errors.InputError`.
    """
    flags = dict(locals())  # the keywords, recorded in the report configs
    plan = FaultPlan.load(faults) if faults else None
    spec = LoadSpec(
        qps=qps,
        duration_s=duration,
        n=n,
        k=k,
        largest=largest,
        distribution=distribution,
        arrival=arrival,
        payload_pool=pool,
        deadline_s=None if deadline_ms is None else deadline_ms / 1e3,
        min_recall=min_recall,
        approx_fraction=approx_fraction,
        seed=seed,
    )
    store = None
    if adaptive:
        if algo != "auto":
            raise InputError(f"adaptive dispatch requires algo 'auto', got {algo!r}")
        if corrections and Path(corrections).exists():
            store = CorrectionStore.load(corrections)
            logger.info("seeded correction store from %s (%d corrections)",
                        corrections, len(store))
    config = ServeConfig(
        algo=algo,
        device=gpu,
        max_batch=max_batch,
        max_delay_s=max_delay_ms / 1e3,
        queue_limit=queue_limit,
        shards=shards,
        seed=seed,
        faults=plan,
        window_s=window_ms / 1e3,
        workers=serve_workers,
        adaptive=adaptive,
        corrections=store,
    )
    started = time.perf_counter()
    with obs.telemetry_session(trace=trace, metrics=metrics) as (tracer, _):
        with obs.span(
            "serve-bench", cat="serve", qps=qps, duration=duration
        ) as serve_span:
            result, service = run_serve_bench(spec, config)
        if tracer is not None:
            # virtual time 0 is the start of the enclosing host span
            tracer.extend(service.telemetry.events, base_us=serve_span.start_us)
    wall = time.perf_counter() - started
    if adaptive and corrections and service.adaptation is not None:
        path = service.adaptation.corrections.save(corrections)
        logger.info("wrote correction store to %s", path)

    if slo is None and not report and not out:
        return result
    result.serve_report = obs.build_serve_report(
        service.telemetry,
        result.stats,
        config=run_config(flags),
        slos=obs.DEFAULT_SLOS if slo is None else slo,
    )
    for path in (report, out and Path(out) / "serve_report.json"):
        if path:
            path = obs.write_serve_report(result.serve_report, path)
            logger.info("wrote serve report (%d windows) to %s",
                        len(result.serve_report["windows"]), path)
    if out:
        artifacts = {kind: Path(flags[kind]).name for kind in ("trace", "metrics")
                     if flags[kind]}
        artifacts["serve_report"] = "serve_report.json"
        manifest = obs.build_manifest(
            command="serve-bench",
            config=run_config(flags, result.stats),
            seed=seed,
            points=[
                BenchPoint(
                    algo=rec.algo,
                    distribution=distribution,
                    n=rec.n,
                    k=rec.k,
                    batch=rec.size,
                    time=rec.duration_s,
                )
                for rec in service.batch_records
            ],
            wall_time_s=wall,
            artifacts=artifacts,
        )
        path = obs.write_manifest(manifest, Path(out) / "manifest.json")
        logger.info("wrote run manifest to %s", path)
    return result


def run_config(flags: dict, stats: ServeStats | None = None) -> dict:
    """The ``config`` block of the serve report, or with the run's
    ``stats`` that of the manifest.

    The quality fields appear only for mixed-load runs (``min_recall``)
    and the availability fields only for fault runs, so plain runs keep
    the shape they had before either existed.
    """
    config = {"qps": flags["qps"], "duration_s": flags["duration"]}
    if stats is None:
        keys, tallies = ["n", "k", "algo", "gpu", "shards", "seed"], []
    else:
        keys = ["n", "k", "algo", "gpu", "arrival", "pool", "max_batch",
                "max_delay_ms", "queue_limit", "shards"]
        tallies = ["served", "shed", "timeout"]
    config.update((key, flags[key]) for key in keys)
    config.update((name, getattr(stats, name)) for name in tallies)
    if flags["min_recall"] is not None:
        config.update(
            min_recall=flags["min_recall"], approx_fraction=flags["approx_fraction"]
        )
        if stats is not None:
            config.update(
                approx_served=stats.approx_served,
                recall_violations=stats.recall_violations,
            )
    if stats is not None and flags["faults"]:
        config.update(
            faults_plan=Path(flags["faults"]).name,
            degraded=stats.degraded,
            failed=stats.failed,
            availability=stats.availability,
            faults_injected=stats.faults,
            retries=stats.retries,
            hedges=stats.hedges,
        )
    return config
