"""Unified telemetry: span tracing, metrics, manifests and drift tracking.

The package has four coordinated pieces (see docs/observability.md):

* :mod:`.spans` — wall-clock span tracer with per-worker buffers; host
  execution (engine, pool workers, retries), simulated device timelines
  and the serving layer's virtual time are one event record, shifted
  onto the wall clock in one place and written by one Trace-Event-Format
  exporter (:mod:`.export`);
* :mod:`.metrics` — labelled counters/gauges/histograms fed by the
  algorithms, runner and engine, merged across workers, dumped as
  ``metrics.json``;
* :mod:`.manifest` — ``manifest.json`` provenance next to every sweep or
  suite CSV (config, seed, grid shape, status tallies, versions,
  aggregate device counters);
* :mod:`.drift` — predicted-vs-simulated cost-model residuals, recorded
  live into metrics and reported by ``repro-topk drift``.

Everything is a strict no-op unless a session is installed; plain runs
pay nothing (pinned by tests/test_obs.py).
"""

from __future__ import annotations

import logging
from contextlib import ExitStack, contextmanager

from .drift import (
    DriftSummary,
    PointDrift,
    drift_report,
    point_drift,
    record_point_drift,
)
from .export import chrome_trace, write_trace
from .manifest import build_manifest, counters_payload, versions, write_manifest
from .metrics import (
    MetricsRegistry,
    count,
    get_metrics,
    metrics_enabled,
    metrics_session,
)
from .schema import (
    MANIFEST_SCHEMA,
    METRICS_SCHEMA,
    SERVE_REPORT_SCHEMA,
    SLO_SPEC_SCHEMA,
    TRACE_EVENT_SCHEMA,
    SchemaError,
    validate,
    validate_manifest,
    validate_metrics,
    validate_serve_report,
    validate_slo_spec,
    validate_trace,
)
from .serve import (
    DEFAULT_SLOS,
    ServeTelemetry,
    SLOSpec,
    build_serve_report,
    evaluate_slos,
    histogram_quantile,
    load_slo_specs,
    render_serve_report,
    write_serve_report,
)
from .spans import (
    DEFAULT_LANE,
    NULL_SPAN,
    SpanEvent,
    SpanTracer,
    get_tracer,
    span,
    trace_session,
    tracing_enabled,
)

logger = logging.getLogger(__name__)


@contextmanager
def telemetry_session(*, trace=None, metrics=None):
    """Trace and/or meter the ``with`` body into the files given.

    ``trace`` and ``metrics`` are output paths (None skips that kind).
    Yields ``(tracer | None, registry | None)``; on clean exit each
    requested artifact is schema-validated and written.
    """
    with ExitStack() as stack:
        tracer = stack.enter_context(trace_session()) if trace else None
        registry = stack.enter_context(metrics_session()) if metrics else None
        yield tracer, registry
        if tracer is not None:
            path = write_trace(tracer.events, trace)
            logger.info("wrote trace (%d spans) to %s", len(tracer), path)
        if registry is not None:
            path = registry.write(metrics)
            logger.info("wrote %d metrics to %s", len(registry), path)


@contextmanager
def local_session(*, trace: bool = False, metrics: bool = False, lane: str = DEFAULT_LANE):
    """Install fresh tracer/registry — or none — for one worker's chunk.

    Pool workers call this instead of :func:`trace_session` /
    :func:`metrics_session` directly so fork-copied parent buffers are
    never appended to (events would be duplicated on merge).  Yields
    ``(tracer | None, registry | None)``; the worker ships both back with
    its chunk result and the engine merges them into the parent session.
    """
    with trace_session(default_lane=lane, enabled=trace) as tracer:
        with metrics_session(enabled=metrics) as registry:
            yield tracer, registry


__all__ = [
    "DEFAULT_LANE",
    "DEFAULT_SLOS",
    "DriftSummary",
    "MANIFEST_SCHEMA",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "NULL_SPAN",
    "PointDrift",
    "SERVE_REPORT_SCHEMA",
    "SLOSpec",
    "SLO_SPEC_SCHEMA",
    "SchemaError",
    "ServeTelemetry",
    "SpanEvent",
    "SpanTracer",
    "TRACE_EVENT_SCHEMA",
    "build_manifest",
    "build_serve_report",
    "chrome_trace",
    "count",
    "counters_payload",
    "drift_report",
    "evaluate_slos",
    "get_metrics",
    "get_tracer",
    "histogram_quantile",
    "load_slo_specs",
    "local_session",
    "metrics_enabled",
    "metrics_session",
    "point_drift",
    "record_point_drift",
    "render_serve_report",
    "span",
    "telemetry_session",
    "trace_session",
    "tracing_enabled",
    "validate",
    "validate_manifest",
    "validate_metrics",
    "validate_serve_report",
    "validate_slo_spec",
    "validate_trace",
    "versions",
    "write_manifest",
    "write_serve_report",
    "write_trace",
]
