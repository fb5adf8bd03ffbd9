"""Metrics registry: labelled counters, gauges and histograms.

Algorithms count behavioural events (AIR buffer writes/skips, early
stops, queue flushes), the runner tallies point statuses, the execution
engine records dispatch and drift — all against one process-global
registry installed by :func:`metrics_session`.  Pool workers use a
private registry (see :func:`repro.exec.worker.execute_chunk`)
which the engine merges back, so ``workers=1`` and ``workers=N`` produce
identical aggregates.

Everything is a no-op while no registry is installed: the algorithm hot
paths guard on :func:`metrics_enabled`, so a plain sweep pays nothing
(pinned by tests/test_obs.py).

The JSON layout written by :meth:`MetricsRegistry.to_payload` is
validated by :func:`repro.obs.schema.validate_metrics`; metric names are
documented in docs/observability.md.
"""

from __future__ import annotations

from bisect import bisect_left
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: histogram bucket upper bounds used when none are given; chosen for the
#: cost-model drift residuals (log2 of measured/predicted), symmetric
#: around 0 ("model exact")
DEFAULT_BOUNDS = (-8.0, -4.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 4.0, 8.0)

#: (metric name, sorted (label, value) pairs) — the registry key
MetricKey = tuple[str, tuple[tuple[str, str], ...]]


def _key(name: str, labels: dict[str, object]) -> MetricKey:
    return name, tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass
class Counter:
    """Monotonically increasing total."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got {amount}")
        self.value += amount


@dataclass
class Gauge:
    """Last-observed value (merging keeps the merged-in value)."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """Fixed-bound histogram with count/sum/min/max summary."""

    bounds: tuple[float, ...] = DEFAULT_BOUNDS
    counts: list[int] = field(default_factory=list)
    count: int = 0
    sum: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")

    def __post_init__(self) -> None:
        if list(self.bounds) != sorted(self.bounds):
            raise ValueError(f"histogram bounds must ascend, got {self.bounds}")
        if not self.counts:
            # one bucket per bound (value <= bound) plus the overflow bucket
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        # the first bound >= value; NaN is above every bound
        if value != value:
            self.counts[-1] += 1
        else:
            self.counts[bisect_left(self.bounds, value)] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0


class MetricsRegistry:
    """Holds every metric of one run, keyed by (name, labels)."""

    def __init__(self) -> None:
        self._counters: dict[MetricKey, Counter] = {}
        self._gauges: dict[MetricKey, Gauge] = {}
        self._histograms: dict[MetricKey, Histogram] = {}

    # ------------------------------------------------------------------ #
    def counter(self, name: str, **labels) -> Counter:
        return self._counters.setdefault(_key(name, labels), Counter())

    def gauge(self, name: str, **labels) -> Gauge:
        return self._gauges.setdefault(_key(name, labels), Gauge())

    def histogram(
        self, name: str, *, bounds: tuple[float, ...] | None = None, **labels
    ) -> Histogram:
        key = _key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = Histogram(bounds=tuple(bounds) if bounds else DEFAULT_BOUNDS)
            self._histograms[key] = hist
        return hist

    def __len__(self) -> int:
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # ------------------------------------------------------------------ #
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold a worker's registry into this one.

        Counters and histograms add; gauges keep the merged-in value
        (workers report point-in-time facts the parent did not see).
        """
        for key, counter in other._counters.items():
            self._counters.setdefault(key, Counter()).value += counter.value
        for key, gauge in other._gauges.items():
            self._gauges[key] = Gauge(value=gauge.value)
        for key, hist in other._histograms.items():
            mine = self._histograms.get(key)
            if mine is None:
                self._histograms[key] = Histogram(
                    bounds=hist.bounds,
                    counts=list(hist.counts),
                    count=hist.count,
                    sum=hist.sum,
                    min=hist.min,
                    max=hist.max,
                )
                continue
            if mine.bounds != hist.bounds:
                raise ValueError(
                    f"histogram {key[0]!r} bounds differ across workers: "
                    f"{mine.bounds} vs {hist.bounds}"
                )
            mine.counts = [a + b for a, b in zip(mine.counts, hist.counts)]
            mine.count += hist.count
            mine.sum += hist.sum
            mine.min = min(mine.min, hist.min)
            mine.max = max(mine.max, hist.max)

    # ------------------------------------------------------------------ #
    def to_payload(self) -> dict:
        """JSON-ready dict (schema: ``repro.obs.metrics/v1``)."""

        def labels(key: MetricKey) -> dict:
            return dict(key[1])

        return {
            "schema": "repro.obs.metrics/v1",
            "counters": [
                {"name": key[0], "labels": labels(key), "value": c.value}
                for key, c in sorted(self._counters.items())
            ],
            "gauges": [
                {"name": key[0], "labels": labels(key), "value": g.value}
                for key, g in sorted(self._gauges.items())
            ],
            "histograms": [
                {
                    "name": key[0],
                    "labels": labels(key),
                    "count": h.count,
                    "sum": h.sum,
                    "min": h.min if h.count else 0.0,
                    "max": h.max if h.count else 0.0,
                    "buckets": [
                        {"le": bound, "count": n}
                        for bound, n in zip(list(h.bounds) + ["+inf"], h.counts)
                    ],
                }
                for key, h in sorted(self._histograms.items())
            ],
        }

    def write(self, path) -> Path:
        """Dump the registry as ``metrics.json`` (validated on write)."""
        import json

        from .schema import validate_metrics

        payload = self.to_payload()
        validate_metrics(payload)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1) + "\n")
        return path


# -------------------------------------------------------------------------- #
# process-global active registry
# -------------------------------------------------------------------------- #
_ACTIVE: MetricsRegistry | None = None


def metrics_enabled() -> bool:
    """True when a registry is installed (hot paths guard on this)."""
    return _ACTIVE is not None


def get_metrics() -> MetricsRegistry | None:
    """The installed registry, or None when metrics are disabled."""
    return _ACTIVE


def count(name: str, amount: float = 1.0, **labels) -> None:
    """Increment a counter on the active registry; no-op when disabled."""
    registry = _ACTIVE
    if registry is not None:
        registry.counter(name, **labels).inc(amount)


def observe(name: str, value: float, bounds: tuple[float, ...], **labels) -> None:
    """Add one histogram observation on the active registry; no-op when disabled."""
    registry = _ACTIVE
    if registry is not None:
        registry.histogram(name, bounds=bounds, **labels).observe(value)


def gauge(name: str, value: float) -> None:
    """Set a gauge on the active registry; no-op when disabled."""
    registry = _ACTIVE
    if registry is not None:
        registry.gauge(name).set(value)


@contextmanager
def metrics_session(*, enabled: bool = True):
    """Install a fresh registry — or, with ``enabled=False``, none — for
    the ``with`` body, restoring the previous one afterwards; yields it."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = MetricsRegistry() if enabled else None
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = previous
