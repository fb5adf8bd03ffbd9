"""Outside-in layer tracing: wrap each layer's public entry points.

:class:`Tracer` patches the functions and methods listed in
:data:`WRAP_POINTS` with wrappers that record a span per call (name,
layer, start and end from ``perf_counter_ns``, span id, parent id, round,
request id) and charge the call's *self time* — its duration minus the
time covered by its child spans — to its layer.  Nothing inside the
program changes, and :meth:`Tracer.uninstall` restores every original.

A name imported with ``from x import f`` is patched where it is used, so
a layer has one wrap point per module that calls it.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter
from pathlib import Path
from time import perf_counter_ns

#: the benchmark's own layer: the round loop around the program
HARNESS = "bench"

#: (layer, module[:class], attribute): the public entry points of each layer
WRAP_POINTS = (
    ("api", "repro", "topk"),
    ("api", "repro.api", "topk"),
    ("api", "repro.serve.service", "topk"),
    ("perf", "repro.perf.costmodel", "rank_algorithms"),
    ("perf", "repro.approx", "choose_plan"),
    ("primitives", "repro.primitives", "priority_keys"),
    ("primitives", "repro.algos.base", "priority_keys"),
    ("primitives", "repro.serve.merge", "priority_keys"),
    ("algos", "repro.algos.base:TopKAlgorithm", "select"),
    ("device", "repro.device.device:Device", "launch_kernel"),
    ("device", "repro.device.device:Device", "memcpy_d2h"),
    ("device", "repro.device.device:Device", "memcpy_h2d"),
    ("device", "repro.device.device:Device", "synchronize"),
    ("device", "repro.device.device:Device", "host_compute"),
    ("serve.service", "repro.serve.service:TopKService", "run"),
    ("serve.service", "repro.serve.service:TopKService", "submit"),
    ("serve.batcher", "repro.serve.batcher:MicroBatcher", "add"),
    ("serve.batcher", "repro.serve.batcher:MicroBatcher", "pop"),
    ("serve.batcher", "repro.serve.batcher:MicroBatcher", "size_ready"),
    ("serve.batcher", "repro.serve.batcher:MicroBatcher", "next_flush_time"),
    ("serve.cache", "repro.serve.cache", "fingerprint"),
    ("serve.cache", "repro.cluster.router", "fingerprint"),
    ("serve.cache", "repro.serve.cache:ServeCache", "get_result"),
    ("serve.cache", "repro.serve.cache:ServeCache", "put_result"),
    ("serve.cache", "repro.serve.cache:ServeCache", "make_plan"),
    ("obs", "repro.obs.serve:ServeTelemetry", "on_outcome"),
    ("obs", "repro.obs.serve:ServeTelemetry", "on_batch"),
    ("obs", "repro.obs.serve:ServeTelemetry", "on_queue_depth"),
    ("obs", "repro.obs.serve:ServeTelemetry", "on_cache_lookup"),
    ("obs", "repro.obs.serve:ServeTelemetry", "emit"),
    ("serve.sharder", "repro.serve.service", "sharded_topk"),
    ("serve.merge", "repro.serve.sharder", "hierarchical_merge"),
    ("serve.merge", "repro.cluster.router", "hierarchical_merge"),
    ("cluster.router", "repro.cluster.router:ClusterRouter", "run"),
    ("faults", "repro.faults.injector:FaultInjector", "decide"),
)

#: every layer, in the order the ledger lists them
LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in WRAP_POINTS))

_DEVICE_BOUNDARIES = ("launch_kernel", "memcpy_d2h", "memcpy_h2d", "synchronize", "host_compute")


def _label(target: str, attr: str) -> str:
    """Span name of a wrap point: ``Class.method`` or ``module.function``."""
    module, _, cls = target.partition(":")
    return f"{cls or module.rpartition('.')[2]}.{attr}"


def _request_rid(args, kwargs):
    request = args[1] if len(args) > 1 else kwargs.get("request")
    return getattr(request, "rid", None)


class Tracer:
    """Span recorder and per-layer self-time ledger for traced rounds."""

    def __init__(self) -> None:
        #: (name, layer, start_ns, end_ns, span_id, parent_id, round, rid)
        self.spans: list[tuple] = []
        #: record spans; self times, calls and counts are always kept
        self.keep_spans = True
        self.round: int | None = None
        self.self_ns: Counter = Counter()
        #: calls per span name
        self.calls: Counter = Counter()
        #: work counted at the wrap points (elements, launches, bytes, ...)
        self.counts: Counter = Counter()
        #: host time per device pass, keyed by kernel name
        self.pass_ns: Counter = Counter()
        self._stack: list[list[int]] = []  # [span_id, child_ns] per open span
        self._next_id = 1
        self._last_boundary = 0
        self._patched: list[tuple[object, str, object, bool]] = []
        #: wrap points not found in the program at the last install
        self.missing: list[str] = []

    # -- spans ----------------------------------------------------------- #
    def span(self, fn, name: str, layer: str, *, on_start=None, after=None, rid=None):
        """``fn`` wrapped to record one span per call.

        ``on_start(start_ns)`` runs as the span opens,
        ``after(args, kwargs, result)`` counts work once it closes, and
        ``rid(args, kwargs)`` names the request the span serves.
        """
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0]
            stack.append(frame)
            start = perf_counter_ns()
            if on_start is not None:
                on_start(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                self.self_ns[layer] += end - start - frame[1]
                if stack:
                    stack[-1][1] += end - start
                self.calls[name] += 1
                if self.keep_spans:
                    self.spans.append(
                        (name, layer, start, end, sid, parent, self.round,
                         rid(args, kwargs) if rid else None)
                    )
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def run_round(self, index: int, fn):
        """Run one traced round inside the harness's root span."""
        self.round = index
        return self.span(fn, "round", HARNESS)()

    def layer_calls(self, layer: str) -> int:
        """Calls into ``layer`` through any of its wrap points."""
        return sum(
            self.calls[_label(target, attr)]
            for owner, target, attr in WRAP_POINTS
            if owner == layer
        )

    # -- wrap points ----------------------------------------------------- #
    def install(self) -> None:
        """Patch every wrap point the program still has; the labels of
        those it no longer has are listed in :attr:`missing`."""
        self.missing = []
        for layer, target, attr in WRAP_POINTS:
            module, _, cls = target.partition(":")
            label = _label(target, attr)
            try:
                owner = importlib.import_module(module)
                if cls:
                    owner = getattr(owner, cls)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            if attr in _DEVICE_BOUNDARIES:
                wrapped = self._device_boundary(original, label)
            elif attr == "select":
                wrapped = self.span(
                    original, label, layer,
                    on_start=self._open_select, after=self._count_select,
                )
            else:
                wrapped = self.span(
                    original, label, layer,
                    after={
                        "hierarchical_merge": self._count_merge,
                        "priority_keys": self._count_transcode,
                    }.get(attr),
                    rid=_request_rid if attr == "submit" else None,
                )
            self._patched.append((owner, attr, original, attr in vars(owner)))
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original, owned = self._patched.pop()
            if owned:
                setattr(owner, attr, original)
            else:  # resolved lazily by a module __getattr__: drop the wrapper
                delattr(owner, attr)

    def _device_boundary(self, fn, label: str):
        """A device call; the host time since the previous boundary of the
        same selection (or of the same run of boundaries outside any
        selection) is charged to the pass named here."""
        inner = self.span(fn, label, "device")
        launch = label.endswith("launch_kernel")

        @functools.wraps(fn)
        def boundary(device, name="sync", *args, **kwargs):
            start = perf_counter_ns()
            result = inner(device, name, *args, **kwargs)
            end = perf_counter_ns()
            self.pass_ns[name] += end - (self._last_boundary or start)
            self._last_boundary = end
            if launch:
                self.counts["device.launches"] += 1
            return result

        return boundary

    def _open_select(self, start: int) -> None:
        self._last_boundary = start

    def _count_select(self, args, kwargs, result) -> None:
        data = args[1] if len(args) > 1 else kwargs["data"]
        counters = result.device.counters
        c = self.counts
        c["algos.elems"] += data.size
        c["algos.sim_ns"] += result.device.elapsed * 1e9
        c["algos.launches"] += counters.kernel_launches
        c["algos.bytes"] += counters.bytes_total
        c["algos.syncs"] += counters.syncs
        c["algos.pcie_transfers"] += counters.pcie_transfers
        self._last_boundary = 0

    def _count_merge(self, args, kwargs, result) -> None:
        partials = args[0] if args else kwargs["partials"]
        self.counts["merge.candidates"] += sum(p[0].size for p in partials)

    def _count_transcode(self, args, kwargs, result) -> None:
        values = args[0] if args else kwargs["values"]
        self.counts["primitives.elems"] += values.size

    # -- output ---------------------------------------------------------- #
    def write_trace(self, path: Path) -> Path:
        """The kept spans as a Trace Event Format file that Perfetto opens."""
        base = min((s[2] for s in self.spans), default=0)
        events = [
            {
                "name": name, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
                "ts": (start - base) / 1e3, "dur": (end - start) / 1e3,
                "args": {"span_id": sid, "parent_id": parent, "round": rnd, "rid": rid},
            }
            for name, layer, start, end, sid, parent, rnd, rid in sorted(
                self.spans, key=lambda s: (s[2], -s[3])
            )
        ]
        payload = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "device_pass_host_us": {
                    name: ns / 1e3 for name, ns in sorted(self.pass_ns.items())
                }
            },
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
        return path


def layer_metrics(
    tracer: Tracer,
    *,
    traced_ns: list[int],
    overhead_pct: float,
    ops: int,
    facts: dict[str, float],
) -> dict[str, float]:
    """Every per-layer metric of one workload's traced rounds.

    ``traced_ns`` are the traced round walls, ``overhead_pct`` how much
    longer traced rounds take than untraced ones, ``ops`` the operations
    the traced rounds attempted, and ``facts`` the layer facts of one
    round (they repeat on every round).
    """
    wall = sum(traced_ns)
    requests = ops / len(traced_ns)  # operations of one round
    c, self_ns = tracer.counts, tracer.self_ns

    def ratio(a, b):
        return a / b if b else 0.0

    def fact(key):
        return facts.get(key, 0.0)

    selects = tracer.layer_calls("algos")
    plans = tracer.layer_calls("perf")
    lookups = fact("result_hits") + fact("result_misses")
    m = {f"{layer}.self_pct": 100.0 * self_ns[layer] / wall for layer in LAYERS}
    m.update({
        "bench.harness_pct": 100.0 * self_ns[HARNESS] / wall,
        "bench.trace_overhead_pct": overhead_pct,
        "perf.host_us_per_plan": ratio(self_ns["perf"], plans) / 1e3,
        "primitives.transcode_ns_per_elem": ratio(
            self_ns["primitives"], c["primitives.elems"]
        ),
        "algos.host_ns_per_elem": ratio(self_ns["algos"], c["algos.elems"]),
        "device.host_us_per_launch": ratio(self_ns["device"], c["device.launches"]) / 1e3,
        "api.calls_per_op": ratio(tracer.layer_calls("api"), ops),
        "perf.plans_per_op": ratio(plans, ops),
        "algos.selects_per_op": ratio(selects, ops),
        "algos.sim_gelem_per_s": ratio(c["algos.elems"], c["algos.sim_ns"]),
        "algos.launches_per_call": ratio(c["algos.launches"], selects),
        "algos.bytes_per_elem": ratio(c["algos.bytes"], c["algos.elems"]),
        "algos.syncs_per_call": ratio(c["algos.syncs"], selects),
        "algos.pcie_transfers_per_call": ratio(c["algos.pcie_transfers"], selects),
        "serve.service.sim_busy_frac": ratio(fact("busy_s"), fact("makespan_s")),
        "serve.batcher.mean_occupancy": ratio(fact("executed"), fact("batches")),
        "serve.batcher.sim_wait_pct": 100.0 * ratio(fact("wait_s"), fact("latency_exec_s")),
        "serve.cache.fingerprints_per_request": ratio(
            tracer.calls["cache.fingerprint"] + tracer.calls["router.fingerprint"], ops
        ),
        "serve.cache.result_hit_ratio": ratio(fact("result_hits"), lookups),
        "serve.cache.plan_hit_ratio": ratio(
            fact("plan_hits"), fact("plan_hits") + fact("plan_misses")
        ),
        "serve.cache.result_evictions_per_request": ratio(fact("result_evictions"), requests),
        "obs.events_per_request": ratio(tracer.layer_calls("obs"), ops),
        "serve.sharder.calls_per_request": ratio(tracer.layer_calls("serve.sharder"), ops),
        "serve.merge.candidates_per_call": ratio(
            c["merge.candidates"], tracer.layer_calls("serve.merge")
        ),
        "cluster.router.failovers_per_request": ratio(fact("failovers"), requests),
        "cluster.router.wasted_dispatch_ratio": ratio(
            fact("wasted_dispatches"), fact("dispatches")
        ),
        "cluster.router.node_busy_imbalance": fact("node_busy_imbalance"),
        "faults.fired_per_request": ratio(fact("faults_fired"), requests),
        "faults.retries_per_request": ratio(fact("retries"), requests),
        "faults.hedges_per_request": ratio(fact("hedges"), requests),
    })
    return m
