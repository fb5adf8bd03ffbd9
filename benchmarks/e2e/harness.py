"""One workload measured in one process.

:func:`measure` builds the workload's inputs, runs one untimed warm-up
round, checks every warm-up answer against the oracle, then times rounds
until its budget is spent.  Every timed round must reproduce the warm-up
round's answers and simulated figures exactly.  With ``trace=True`` the
rounds alternate untraced and traced, and the record carries the
per-layer metrics of the traced ones.

The host this runs on shares its processors with other work, so its
speed drifts by tens of percent over seconds to minutes.  Before set-up
is reported and before every round, the :class:`Reference` job measures
how fast the host runs right then, and host figures are scaled to the
speed at which that job takes :data:`REFERENCE_S`.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
from pathlib import Path
from time import perf_counter, perf_counter_ns

import numpy as np

from layers import Tracer, layer_metrics
from workloads import WORKLOADS, Answer, Round

#: how many oracle or determinism problems a record spells out
MAX_PROBLEMS = 5

#: seconds the Reference job takes on the machine the first baseline was
#: measured on (2-vCPU Intel Xeon container, CPython 3.11, numpy 2.4)
REFERENCE_S = 0.095


class Reference:
    """A fixed job of interpreter, numpy and hashing work, the same mix
    the workloads spend host time on, that uses no code of the program:
    its duration says how fast the host runs at the moment."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self.values = rng.random(1 << 18, dtype=np.float32)
        self.rows = rng.random((64, 1024), dtype=np.float32)
        self.batch = rng.random((100, 4096), dtype=np.float32)
        self.large = rng.random(1 << 21, dtype=np.float32)
        self.table = {i: str(i) for i in range(4096)}

    def speed(self) -> float:
        """REFERENCE_S over the job's duration now: 1.0 at baseline speed."""
        start = perf_counter()
        for _ in range(5):
            total = 0
            for i in range(60_000):
                total += len(self.table[i & 4095])
            for row in self.rows:
                np.partition(row, 31)
            np.partition(self.values, 1000)
            hashlib.blake2b(memoryview(self.values)).digest()
        for _ in range(2):
            # arrays larger than the caches, like the roster's batches
            np.partition(self.large, 1000)
            np.argsort(self.batch, axis=1, kind="stable")
        return REFERENCE_S / (perf_counter() - start)


def oracle_problem(answer: Answer) -> str | None:
    """Why an answered result is wrong, or None when it is right.

    Exact results must equal the ``np.partition`` top-k, value for value,
    with ``data[indices] == values``.  Approximate and degraded results
    must reach an empirical recall of at least their ``recall_bound``.
    Operations without a result are failures, not wrong answers: None.
    """
    if answer.status != "ok":
        return None
    data = np.atleast_2d(answer.data)
    values = np.atleast_2d(answer.values)
    indices = np.atleast_2d(answer.indices)
    k = answer.k
    if values.shape != (data.shape[0], k) or indices.shape != values.shape:
        return f"result shape {values.shape} != {(data.shape[0], k)}"
    if indices.min() < 0 or indices.max() >= data.shape[1]:
        return "index out of range"
    if (np.diff(np.sort(indices, axis=1), axis=1) == 0).any():
        return "duplicate index in a row"
    if not np.array_equal(np.take_along_axis(data, indices, axis=1), values):
        return "data[indices] != values"
    truth = np.sort(np.partition(data, k - 1, axis=1)[:, :k], axis=1)
    if answer.exact:
        if not np.array_equal(values, truth):
            return "values differ from the np.partition top-k"
        return None
    if answer.recall_bound is None:
        return "inexact result without a recall_bound"
    recall = np.minimum((values <= truth[:, -1:]).sum(axis=1), k) / k
    if recall.min() < answer.recall_bound:
        return f"recall {recall.min():.4f} below its bound {answer.recall_bound:.4f}"
    return None


def output_digest(rnd: Round) -> str:
    """sha256 over every answer's status, values and indices."""
    digest = hashlib.sha256()
    for answer in rnd.answers:
        digest.update(answer.status.encode())
        if answer.values is not None:
            digest.update(np.ascontiguousarray(answer.values).tobytes())
            digest.update(np.ascontiguousarray(answer.indices).tobytes())
    return digest.hexdigest()


def sim_digest(rnd: Round) -> str:
    """sha256 over the simulated time of every operation and the round's
    simulated figures."""
    times = [np.nan if a.sim_s is None else a.sim_s for a in rnd.answers]
    digest = hashlib.sha256(np.asarray(times, dtype=np.float64).tobytes())
    digest.update(json.dumps(rnd.sim, sort_keys=True).encode())
    return digest.hexdigest()


def measure(
    name: str,
    *,
    seed: int,
    budget_s: float,
    trace: bool = False,
    scale: float = 1.0,
    started: float | None = None,
    trace_path: Path | None = None,
) -> dict:
    """Measure workload ``name`` in this process; returns its record.

    ``started`` is the ``perf_counter`` reading set-up time counts from
    (the process start when a worker calls this).  ``scale`` shrinks the
    workload (tests only).  With ``trace``, ``trace_path`` receives the
    spans of the first traced round.
    """
    started = perf_counter() if started is None else started
    workload = WORKLOADS[name](seed, scale)
    warm = workload.run()
    setup_s = perf_counter() - started

    reference = Reference()
    setup_speed = reference.speed()
    wrong = [p for p in map(oracle_problem, warm.answers) if p]
    problems = [f"wrong answer: {p}" for p in wrong]
    expect = (output_digest(warm), sim_digest(warm))
    tracer = Tracer() if trace else None
    rounds: list[dict] = []
    clock = perf_counter()
    while len(rounds) < (2 if trace else 1) or perf_counter() - clock < budget_s:
        traced = trace and len(rounds) % 2 == 1
        # every round starts from the same heap, so collections of the
        # previous round's garbage do not land in it
        gc.collect()
        speed = reference.speed()
        if traced:
            tracer.install()
        try:
            start = perf_counter_ns()
            if traced:
                rnd = tracer.run_round(len(rounds), workload.run)
            else:
                rnd = workload.run()
            wall_ns = perf_counter_ns() - start
        finally:
            if traced:
                tracer.uninstall()
                tracer.keep_spans = False
        if (output_digest(rnd), sim_digest(rnd)) != expect:
            problems.append(
                f"round {len(rounds)}: answers or simulated figures differ "
                "from the warm-up round"
            )
        rounds.append({
            "wall_ns": wall_ns,
            "speed": speed,
            "ops": rnd.ops,
            "failed": sum(a.status != "ok" for a in rnd.answers),
            "traced": traced,
        })

    record = {
        "workload": name,
        "seed": seed,
        "setup_s": setup_s,
        "setup_speed": setup_speed,
        "rounds": rounds,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "mismatches": len(wrong),
        "problems": problems[:MAX_PROBLEMS],
        "correct": not problems,
        "sim": warm.sim,
        "sim_digest": expect[1],
        "output_digest": expect[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        traced_ns = [r["wall_ns"] for r in rounds if r["traced"]]
        # compare rounds at the reference speed, as host_rps does
        cost = {
            traced: statistics.median(
                r["wall_ns"] * r["speed"] for r in rounds if r["traced"] == traced
            )
            for traced in (False, True)
        }
        record["layers"] = layer_metrics(
            tracer,
            traced_ns=traced_ns,
            overhead_pct=100.0 * (cost[True] / cost[False] - 1.0),
            ops=sum(r["ops"] for r in rounds if r["traced"]),
            facts=warm.facts,
        )
        # self times partition each round span, so with properly nested
        # spans they add up to the traced walls
        record["layer_coverage"] = sum(tracer.self_ns.values()) / sum(traced_ns)
        record["missing_wrap_points"] = tracer.missing
        if trace_path is not None:
            record["trace_file"] = str(tracer.write_trace(trace_path))
    return record
