"""Adapt bench: regret of online adaptive dispatch under a device shift.

The :class:`repro.perf.adaptive.AdaptiveDispatcher` claims to *learn the
fastest algorithm per regime* from live measurements, where static
dispatch trusts the analytic cost model's belief about the device.  This
bench makes that claim falsifiable with a worst case for the static
path: the cost model keeps believing ``gpu`` while, halfway through the
decision stream, the device silently becomes :data:`SHIFT_SPEC`, a V100
whose memory bandwidth is derated to a quarter (a throttled or shared
GPU behind the same endpoint).  The regret comes from that shift alone:
where the cost model's pick is right for the believed device, the
derated device makes another method faster, and only measurements can
show it.

Per pinned regime the bench measures every candidate algorithm once on
each device (memoised — simulated times are deterministic), then replays
one decision stream through both dispatchers:

* **static** — the cost model's pick for the believed device, forever;
* **adaptive** — epsilon-greedy over the corrected ranking, fed each
  decision's measured time back through the correction store.

Per decision the *regret* is ``measured(chosen) - measured(oracle)``,
the oracle being the per-regime fastest algorithm on the device actually
executing.  The gate requires the adaptive stream's cumulative
post-shift regret to undercut static's by :data:`ACCEPT_RATIO`, and two
safety properties to hold exactly:

* **byte identity** — adaptation only changes *which* algorithm runs;
  re-running any chosen (regime, algorithm) pair reproduces its results
  byte-for-byte;
* **no-telemetry no-op** — a dispatcher that never receives feedback
  (telemetry off) makes exactly the static choices and folds nothing.

The gates are declared in :data:`GATES` and evaluated by
:mod:`repro.bench.gates`; the snapshot has no wall-clock content, so a
seeded rerun is byte-identical — CI runs the tiny grid twice and
``cmp``s the files (see docs/adaptive.md).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from ..device import V100
from .gates import Gate, make_snapshot
from .report import format_table, format_time

logger = logging.getLogger(__name__)

#: post-shift cumulative-regret ratio (static / adaptive) the gate requires
ACCEPT_RATIO = 1.3

#: the board the device silently becomes halfway through the stream: a
#: V100 throttled to a quarter of its memory bandwidth
SHIFT_SPEC = V100.with_overrides(
    name="V100-derated", peak_bandwidth=V100.peak_bandwidth / 4
)
GPU_SHIFT = SHIFT_SPEC.name

#: decision-stream length of the full and the tiny grid; the shift
#: lands halfway
DECISIONS = 240
TINY_DECISIONS = 80

#: the adaptive dispatcher's exploration probability and fold window
EPSILON = 0.1
MIN_WINDOW = 4

#: dispatch roster raced in every regime — the exact tier's contenders
#: across the paper's regime map (hierarchical, AIR, radix, partition)
CANDIDATES = (
    "air_topk",
    "grid_select",
    "radix_select",
    "bucket_select",
    "quick_select",
    "sample_select",
)


@dataclass(frozen=True)
class AdaptCell:
    """One pinned regime of the adapt-bench decision stream."""

    n: int
    k: int
    batch: int


#: the pinned grid.  In (8192, 64, 1) the A100-belief pick (grid_select)
#: is right on A100 and ~2.2x wrong post-shift, where AIR Top-K wins on
#: the derated device — the regret the learner must recover; (8192, 8,
#: 64) is the same the other way round (AIR Top-K, ~1.4x wrong, then
#: grid_select wins); in (4096, 16, 16) the measured winner flips the
#: other way (AIR Top-K, then grid_select) while the static pick is
#: grid_select, so the learner has to unlearn its pre-shift preference;
#: (65536, 256, 4) is a control where the static pick (AIR Top-K) stays
#: optimal on both devices and adaptation must not regress it.
#:
#: The regret comes from the shift, not from predictor error: the
#: regimes were searched (n 2^11-2^16, k 8-256, batch 1-64) so that each
#: plays its role whether AIR Top-K is priced by a closed form or by
#: replaying its schedule.
DEFAULT_REGIMES: tuple[AdaptCell, ...] = (
    AdaptCell(8192, 64, 1),
    AdaptCell(4096, 16, 16),
    AdaptCell(8192, 8, 64),
    AdaptCell(65536, 256, 4),
)

#: reduced grid for CI: the regret regime plus the flip regime
TINY_REGIMES: tuple[AdaptCell, ...] = (
    AdaptCell(8192, 64, 1),
    AdaptCell(4096, 16, 16),
)

_SHIFT_PHASES = ("pre", "post")

_TIMES = {"type": "object"}

_REGRET = {
    "type": "object",
    "required": ["static_regret_s", "adaptive_regret_s"],
    "properties": {
        "static_regret_s": {"type": "number"},
        "adaptive_regret_s": {"type": "number"},
    },
}

BODY_SCHEMA = {
    "type": "object",
    "required": [
        "gpu_shift", "decisions", "shift_at", "regimes", "static_regret_s",
        "adaptive_regret_s", "pre_shift", "post_shift", "folds", "explored",
        "corrections", "byte_identical", "no_telemetry_noop",
    ],
    "properties": {
        "gpu_shift": {"type": "string"},
        "decisions": {"type": "integer"},
        "shift_at": {"type": "integer"},
        "regimes": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "n", "k", "batch", "static_algo", "oracle_pre",
                    "oracle_post", "flipped", "times_pre_s", "times_post_s",
                ],
                "properties": {
                    "n": {"type": "integer"},
                    "k": {"type": "integer"},
                    "batch": {"type": "integer"},
                    "static_algo": {"type": "string"},
                    "oracle_pre": {"type": "string"},
                    "oracle_post": {"type": "string"},
                    "flipped": {"type": "boolean"},
                    "times_pre_s": _TIMES,
                    "times_post_s": _TIMES,
                },
            },
        },
        "static_regret_s": {"type": "number"},
        "adaptive_regret_s": {"type": "number"},
        "pre_shift": _REGRET,
        "post_shift": _REGRET,
        "folds": {"type": "integer"},
        "explored": {"type": "integer"},
        "corrections": {"type": "integer"},
        "byte_identical": {"type": "boolean"},
        "no_telemetry_noop": {"type": "boolean"},
    },
}


# --------------------------------------------------------------------------- #
# measurement
# --------------------------------------------------------------------------- #
def measure_regime(
    cell: AdaptCell,
    *,
    gpu: str,
    seed: int,
) -> dict:
    """One regime's measured-time tables on both devices.

    Simulated times are pure functions of (payload, algorithm, spec,
    seed), so measuring each pair once and replaying from the table is
    exact, not an approximation — and keeps the decision loop free of
    device work.
    """
    from ..api import topk
    from ..datagen import generate
    from ..device import get_spec
    from ..perf.costmodel import rank_algorithms

    data = generate("uniform", cell.n, batch=cell.batch, seed=seed)
    times = {}
    for phase, spec in zip(_SHIFT_PHASES, (get_spec(gpu), SHIFT_SPEC)):
        times[phase] = {
            algo: topk(data, cell.k, algo=algo, device=spec, seed=seed).time
            for algo in CANDIDATES
        }
    static_algo = rank_algorithms(
        n=cell.n,
        k=cell.k,
        batch=cell.batch,
        spec=get_spec(gpu),
        candidates=CANDIDATES,
    )[0].algo
    oracle_pre = min(times["pre"], key=times["pre"].get)
    oracle_post = min(times["post"], key=times["post"].get)
    return {
        "cell": cell,
        "data": data,
        "static_algo": static_algo,
        "oracle_pre": oracle_pre,
        "oracle_post": oracle_post,
        "times": times,
    }


def _replay(
    regimes: list[dict],
    *,
    gpu: str,
    seed: int,
    decisions: int,
    shift_at: int,
) -> dict:
    """Run the static and adaptive decision streams against the tables."""
    from ..device import get_spec
    from ..perf.adaptive import AdaptiveDispatcher, CorrectionStore

    belief = get_spec(gpu)
    store = CorrectionStore(min_window=MIN_WINDOW)
    dispatcher = AdaptiveDispatcher(
        corrections=store,
        epsilon=EPSILON,
        seed=seed,
        candidates=CANDIDATES,
    )
    # the no-op control: same construction, never fed — must reproduce
    # the static stream exactly (what "telemetry off" degrades to)
    control = AdaptiveDispatcher(
        corrections=CorrectionStore(min_window=MIN_WINDOW),
        epsilon=EPSILON,
        seed=seed,
        candidates=CANDIDATES,
    )
    regret = {
        "static": {"pre": 0.0, "post": 0.0},
        "adaptive": {"pre": 0.0, "post": 0.0},
    }
    chosen_algos: list[set] = [set() for _ in regimes]
    noop = True
    for t in range(decisions):
        entry = regimes[t % len(regimes)]
        cell = entry["cell"]
        phase = "pre" if t < shift_at else "post"
        times = entry["times"][phase]
        oracle_s = min(times.values())
        regret["static"][phase] += times[entry["static_algo"]] - oracle_s
        decision = dispatcher.choose(
            n=cell.n,
            k=cell.k,
            batch=cell.batch,
            spec=belief,
            site="bench.adapt",
        )
        chosen_algos[t % len(regimes)].add(decision.algo)
        regret["adaptive"][phase] += times[decision.algo] - oracle_s
        dispatcher.observe(
            decision.algo,
            n=cell.n,
            k=cell.k,
            batch=cell.batch,
            measured_s=times[decision.algo],
            spec=belief,
        )
        unfed = control.choose(
            n=cell.n,
            k=cell.k,
            batch=cell.batch,
            spec=belief,
            explore=False,
            site="bench.adapt",
        )
        if unfed.algo != entry["static_algo"]:
            noop = False
    noop = noop and control.corrections.folds == 0 and len(control.corrections) == 0
    return {
        "regret": regret,
        "chosen": chosen_algos,
        "noop": noop,
        "store": store,
        "dispatcher": dispatcher,
    }


def _byte_identity(
    regimes: list[dict],
    chosen: list[set],
    *,
    gpu: str,
    seed: int,
) -> bool:
    """Re-run every (regime, chosen algorithm) pair on both devices and
    compare results byte-for-byte — adaptation must only change *which*
    algorithm runs, never what it returns."""
    from ..api import topk
    from ..device import get_spec

    for entry, algos in zip(regimes, chosen):
        cell = entry["cell"]
        for algo in sorted(algos):
            for spec in (get_spec(gpu), SHIFT_SPEC):
                first = topk(entry["data"], cell.k, algo=algo, device=spec, seed=seed)
                again = topk(entry["data"], cell.k, algo=algo, device=spec, seed=seed)
                if (
                    first.values.tobytes() != again.values.tobytes()
                    or first.indices.tobytes() != again.indices.tobytes()
                ):
                    return False
    return True


def collect_snapshot(
    *,
    tiny: bool = False,
    gpu: str = "A100",
    seed: int = 0,
    rev: str | None = None,
) -> dict:
    """Measure, replay, and assemble one gated snapshot."""
    regimes = TINY_REGIMES if tiny else DEFAULT_REGIMES
    decisions = TINY_DECISIONS if tiny else DECISIONS
    shift_at = decisions // 2
    logger.info(
        "adapt-bench: %d regimes x %d candidates, %d decisions, "
        "%s -> %s shift at %d",
        len(regimes), len(CANDIDATES), decisions, gpu, GPU_SHIFT, shift_at,
    )
    measured = []
    for cell in regimes:
        entry = measure_regime(cell, gpu=gpu, seed=seed)
        measured.append(entry)
        logger.info(
            "n=%d k=%d batch=%d: static %s, oracle %s -> %s%s",
            cell.n, cell.k, cell.batch, entry["static_algo"],
            entry["oracle_pre"], entry["oracle_post"],
            " (flip)" if entry["oracle_pre"] != entry["oracle_post"] else "",
        )
    replay = _replay(
        measured, gpu=gpu, seed=seed, decisions=decisions, shift_at=shift_at
    )
    byte_identical = _byte_identity(
        measured, replay["chosen"], gpu=gpu, seed=seed
    )
    regret = replay["regret"]
    store = replay["store"]
    body = {
        "gpu_shift": GPU_SHIFT,
        "decisions": decisions,
        "shift_at": shift_at,
        "regimes": [
            {
                "n": e["cell"].n,
                "k": e["cell"].k,
                "batch": e["cell"].batch,
                "static_algo": e["static_algo"],
                "oracle_pre": e["oracle_pre"],
                "oracle_post": e["oracle_post"],
                "flipped": e["oracle_pre"] != e["oracle_post"],
                "times_pre_s": dict(sorted(e["times"]["pre"].items())),
                "times_post_s": dict(sorted(e["times"]["post"].items())),
            }
            for e in measured
        ],
        "static_regret_s": regret["static"]["pre"] + regret["static"]["post"],
        "adaptive_regret_s": (
            regret["adaptive"]["pre"] + regret["adaptive"]["post"]
        ),
        "pre_shift": {
            "static_regret_s": regret["static"]["pre"],
            "adaptive_regret_s": regret["adaptive"]["pre"],
        },
        "post_shift": {
            "static_regret_s": regret["static"]["post"],
            "adaptive_regret_s": regret["adaptive"]["post"],
        },
        "folds": store.folds,
        "explored": replay["dispatcher"].explored,
        "corrections": len(store),
        "byte_identical": byte_identical,
        "no_telemetry_noop": replay["noop"],
    }
    return make_snapshot("adapt", body, gpu=gpu, seed=seed, rev=rev)


def _regret_ratio(body: dict) -> float:
    """Post-shift cumulative regret, static over adaptive.

    Zero static regret reads 0 — the pinned regimes no longer exercise
    the shift, so the gate must fail — and zero adaptive regret against
    a positive static regret reads infinite.
    """
    post = body["post_shift"]
    if post["static_regret_s"] <= 0:
        return 0.0
    if post["adaptive_regret_s"] <= 0:
        return float("inf")
    return post["static_regret_s"] / post["adaptive_regret_s"]


#: the adapt bench's gates: the regret headline, a learner that really
#: engaged, and the two exact safety properties
GATES = (
    Gate("post-shift regret ratio (static / adaptive)", ACCEPT_RATIO, "max",
         _regret_ratio),
    Gate("correction folds", 1, "max", lambda body: body["folds"]),
    Gate("byte identity", 1, "max", lambda body: body["byte_identical"]),
    Gate("no-telemetry no-op", 1, "max",
         lambda body: body["no_telemetry_noop"]),
)


def render_table(body: dict) -> str:
    """The regret tables ``repro-topk adapt-bench`` prints."""
    out = [
        f"shift to {body['gpu_shift']} after {body['shift_at']} of "
        f"{body['decisions']} decisions"
    ]
    rows = []
    for r in body["regimes"]:
        post = r["times_post_s"]
        static_post = post[r["static_algo"]] / post[r["oracle_post"]]
        rows.append(
            (
                f"{r['n']:,}x{r['batch']} k={r['k']}",
                r["static_algo"],
                r["oracle_pre"],
                r["oracle_post"],
                "flip" if r["flipped"] else "-",
                f"{static_post:.2f}x",
                format_time(post[r["oracle_post"]]),
            )
        )
    out.append(
        format_table(
            ["regime", "static pick", "oracle pre", "oracle post", "shift",
             "static post regret", "oracle post"],
            rows,
        )
    )
    pre, post = body["pre_shift"], body["post_shift"]
    out.append(
        f"cumulative regret pre-shift:  static {format_time(pre['static_regret_s'])}"
        f"  adaptive {format_time(pre['adaptive_regret_s'])}"
    )
    out.append(
        f"cumulative regret post-shift: static {format_time(post['static_regret_s'])}"
        f"  adaptive {format_time(post['adaptive_regret_s'])}"
    )
    out.append(
        f"learner: folds={body['folds']} corrections={body['corrections']} "
        f"explored={body['explored']}"
    )
    return "\n".join(out)
