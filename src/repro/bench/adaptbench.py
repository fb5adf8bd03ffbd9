"""Adapt bench: regret of online adaptive dispatch under a device shift.

The :class:`repro.perf.adaptive.AdaptiveDispatcher` claims to *learn the
fastest algorithm per regime* from live measurements, where static
dispatch trusts the analytic cost model's belief about the device.  This
bench makes that claim falsifiable with a worst case for the static
path: the cost model keeps believing ``gpu`` while, halfway through the
decision stream, the device silently becomes ``gpu_shift`` (a
device-spec drift — new hardware behind the same endpoint, thermal
derating, a driver regression).

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

Snapshots are schema-validated JSON (``repro.bench.adapt/v1``) with no
wall-clock content, so a seeded rerun is byte-identical — CI runs the
tiny grid twice and ``cmp``s the files (see docs/adaptive.md).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..obs.manifest import git_revision
from ..obs.schema import validate
from .report import format_table, format_time

SCHEMA_ID = "repro.bench.adapt/v1"

#: post-shift cumulative-regret ratio (static / adaptive) the gate requires
ACCEPT_RATIO = 1.3

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


#: the pinned grid.  (16384, 64, 4) is the regime where the A100-belief
#: pick (grid_select) is measurably wrong on both devices and ~1.5x
#: wrong post-shift — the regret the learner must recover; (4096, 16,
#: 16) is a regime whose measured winner *flips* across the shift, so
#: the learner has to unlearn its pre-shift preference; the other two
#: are controls where the static pick stays optimal and adaptation must
#: not regress it.
DEFAULT_REGIMES: tuple[AdaptCell, ...] = (
    AdaptCell(16384, 64, 4),
    AdaptCell(4096, 16, 16),
    AdaptCell(65536, 256, 4),
    AdaptCell(2048, 8, 64),
)

#: reduced grid for CI: the regret regime plus the flip regime
TINY_REGIMES: tuple[AdaptCell, ...] = (
    AdaptCell(16384, 64, 4),
    AdaptCell(4096, 16, 16),
)

_SHIFT_PHASES = ("pre", "post")

_TIMES = {"type": "object"}

SNAPSHOT_SCHEMA = {
    "type": "object",
    "required": [
        "schema", "rev", "gpu", "gpu_shift", "seed", "candidates",
        "decisions", "shift_at", "epsilon", "min_window", "regimes",
        "static_regret_s", "adaptive_regret_s", "pre_shift", "post_shift",
        "folds", "explored", "corrections", "byte_identical",
        "no_telemetry_noop",
    ],
    "properties": {
        "schema": {"const": SCHEMA_ID},
        "rev": {"type": "string"},
        "gpu": {"type": "string"},
        "gpu_shift": {"type": "string"},
        "seed": {"type": "integer"},
        "candidates": {"type": "array", "items": {"type": "string"}},
        "decisions": {"type": "integer"},
        "shift_at": {"type": "integer"},
        "epsilon": {"type": "number"},
        "min_window": {"type": "integer"},
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
        "pre_shift": {
            "type": "object",
            "required": ["static_regret_s", "adaptive_regret_s"],
            "properties": {
                "static_regret_s": {"type": "number"},
                "adaptive_regret_s": {"type": "number"},
            },
        },
        "post_shift": {
            "type": "object",
            "required": ["static_regret_s", "adaptive_regret_s", "ratio"],
            "properties": {
                "static_regret_s": {"type": "number"},
                "adaptive_regret_s": {"type": "number"},
                #: null when adaptive post-shift regret is exactly zero
                "ratio": {"type": ["number", "null"]},
            },
        },
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
    gpu_shift: str,
    seed: int,
    candidates: tuple[str, ...] = CANDIDATES,
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
    for phase, name in zip(_SHIFT_PHASES, (gpu, gpu_shift)):
        spec = get_spec(name)
        times[phase] = {
            algo: topk(data, cell.k, algo=algo, device=spec, seed=seed).time
            for algo in candidates
        }
    static_algo = rank_algorithms(
        n=cell.n,
        k=cell.k,
        batch=cell.batch,
        spec=get_spec(gpu),
        candidates=candidates,
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
    epsilon: float,
    min_window: int,
    candidates: tuple[str, ...],
) -> dict:
    """Run the static and adaptive decision streams against the tables."""
    from ..device import get_spec
    from ..perf.adaptive import AdaptiveDispatcher, CorrectionStore

    belief = get_spec(gpu)
    store = CorrectionStore(min_window=min_window)
    dispatcher = AdaptiveDispatcher(
        corrections=store,
        epsilon=epsilon,
        seed=seed,
        candidates=candidates,
    )
    # the no-op control: same construction, never fed — must reproduce
    # the static stream exactly (what "telemetry off" degrades to)
    control = AdaptiveDispatcher(
        corrections=CorrectionStore(min_window=min_window),
        epsilon=epsilon,
        seed=seed,
        candidates=candidates,
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
    gpu_shift: str,
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
            for name in (gpu, gpu_shift):
                spec = get_spec(name)
                first = topk(entry["data"], cell.k, algo=algo, device=spec, seed=seed)
                again = topk(entry["data"], cell.k, algo=algo, device=spec, seed=seed)
                if (
                    first.values.tobytes() != again.values.tobytes()
                    or first.indices.tobytes() != again.indices.tobytes()
                ):
                    return False
    return True


def collect_snapshot(
    regimes: tuple[AdaptCell, ...] = DEFAULT_REGIMES,
    *,
    gpu: str = "A100",
    gpu_shift: str = "V100",
    seed: int = 0,
    decisions: int = 240,
    shift_at: int | None = None,
    epsilon: float = 0.1,
    min_window: int = 4,
    candidates: tuple[str, ...] = CANDIDATES,
    rev: str | None = None,
    progress=None,
) -> dict:
    """Measure, replay, and assemble one ``repro.bench.adapt/v1`` payload."""
    if gpu_shift == gpu:
        raise ValueError("gpu_shift must differ from gpu — no shift, no bench")
    if shift_at is None:
        shift_at = decisions // 2
    if not 0 < shift_at < decisions:
        raise ValueError(f"shift_at must be inside (0, {decisions}), got {shift_at}")
    measured = []
    for cell in regimes:
        entry = measure_regime(
            cell, gpu=gpu, gpu_shift=gpu_shift, seed=seed, candidates=candidates
        )
        measured.append(entry)
        if progress is not None:
            progress(cell, entry)
    replay = _replay(
        measured,
        gpu=gpu,
        seed=seed,
        decisions=decisions,
        shift_at=shift_at,
        epsilon=epsilon,
        min_window=min_window,
        candidates=candidates,
    )
    byte_identical = _byte_identity(
        measured, replay["chosen"], gpu=gpu, gpu_shift=gpu_shift, seed=seed
    )
    regret = replay["regret"]
    static_post = regret["static"]["post"]
    adaptive_post = regret["adaptive"]["post"]
    ratio = static_post / adaptive_post if adaptive_post > 0 else None
    store = replay["store"]
    snapshot = {
        "schema": SCHEMA_ID,
        "rev": rev if rev is not None else git_revision(short=True) or "local",
        "gpu": gpu,
        "gpu_shift": gpu_shift,
        "seed": int(seed),
        "candidates": list(candidates),
        "decisions": int(decisions),
        "shift_at": int(shift_at),
        "epsilon": float(epsilon),
        "min_window": int(min_window),
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
        "static_regret_s": regret["static"]["pre"] + static_post,
        "adaptive_regret_s": regret["adaptive"]["pre"] + adaptive_post,
        "pre_shift": {
            "static_regret_s": regret["static"]["pre"],
            "adaptive_regret_s": regret["adaptive"]["pre"],
        },
        "post_shift": {
            "static_regret_s": static_post,
            "adaptive_regret_s": adaptive_post,
            "ratio": ratio,
        },
        "folds": store.folds,
        "explored": replay["dispatcher"].explored,
        "corrections": len(store),
        "byte_identical": byte_identical,
        "no_telemetry_noop": replay["noop"],
    }
    validate(snapshot, SNAPSHOT_SCHEMA)
    return snapshot


# --------------------------------------------------------------------------- #
# gating and rendering
# --------------------------------------------------------------------------- #
def gate_adapt(snapshot: dict, *, min_ratio: float = ACCEPT_RATIO) -> list[str]:
    """Every gate violation in ``snapshot`` (empty list = gate passes)."""
    failures: list[str] = []
    post = snapshot["post_shift"]
    if post["static_regret_s"] <= 0:
        failures.append(
            "static dispatch accumulated zero post-shift regret — the "
            "pinned regimes no longer exercise the shift; re-pin them"
        )
    elif post["ratio"] is not None and post["ratio"] < min_ratio:
        failures.append(
            f"post-shift regret ratio {post['ratio']:.2f}x below the "
            f">= {min_ratio:g}x acceptance bar (static "
            f"{post['static_regret_s']:.3e}s vs adaptive "
            f"{post['adaptive_regret_s']:.3e}s)"
        )
    if not snapshot["folds"]:
        failures.append("no correction ever folded — the learner never engaged")
    if not snapshot["byte_identical"]:
        failures.append(
            "byte-identity violated: a chosen (regime, algorithm) pair did "
            "not reproduce its results exactly on re-run"
        )
    if not snapshot["no_telemetry_noop"]:
        failures.append(
            "no-telemetry control deviated from static dispatch — "
            "adaptation is not a strict no-op without feedback"
        )
    return failures


def render_adapt_report(snapshot: dict) -> str:
    """The regret tables ``repro-topk adapt-bench`` prints."""
    out = [
        f"adapt-bench on {snapshot['gpu']} -> {snapshot['gpu_shift']} "
        f"(rev {snapshot['rev']}, seed {snapshot['seed']}): "
        f"{snapshot['decisions']} decisions, shift at {snapshot['shift_at']}"
    ]
    rows = []
    for r in snapshot["regimes"]:
        pre, post = r["times_pre_s"], r["times_post_s"]
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
    pre, post = snapshot["pre_shift"], snapshot["post_shift"]
    out.append(
        f"cumulative regret pre-shift:  static {format_time(pre['static_regret_s'])}"
        f"  adaptive {format_time(pre['adaptive_regret_s'])}"
    )
    ratio = post["ratio"]
    out.append(
        f"cumulative regret post-shift: static {format_time(post['static_regret_s'])}"
        f"  adaptive {format_time(post['adaptive_regret_s'])}"
        f"  ratio {'inf' if ratio is None else f'{ratio:.2f}x'}"
        f" (gate >= {ACCEPT_RATIO:g}x)"
    )
    out.append(
        f"learner: folds={snapshot['folds']} corrections={snapshot['corrections']} "
        f"explored={snapshot['explored']}  "
        f"byte_identical={'yes' if snapshot['byte_identical'] else 'NO'}  "
        f"no_telemetry_noop={'yes' if snapshot['no_telemetry_noop'] else 'NO'}"
    )
    return "\n".join(out)
