"""Online adaptation: fold live drift residuals back into the dispatcher.

The static cost model (:func:`repro.perf.costmodel.rank_algorithms`)
dispatches on analytic predictions.  Drift tracking records per-point
``log2(measured / predicted)`` residuals — this module closes the loop
(ROADMAP item 5) with two cooperating pieces:

* :class:`CorrectionStore` — windowed residuals accumulated per
  *regime* (algo, power-of-two n/k/batch buckets, GPU spec, dtype) fold
  into a multiplicative correction on top of the analytic prediction.
  The fold is controlled in the style of SNIPPETS.md's
  ``AdaptiveWeightStopper``: a minimum window before any fold,
  best-so-far residual tracking, and a multiplicative gain that grows
  while the model stays wrong (a device/distribution shift) and resets
  once a fold improves on the best seen (converged).  Every fold bumps
  a per-regime *epoch* counter — the serve plan cache keys plan entries
  on it, so a folded-in correction invalidates exactly the plans whose
  regime changed (docs/adaptive.md).

* :class:`AdaptiveDispatcher` — an epsilon-greedy bandit over the
  corrected ranking that *learns the fastest algorithm per regime*:
  exploitation scores each candidate by its exponentially-weighted
  observed mean when the regime has seen it, falling back to the
  corrected prediction; exploration is a pure seeded draw shaped
  exactly like :func:`repro.faults.injector.fault_draw` (sha256 over
  seed/site/regime/decision-index), so workers=1 == workers=N and
  replays are byte-identical.

Nothing here touches the ``lru_cache`` behind
:func:`~repro.perf.costmodel.predict_topk_time` — corrections compose
*outside* it, applied by ``rank_algorithms(corrections=...)``, the one
seam where measured data corrects the model.  Persistence is JSON
(schema ``repro.perf.corrections/v1``): a saved and reloaded store
reproduces identical dispatch decisions (pinned by
tests/test_adaptive.py).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from ..errors import InputError
from ..faults import fault_draw

SCHEMA_ID = "repro.perf.corrections/v1"

CORRECTIONS_SCHEMA = {
    "type": "object",
    "required": ["schema", "min_window", "epoch", "folds", "corrections"],
    "properties": {
        "schema": {"const": SCHEMA_ID},
        "min_window": {"type": "integer"},
        "epoch": {"type": "integer"},
        "folds": {"type": "integer"},
        "corrections": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "algo", "n_bucket", "k_bucket", "batch_bucket",
                    "gpu", "dtype", "log2", "gain", "best",
                ],
                "properties": {
                    "algo": {"type": "string"},
                    "n_bucket": {"type": "integer"},
                    "k_bucket": {"type": "integer"},
                    "batch_bucket": {"type": "integer"},
                    "gpu": {"type": "string"},
                    "dtype": {"type": "string"},
                    "log2": {"type": "number"},
                    "gain": {"type": "number"},
                    "best": {"type": "number"},
                },
            },
        },
        "regime_epochs": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "n_bucket", "k_bucket", "batch_bucket", "gpu",
                    "dtype", "epoch",
                ],
            },
        },
    },
}


def _bucket(value: int) -> int:
    """Round a positive size up to a power of two (regime bucketing)."""
    return 1 << max(0, int(value) - 1).bit_length()


def explore_draw(seed: int, site: str, *key: object) -> float:
    """The uniform [0, 1) draw behind one exploration decision: a
    :func:`repro.faults.fault_draw` of its own kind, ``"explore"``, so
    exploration and fault streams can never collide."""
    return fault_draw(seed, "explore", site, *key)


@dataclass(frozen=True)
class Regime:
    """One cell of the adaptation table: where a correction applies."""

    n_bucket: int
    k_bucket: int
    batch_bucket: int
    spec_name: str
    dtype: str

    @classmethod
    def of(
        cls,
        *,
        n: int,
        k: int,
        batch: int,
        spec_name: str = "A100",
        dtype: str = "float32",
    ) -> "Regime":
        return cls(
            n_bucket=_bucket(n),
            k_bucket=_bucket(k),
            batch_bucket=_bucket(batch),
            spec_name=spec_name,
            dtype=str(dtype),
        )

    @property
    def parts(self) -> tuple:
        return (
            self.n_bucket,
            self.k_bucket,
            self.batch_bucket,
            self.spec_name,
            self.dtype,
        )


@dataclass
class _Cell:
    """Per-(regime, algo) fold state: the correction and its controller."""

    log2: float = 0.0
    #: pending window of residuals since the last fold
    window: list = field(default_factory=list)
    #: best (smallest) |window mean| any fold has achieved — the
    #: convergence reference of the multiplicative controller
    best: float = math.inf
    #: fraction of the window-mean residual folded in per fold
    gain: float = 0.0  # set from the store's base gain on first use


class CorrectionStore:
    """Windowed drift residuals -> per-regime multiplicative corrections.

    ``observe`` accumulates one ``log2(measured / corrected-prediction)``
    residual; once a (regime, algo) cell holds ``min_window`` of them the
    window *folds*: ``gain x mean`` is added to the cell's log2
    correction and the regime's epoch ticks.  The controller mirrors the
    AdaptiveWeightStopper shape — while folds fail to improve on the
    best |mean| seen, the gain grows multiplicatively (the model is
    persistently wrong: a shift; push harder), and a fold that improves
    on it resets the gain to base (converging: stabilise).
    """

    def __init__(
        self,
        *,
        min_window: int = 8,
        gain: float = 0.5,
        gain_grow: float = 1.5,
        gain_max: float = 1.0,
    ) -> None:
        if min_window < 1:
            raise ValueError(f"min_window must be >= 1, got {min_window}")
        if not 0.0 < gain <= gain_max <= 1.0:
            raise ValueError(f"need 0 < gain <= gain_max <= 1, got {gain}, {gain_max}")
        self.min_window = int(min_window)
        self.base_gain = float(gain)
        self.gain_grow = float(gain_grow)
        self.gain_max = float(gain_max)
        self._cells: dict[tuple, _Cell] = {}
        self._regime_epochs: dict[tuple, int] = {}
        #: global epoch — total folds across every regime
        self.epoch = 0
        self.folds = 0
        self.observations = 0

    def __len__(self) -> int:
        return sum(1 for c in self._cells.values() if c.log2 != 0.0)

    def _cell(self, algo: str, regime: Regime) -> _Cell:
        key = (algo, *regime.parts)
        cell = self._cells.get(key)
        if cell is None:
            cell = _Cell(gain=self.base_gain)
            self._cells[key] = cell
        return cell

    # -- the feedback path ---------------------------------------------- #
    def observe(
        self,
        algo: str,
        *,
        n: int,
        k: int,
        batch: int,
        residual_log2: float,
        spec_name: str = "A100",
        dtype: str = "float32",
    ) -> bool:
        """Absorb one residual; returns True when it triggered a fold."""
        if not math.isfinite(residual_log2):
            return False
        regime = Regime.of(
            n=n, k=k, batch=batch, spec_name=spec_name, dtype=dtype
        )
        cell = self._cell(algo, regime)
        cell.window.append(float(residual_log2))
        self.observations += 1
        if len(cell.window) < self.min_window:
            return False
        mean = sum(cell.window) / len(cell.window)
        cell.window.clear()
        cell.log2 += cell.gain * mean
        if abs(mean) < cell.best:
            # improved on the best seen: converging — stabilise
            cell.best = abs(mean)
            cell.gain = self.base_gain
        else:
            # still as wrong as ever (a shift): fold harder next time
            cell.gain = min(self.gain_max, cell.gain * self.gain_grow)
        self.folds += 1
        self.epoch += 1
        rkey = regime.parts
        self._regime_epochs[rkey] = self._regime_epochs.get(rkey, 0) + 1
        return True

    # -- the query path -------------------------------------------------- #
    def correction_log2(
        self,
        algo: str,
        *,
        n: int,
        k: int,
        batch: int,
        spec_name: str = "A100",
        dtype: str = "float32",
    ) -> float:
        regime = Regime.of(
            n=n, k=k, batch=batch, spec_name=spec_name, dtype=dtype
        )
        cell = self._cells.get((algo, *regime.parts))
        return cell.log2 if cell is not None else 0.0

    def apply(
        self,
        algo: str,
        predicted: float,
        *,
        n: int,
        k: int,
        batch: int,
        spec_name: str = "A100",
        dtype: str = "float32",
    ) -> float:
        """The corrected prediction: ``predicted * 2**correction``."""
        c = self.correction_log2(
            algo, n=n, k=k, batch=batch, spec_name=spec_name, dtype=dtype
        )
        return predicted * (2.0 ** c) if c else predicted

    def regime_epoch(
        self,
        *,
        n: int,
        k: int,
        batch: int,
        spec_name: str = "A100",
        dtype: str = "float32",
    ) -> int:
        """Fold count of one regime — the plan-cache staleness key.

        Any fold for any algorithm in the regime bumps it, so cached
        dispatch plans keyed on it miss (and re-rank) exactly when their
        inputs changed; plans of untouched regimes keep hitting.
        """
        regime = Regime.of(
            n=n, k=k, batch=batch, spec_name=spec_name, dtype=dtype
        )
        return self._regime_epochs.get(regime.parts, 0)

    # -- persistence ------------------------------------------------------ #
    def to_payload(self) -> dict:
        corrections = [
            {
                "algo": algo,
                "n_bucket": nb,
                "k_bucket": kb,
                "batch_bucket": bb,
                "gpu": spec,
                "dtype": dtype,
                "log2": cell.log2,
                "gain": cell.gain,
                "best": cell.best if math.isfinite(cell.best) else -1.0,
            }
            for (algo, nb, kb, bb, spec, dtype), cell in sorted(
                self._cells.items()
            )
            if cell.log2 != 0.0 or len(cell.window)
        ]
        epochs = [
            {
                "n_bucket": nb,
                "k_bucket": kb,
                "batch_bucket": bb,
                "gpu": spec,
                "dtype": dtype,
                "epoch": epoch,
            }
            for (nb, kb, bb, spec, dtype), epoch in sorted(
                self._regime_epochs.items()
            )
        ]
        return {
            "schema": SCHEMA_ID,
            "min_window": self.min_window,
            "epoch": self.epoch,
            "folds": self.folds,
            "corrections": corrections,
            "regime_epochs": epochs,
        }

    def save(self, path) -> Path:
        """Validate and write the store as ``repro.perf.corrections/v1``.

        Pending (unfolded) windows are deliberately not persisted — only
        folded corrections affect dispatch, so a save/load round trip
        reproduces identical decisions.
        """
        from ..obs.schema import validate

        payload = self.to_payload()
        validate(payload, CORRECTIONS_SCHEMA)
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        return path

    @classmethod
    def load(cls, path) -> "CorrectionStore":
        """Read a saved store; a missing, non-JSON or schema-invalid file
        raises :class:`~repro.errors.InputError` naming ``path``."""
        from ..obs.schema import validate

        try:
            payload = json.loads(Path(path).read_text())
            validate(payload, CORRECTIONS_SCHEMA)
        except (OSError, ValueError) as exc:
            raise InputError(f"cannot load correction store {path}: {exc}") from exc
        store = cls(min_window=payload["min_window"])
        store.epoch = int(payload["epoch"])
        store.folds = int(payload["folds"])
        for rec in payload["corrections"]:
            cell = _Cell(
                log2=float(rec["log2"]),
                best=float(rec["best"]) if rec["best"] >= 0 else math.inf,
                gain=float(rec["gain"]),
            )
            key = (
                rec["algo"],
                int(rec["n_bucket"]),
                int(rec["k_bucket"]),
                int(rec["batch_bucket"]),
                rec["gpu"],
                rec["dtype"],
            )
            store._cells[key] = cell
        for rec in payload.get("regime_epochs", []):
            key = (
                int(rec["n_bucket"]),
                int(rec["k_bucket"]),
                int(rec["batch_bucket"]),
                rec["gpu"],
                rec["dtype"],
            )
            store._regime_epochs[key] = int(rec["epoch"])
        return store


@dataclass(frozen=True)
class DispatchDecision:
    """One adaptive dispatch: what ran and why."""

    algo: str
    #: (algo, corrected predicted seconds) pairs, fastest first
    ranking: tuple
    #: True when the epsilon draw overrode the exploit choice
    explored: bool


class AdaptiveDispatcher:
    """Epsilon-greedy online learner over the corrected ranking.

    Exploitation scores each candidate by its exponentially-weighted
    mean of observed run times in the regime (``ema_alpha``), falling
    back to the corrected prediction for candidates the regime has not
    run yet; exploration picks a drawn candidate with probability
    ``epsilon``.  Exploration is *focused*: only arms whose current
    score sits within ``explore_factor`` x the best score are eligible
    — the regimes of the paper separate mismatched algorithms by two
    orders of magnitude, and a belief can be wrong by the model's
    typical error (~2x), not by 100x, so measuring a hopeless arm only
    buys linear regret.  Both the draw and the sub-draw selecting the
    explored arm come from :func:`explore_draw`, keyed on the
    dispatcher seed, a caller site, the regime and a monotone decision
    index — pure functions of the decision stream, so identical streams
    replay byte-identically regardless of worker count.
    """

    def __init__(
        self,
        *,
        corrections: CorrectionStore | None = None,
        epsilon: float = 0.1,
        ema_alpha: float = 0.4,
        explore_factor: float = 4.0,
        seed: int = 0,
        candidates=None,
    ) -> None:
        if not 0.0 <= epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
        if not 0.0 < ema_alpha <= 1.0:
            raise ValueError(f"ema_alpha must be in (0, 1], got {ema_alpha}")
        if explore_factor < 1.0:
            raise ValueError(f"explore_factor must be >= 1, got {explore_factor}")
        self.corrections = corrections if corrections is not None else CorrectionStore()
        self.epsilon = float(epsilon)
        self.ema_alpha = float(ema_alpha)
        self.explore_factor = float(explore_factor)
        self.seed = int(seed)
        self.candidates = tuple(candidates) if candidates is not None else None
        #: (regime.parts, algo) -> (observation count, EMA of measured seconds)
        self._means: dict[tuple, tuple[int, float]] = {}
        self.decisions = 0
        self.explored = 0

    # -- deciding --------------------------------------------------------- #
    def choose(
        self,
        *,
        n: int,
        k: int,
        batch: int,
        spec=None,
        dtype: str = "float32",
        explore: bool = True,
        site: str = "perf.adaptive",
    ) -> DispatchDecision:
        """Rank, correct, and decide for one problem shape."""
        from .costmodel import rank_algorithms

        if spec is None:
            from ..device import A100

            spec = A100
        ranking = rank_algorithms(
            n=n,
            k=k,
            batch=batch,
            spec=spec,
            candidates=self.candidates,
            corrections=self.corrections,
            dtype=dtype,
        )
        return self.decide(
            tuple((p.algo, p.time) for p in ranking),
            n=n, k=k, batch=batch, spec_name=spec.name, dtype=dtype,
            explore=explore, site=site,
        )

    def decide(
        self,
        ranking,
        *,
        n: int,
        k: int,
        batch: int,
        spec_name: str = "A100",
        dtype: str = "float32",
        explore: bool = True,
        site: str = "perf.adaptive",
    ) -> DispatchDecision:
        """The bandit step over an already-corrected ``(algo, time)`` list.

        The serve layer calls this with its cached plan's ranking so the
        (memoised) cost-model work is not repeated per batch.
        """
        ranking = tuple(ranking)
        if not ranking:
            raise ValueError("ranking must not be empty")
        regime = Regime.of(
            n=n, k=k, batch=batch, spec_name=spec_name, dtype=dtype
        )
        index = self.decisions
        self.decisions += 1
        # exploit: observed regime mean where available, corrected
        # prediction otherwise; ties break by algo name via the scan order
        best_algo, best_score = None, math.inf
        scores = []
        for algo, predicted in ranking:
            seen = self._means.get((regime.parts, algo))
            score = seen[1] if seen is not None else predicted
            scores.append((algo, score))
            if score < best_score:
                best_algo, best_score = algo, score
        chosen, explored = best_algo, False
        if explore and self.epsilon > 0.0:
            draw = explore_draw(self.seed, site, *regime.parts, index)
            if draw < self.epsilon:
                # focused arm pool: only candidates the current belief
                # places within explore_factor x the best are worth a
                # measurement; re-use the accepted draw as the selector
                pool = [
                    algo
                    for algo, score in scores
                    if score <= self.explore_factor * best_score
                ] or [best_algo]
                arm = int((draw / self.epsilon) * len(pool))
                arm = min(arm, len(pool) - 1)
                chosen = pool[arm]
                explored = chosen != best_algo
                if explored:
                    self.explored += 1
        return DispatchDecision(algo=chosen, ranking=ranking, explored=explored)

    # -- learning --------------------------------------------------------- #
    def observe(
        self,
        algo: str,
        *,
        n: int,
        k: int,
        batch: int,
        measured_s: float,
        spec=None,
        dtype: str = "float32",
    ) -> bool:
        """Feed one measured run back; returns True when a fold happened.

        The residual folded into the store is measured against the
        *currently corrected* prediction, so a converged correction sees
        zero-mean residuals and stops moving; the regime's EMA updates
        regardless.
        """
        if measured_s <= 0:
            return False
        from .costmodel import predict_topk_time

        if spec is None:
            from ..device import A100

            spec = A100
        regime = Regime.of(
            n=n, k=k, batch=batch, spec_name=spec.name, dtype=dtype
        )
        key = (regime.parts, algo)
        seen = self._means.get(key)
        if seen is None:
            self._means[key] = (1, float(measured_s))
        else:
            count, ema = seen
            self._means[key] = (
                count + 1,
                ema + self.ema_alpha * (float(measured_s) - ema),
            )
        try:
            predicted = predict_topk_time(algo, n=n, k=k, batch=batch, spec=spec)
        except KeyError:
            return False
        corrected = self.corrections.apply(
            algo, predicted, n=n, k=k, batch=batch,
            spec_name=spec.name, dtype=dtype,
        )
        if corrected <= 0:
            return False
        return self.corrections.observe(
            algo,
            n=n,
            k=k,
            batch=batch,
            residual_log2=math.log2(measured_s / corrected),
            spec_name=spec.name,
            dtype=dtype,
        )
