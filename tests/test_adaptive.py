"""Online adaptation: the drift -> correction -> dispatch round trip.

Pins the PR-10 control loop end to end:

* the windowed fold controller (gain grows while the model stays wrong,
  resets once a fold improves on the best seen residual);
* power-of-two regime bucketing and correction isolation across regimes;
* the plan-cache staleness fix — a folded correction invalidates exactly
  the cached plans of the regime it changed, no others;
* persistence (``repro.perf.corrections/v1``): a saved and reloaded
  store reproduces byte-identical dispatch decisions;
* pure seeded exploration draws and the focused arm pool (hopeless arms
  are never explored);
* serve-layer determinism: ``workers=1`` and ``workers=N`` produce
  identical outcomes, adaptation counters and correction payloads, and
  with telemetry off the whole adaptive path is a strict no-op.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.device import get_spec
from repro.obs import metrics_session
from repro.obs.schema import validate
from repro.perf.adaptive import (
    CORRECTIONS_SCHEMA,
    AdaptiveDispatcher,
    CorrectionStore,
    Regime,
    explore_draw,
)
from repro.perf.costmodel import rank_algorithms
from repro.serve import Request, ServeConfig, TopKService
from repro.serve.cache import ServeCache

SPEC = get_spec("A100")


def _fill_window(store, algo, residual, *, n=4096, k=64, batch=8, count=None):
    """Feed one full window of constant residuals; returns folds seen."""
    folds = 0
    for _ in range(count if count is not None else store.min_window):
        if store.observe(
            algo, n=n, k=k, batch=batch, residual_log2=residual
        ):
            folds += 1
    return folds


class TestFoldController:
    def test_no_fold_below_min_window(self):
        store = CorrectionStore(min_window=4)
        folds = _fill_window(store, "air_topk", 2.0, count=3)
        assert folds == 0
        assert store.folds == 0
        assert store.correction_log2("air_topk", n=4096, k=64, batch=8) == 0.0

    def test_fold_applies_gain_times_mean(self):
        store = CorrectionStore(min_window=2, gain=0.5)
        folds = _fill_window(store, "air_topk", 2.0)
        assert folds == 1
        # gain 0.5 x mean 2.0 -> +1.0; the corrected prediction doubles
        assert store.correction_log2("air_topk", n=4096, k=64, batch=8) == 1.0
        assert store.apply(
            "air_topk", 1e-5, n=4096, k=64, batch=8
        ) == pytest.approx(2e-5)

    def test_gain_grows_while_wrong_and_resets_on_improvement(self):
        store = CorrectionStore(min_window=2, gain=0.5, gain_grow=1.5)
        cell = store._cell("air_topk", Regime.of(n=4096, k=64, batch=8))
        # fold 1: best was inf, any mean improves -> gain stays at base
        _fill_window(store, "air_topk", 2.0)
        assert cell.gain == 0.5
        # fold 2: same |mean| again — not an improvement -> gain grows
        _fill_window(store, "air_topk", 2.0)
        assert cell.gain == pytest.approx(0.75)
        # fold 3: still as wrong -> keeps growing (capped at gain_max)
        _fill_window(store, "air_topk", -2.0)
        assert cell.gain == pytest.approx(1.0)
        # fold 4: a smaller residual improves on best -> reset to base
        _fill_window(store, "air_topk", 0.25)
        assert cell.gain == 0.5
        assert cell.best == 0.25

    def test_converged_cell_stops_moving(self):
        store = CorrectionStore(min_window=2, gain=0.5)
        _fill_window(store, "air_topk", 2.0)
        before = store.correction_log2("air_topk", n=4096, k=64, batch=8)
        _fill_window(store, "air_topk", 0.0)
        after = store.correction_log2("air_topk", n=4096, k=64, batch=8)
        assert after == before

    def test_non_finite_residuals_are_dropped(self):
        store = CorrectionStore(min_window=1)
        assert not store.observe(
            "air_topk", n=4096, k=64, batch=8, residual_log2=math.nan
        )
        assert not store.observe(
            "air_topk", n=4096, k=64, batch=8, residual_log2=math.inf
        )
        assert store.observations == 0

    def test_len_counts_nonzero_corrections(self):
        store = CorrectionStore(min_window=2)
        assert len(store) == 0
        _fill_window(store, "air_topk", 1.0)
        assert len(store) == 1


class TestRegimeBucketing:
    def test_buckets_round_up_to_powers_of_two(self):
        regime = Regime.of(n=1000, k=17, batch=3)
        assert regime.parts[:3] == (1024, 32, 4)
        # exact powers of two are their own bucket
        assert Regime.of(n=1024, k=16, batch=4).parts[:3] == (1024, 16, 4)

    def test_correction_shared_within_bucket_isolated_across(self):
        store = CorrectionStore(min_window=1)
        store.observe("air_topk", n=4096, k=64, batch=8, residual_log2=2.0)
        # 3000 rounds to the same n-bucket (4096) -> correction applies
        assert store.correction_log2("air_topk", n=3000, k=64, batch=8) != 0.0
        # the next bucket up, another algo, another dtype: all untouched
        assert store.correction_log2("air_topk", n=8192, k=64, batch=8) == 0.0
        assert store.correction_log2("grid_select", n=4096, k=64, batch=8) == 0.0
        assert (
            store.correction_log2(
                "air_topk", n=4096, k=64, batch=8, dtype="float64"
            )
            == 0.0
        )


class TestCorrectedRanking:
    N, K, BATCH = 16384, 64, 8

    def test_no_store_returns_input_order(self):
        ranking = rank_algorithms(n=self.N, k=self.K, batch=self.BATCH, spec=SPEC)
        assert rank_algorithms(
            n=self.N, k=self.K, batch=self.BATCH, spec=SPEC, corrections=None
        ) == list(ranking)
        # an empty store changes nothing either
        assert rank_algorithms(
            n=self.N, k=self.K, batch=self.BATCH, spec=SPEC,
            corrections=CorrectionStore(),
        ) == list(ranking)

    def test_large_correction_demotes_the_winner(self):
        ranking = rank_algorithms(n=self.N, k=self.K, batch=self.BATCH, spec=SPEC)
        winner = ranking[0].algo
        store = CorrectionStore(min_window=1, gain=1.0)
        # fold "the winner is actually 2^8 slower here" into its regime
        store.observe(
            winner, n=self.N, k=self.K, batch=self.BATCH, residual_log2=8.0
        )
        adapted = rank_algorithms(
            n=self.N, k=self.K, batch=self.BATCH, spec=SPEC, corrections=store
        )
        assert adapted[0].algo != winner
        demoted = next(p for p in adapted if p.algo == winner)
        assert demoted.source == "adapted"
        assert demoted.time == pytest.approx(ranking[0].time * 2.0**8)
        # untouched entries keep their analytic source and times
        assert all(p.source != "adapted" for p in adapted if p.algo != winner)

    def test_every_dispatch_path_sees_the_same_correction(self):
        """auto, the serve plan cache and the adaptive dispatcher all
        rank through ``rank_algorithms(corrections=...)``."""
        from repro.algos.auto import AutoTopK

        winner = rank_algorithms(
            n=self.N, k=self.K, batch=self.BATCH, spec=SPEC
        )[0].algo
        store = CorrectionStore(min_window=1, gain=1.0)
        store.observe(
            winner, n=self.N, k=self.K, batch=self.BATCH, residual_log2=8.0
        )
        shape = dict(n=self.N, k=self.K, batch=self.BATCH, spec=SPEC)

        auto = AutoTopK(corrections=store)
        choice = auto.choose(**shape)
        via_auto = tuple((p.algo, p.time) for p in auto.last_ranking)
        cache = ServeCache()
        cache.corrections = store
        plan, _ = cache.make_plan(largest=True, **shape)
        decision = AdaptiveDispatcher(corrections=store).choose(
            explore=False, **shape
        )

        assert choice != winner
        assert via_auto == plan.ranking == decision.ranking
        assert choice == plan.algo == decision.algo


class TestPlanCacheEpochs:
    """The satellite-3 regression pin: folds invalidate exactly the
    plans whose regime changed."""

    def test_fold_misses_only_the_folded_regime(self):
        store = CorrectionStore(min_window=1, gain=1.0)
        cache = ServeCache(plan_capacity=16)
        cache.corrections = store
        hot = dict(n=16384, k=64, batch=8, spec=SPEC, largest=True)
        cold = dict(n=2048, k=8, batch=8, spec=SPEC, largest=True)

        plan_hot, hit = cache.make_plan(**hot)
        assert not hit
        _, hit = cache.make_plan(**hot)
        assert hit
        cache.make_plan(**cold)
        _, hit = cache.make_plan(**cold)
        assert hit

        # a fold in the hot regime bumps its epoch: the hot plan is
        # stale and misses; the cold regime's plan keeps hitting
        store.observe(
            plan_hot.algo, n=16384, k=64, batch=8, residual_log2=8.0
        )
        replan, hit = cache.make_plan(**hot)
        assert not hit
        assert replan.algo != plan_hot.algo  # the re-rank saw the fold
        _, hit = cache.make_plan(**cold)
        assert hit

    def test_epoch_counts_folds_per_regime(self):
        store = CorrectionStore(min_window=1)
        assert store.regime_epoch(n=4096, k=64, batch=8) == 0
        store.observe("air_topk", n=4096, k=64, batch=8, residual_log2=1.0)
        store.observe("grid_select", n=4096, k=64, batch=8, residual_log2=1.0)
        assert store.regime_epoch(n=4096, k=64, batch=8) == 2
        assert store.regime_epoch(n=8192, k=64, batch=8) == 0


class TestPersistence:
    def _folded_store(self):
        store = CorrectionStore(min_window=2, gain=0.5)
        _fill_window(store, "air_topk", 2.0)
        _fill_window(store, "air_topk", 2.0)
        _fill_window(store, "grid_select", -1.0, n=16384, k=256)
        # a pending (unfolded) window on another algo
        store.observe("radix_select", n=4096, k=64, batch=8, residual_log2=0.5)
        return store

    def test_payload_validates_and_roundtrips(self, tmp_path):
        store = self._folded_store()
        payload = store.to_payload()
        validate(payload, CORRECTIONS_SCHEMA)
        path = store.save(tmp_path / "corr.json")
        loaded = CorrectionStore.load(path)
        # folded corrections round-trip exactly; a pending (unfolded)
        # window persists its controller state but not its contents, so
        # its zero-log2 record drops out of the reloaded payload
        reloaded = loaded.to_payload()

        def folded(p):
            return [c for c in p["corrections"] if c["log2"] != 0.0]

        assert folded(reloaded) == folded(payload)
        assert reloaded["regime_epochs"] == payload["regime_epochs"]
        assert loaded.folds == store.folds
        assert loaded.regime_epoch(n=4096, k=64, batch=8) == store.regime_epoch(
            n=4096, k=64, batch=8
        )

    def test_loaded_store_reproduces_identical_dispatch(self, tmp_path):
        store = self._folded_store()
        path = store.save(tmp_path / "corr.json")
        a = AdaptiveDispatcher(corrections=store, epsilon=0.3, seed=7)
        b = AdaptiveDispatcher(
            corrections=CorrectionStore.load(path), epsilon=0.3, seed=7
        )
        shapes = [(4096, 64, 8), (16384, 256, 8), (2048, 8, 64)]
        for t in range(60):
            n, k, batch = shapes[t % len(shapes)]
            da = a.choose(n=n, k=k, batch=batch, spec=SPEC, site="test")
            db = b.choose(n=n, k=k, batch=batch, spec=SPEC, site="test")
            assert (da.algo, da.explored, da.ranking) == (
                db.algo,
                db.explored,
                db.ranking,
            )


class TestExploreDraw:
    def test_pure_and_deterministic(self):
        args = (7, "serve.dispatch", 4096, 64, 8, "A100", "float32", 0)
        assert explore_draw(*args) == explore_draw(*args)
        assert 0.0 <= explore_draw(*args) < 1.0

    def test_streams_are_independent(self):
        base = explore_draw(7, "site", 4096, 0)
        assert explore_draw(7, "site", 4096, 1) != base  # index
        assert explore_draw(8, "site", 4096, 0) != base  # seed
        assert explore_draw(7, "other", 4096, 0) != base  # site

    def test_draw_rate_tracks_epsilon(self):
        draws = [explore_draw(0, "rate", i) for i in range(2000)]
        rate = sum(1 for d in draws if d < 0.1) / len(draws)
        assert 0.05 < rate < 0.15


class TestFocusedExploration:
    RANKING = (("fast", 1e-5), ("near", 2e-5), ("hopeless", 1e-2))

    def test_hopeless_arms_are_never_explored(self):
        d = AdaptiveDispatcher(epsilon=0.5, explore_factor=4.0, seed=3)
        chosen = set()
        for _ in range(200):
            decision = d.decide(self.RANKING, n=4096, k=64, batch=8)
            chosen.add(decision.algo)
        assert d.explored > 0
        assert "near" in chosen  # the 2x arm is worth measuring
        assert "hopeless" not in chosen  # the 1000x arm never is

    def test_explore_false_always_exploits(self):
        d = AdaptiveDispatcher(epsilon=0.5, seed=3)
        for _ in range(50):
            decision = d.decide(
                self.RANKING, n=4096, k=64, batch=8, explore=False
            )
            assert decision.algo == "fast"
            assert not decision.explored
        assert d.explored == 0

    def test_observed_means_override_predictions(self):
        d = AdaptiveDispatcher(epsilon=0.0)
        # measurements say the predicted runner-up is actually faster
        d.observe("near", n=4096, k=64, batch=8, measured_s=1e-6, spec=SPEC)
        decision = d.decide(self.RANKING, n=4096, k=64, batch=8)
        assert decision.algo == "near"

    def test_explore_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveDispatcher(explore_factor=0.5)


def _request_stream(count: int = 48) -> list[Request]:
    """A deterministic mixed stream: hot small shapes plus shard-eligible
    large rows (those are decision-only — sharded feedback is excluded)."""
    rng = np.random.default_rng(42)
    requests = []
    for rid in range(count):
        n = 4096 if rid % 8 == 0 else 1024
        requests.append(
            Request(
                rid=rid,
                data=rng.standard_normal(n).astype(np.float32),
                k=32,
                largest=True,
                arrival_s=rid * 2e-4,
            )
        )
    return requests


def _adaptive_config(**overrides) -> ServeConfig:
    base = dict(
        algo="auto",
        adaptive=True,
        adapt_epsilon=0.3,
        adapt_min_window=2,
        adapt_seed=7,
        seed=0,
        shards=2,
        shard_min_n=4096,
        max_batch=8,
        max_delay_s=1e-3,
        result_cache=0,
    )
    base.update(overrides)
    return ServeConfig(**base)


def _outcome_fingerprint(service: TopKService) -> list[tuple]:
    rows = []
    for out in service.outcomes:
        rows.append(
            (
                out.rid,
                out.status,
                out.algo,
                out.values.tobytes() if out.values is not None else None,
                out.indices.tobytes() if out.indices is not None else None,
            )
        )
    return rows


class TestServeDeterminism:
    """ISSUE satellite 4: identical dispatch under workers=1 vs N and a
    strict no-op with telemetry off."""

    def _run(self, config):
        service = TopKService(config)
        stats = service.run(_request_stream())
        return service, stats

    def test_workers_do_not_change_adaptive_serving(self):
        with metrics_session():
            s1, stats1 = self._run(_adaptive_config(workers=1))
        with metrics_session():
            s4, stats4 = self._run(_adaptive_config(workers=4))
        assert stats1.adapt_observations > 0
        assert stats1.adapt_folds > 0
        assert (
            stats1.adapt_observations,
            stats1.adapt_folds,
            stats1.adapt_explored,
        ) == (
            stats4.adapt_observations,
            stats4.adapt_folds,
            stats4.adapt_explored,
        )
        assert _outcome_fingerprint(s1) == _outcome_fingerprint(s4)
        # the learned state itself is byte-identical
        assert (
            s1.adaptation.corrections.to_payload()
            == s4.adaptation.corrections.to_payload()
        )
        assert s1.adaptation.decisions == s4.adaptation.decisions

    def test_telemetry_off_is_a_strict_noop(self):
        # no metrics session: the adaptive path must not decide, observe
        # or fold — outcomes equal the static auto dispatch bit for bit
        s_adapt, stats = self._run(_adaptive_config())
        s_static, _ = self._run(_adaptive_config(adaptive=False))
        assert stats.adapt_observations == 0
        assert stats.adapt_folds == 0
        assert stats.adapt_explored == 0
        assert s_adapt.adaptation is not None
        assert s_adapt.adaptation.decisions == 0
        assert len(s_adapt.adaptation.corrections) == 0
        assert s_adapt.adaptation.corrections.observations == 0
        assert _outcome_fingerprint(s_adapt) == _outcome_fingerprint(s_static)

    def test_adaptation_report_totals_match_stats(self):
        from repro.obs.serve import build_serve_report

        with metrics_session():
            service, stats = self._run(_adaptive_config())
        report = build_serve_report(service.telemetry, stats)
        totals = report["totals"]
        assert totals["adapt_observations"] == stats.adapt_observations
        assert totals["adapt_folds"] == stats.adapt_folds
        assert totals["adapt_explored"] == stats.adapt_explored
        window_obs = sum(
            w.get("adapt_observations", 0) for w in report["windows"]
        )
        assert window_obs == stats.adapt_observations
