"""Chaos suite for the deterministic fault-injection layer.

Pins the PR's acceptance criteria: with faults injected the service
*never* raises and gives every request exactly one terminal outcome;
non-degraded served results are byte-identical to a fault-free run;
degraded results carry the documented recall bound; an empty fault plan
is behaviourally invisible (outputs byte-identical to no plan at all);
and the reference chaos scenario — 5% shard failures + 5% stragglers at
200 QPS — stays at >= 99% availability.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import topk
from repro.faults import (
    FAULT_KINDS,
    NODE_FAULT_KINDS,
    SERVE_FAULT_KINDS,
    CircuitBreaker,
    FaultInjector,
    FaultPlan,
    FaultRule,
    HedgePolicy,
    RetryPolicy,
    fault_draw,
    recall_bound,
    validate_fault_plan,
)
from repro.obs.schema import SchemaError
from repro.serve import (
    AllShardsLost,
    LoadSpec,
    OUTCOMES,
    Request,
    ServeCache,
    ServeConfig,
    TopKService,
    build_requests,
    run_serve_bench,
    sharded_topk,
)

REFERENCE_PLAN = Path(__file__).parent.parent / "benchmarks/fault_plans/reference.json"


def unique_data(n: int, dtype: str = "float32", seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.permutation(np.arange(n)).astype(dtype)


# --------------------------------------------------------------------------- #
# plans: validation + JSON round trip
# --------------------------------------------------------------------------- #
class TestFaultPlan:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            FaultRule(kind="meteor_strike", rate=0.1)
        with pytest.raises(ValueError):
            FaultRule(kind="straggler", rate=1.5)
        with pytest.raises(ValueError):
            FaultRule(kind="straggler", rate=0.1, factor=0.5)
        # a misspelt site would never fire: rejected, naming the sites
        with pytest.raises(ValueError, match="serve.shard"):
            FaultRule(kind="shard_failure", rate=1.0, site="serve.shards")
        with pytest.raises(ValueError, match="cluster.node"):
            FaultPlan.from_payload(
                {
                    "schema": "repro.faults.plan/v1",
                    "seed": 0,
                    "rules": [
                        {"kind": "worker_crash", "rate": 0.5, "site": "sevre.batch"}
                    ],
                }
            )
        # "*" and any prefix of a real site stay valid
        for site in ("*", "serve", "serve.batch", "cluster.node"):
            FaultRule(kind="worker_crash", rate=0.1, site=site)

    def test_committed_plans_load(self):
        root = Path(__file__).parent.parent / "benchmarks"
        paths = sorted((root / "fault_plans").glob("*.json"))
        paths.append(root / "e2e" / "cluster_chaos_plan.json")
        for path in paths:
            assert FaultPlan.load(path).rules, path

    def test_empty_detection(self):
        assert FaultPlan().empty
        assert FaultPlan(rules=[FaultRule(kind="straggler", rate=0.0)]).empty
        assert not FaultPlan(rules=[FaultRule(kind="straggler", rate=0.1)]).empty

    def test_rules_normalised_to_tuple_and_hashable(self):
        plan = FaultPlan(seed=1, rules=[FaultRule(kind="timeout", rate=0.1)])
        assert isinstance(plan.rules, tuple)
        hash(plan)  # picklable/hashable across multiprocessing

    def test_json_round_trip(self, tmp_path):
        plan = FaultPlan(
            seed=9,
            rules=(
                FaultRule(kind="shard_failure", rate=0.05),
                FaultRule(kind="straggler", rate=0.1, site="serve.shard",
                          factor=6.0, sticky=True),
            ),
        )
        path = plan.save(tmp_path / "plan.json")
        assert FaultPlan.load(path) == plan

    def test_schema_rejects_garbage(self):
        with pytest.raises(SchemaError):
            validate_fault_plan({"schema": "repro.faults.plan/v1", "seed": 0})
        with pytest.raises(SchemaError):
            validate_fault_plan(
                {
                    "schema": "repro.faults.plan/v1",
                    "seed": 0,
                    "rules": [{"kind": "nope", "rate": 0.1}],
                }
            )

    def test_reference_plan_is_valid(self):
        payload = json.loads(REFERENCE_PLAN.read_text())
        validate_fault_plan(payload)
        plan = FaultPlan.from_payload(payload)
        kinds = {rule.kind for rule in plan.rules}
        # the reference exercises every single-node kind; the node_* kinds
        # live in the cluster plan (benchmarks/fault_plans/cluster.json)
        assert kinds == set(SERVE_FAULT_KINDS)


# --------------------------------------------------------------------------- #
# injector: pure-hash draws
# --------------------------------------------------------------------------- #
class TestInjector:
    def test_draw_is_deterministic_and_uniform_ish(self):
        a = fault_draw(1, "straggler", "serve.shard", "shard=0")
        assert a == fault_draw(1, "straggler", "serve.shard", "shard=0")
        assert 0.0 <= a < 1.0
        draws = [
            fault_draw(1, "straggler", "serve.shard", f"shard={i}")
            for i in range(400)
        ]
        assert 0.3 < float(np.mean(draws)) < 0.7

    def test_draw_sensitive_to_every_argument(self):
        base = fault_draw(1, "straggler", "serve.shard", "shard=0")
        assert base != fault_draw(2, "straggler", "serve.shard", "shard=0")
        assert base != fault_draw(1, "timeout", "serve.shard", "shard=0")
        assert base != fault_draw(1, "straggler", "serve.batch", "shard=0")
        assert base != fault_draw(1, "straggler", "serve.shard", "shard=1")

    def test_decide_respects_rate_and_site(self):
        plan = FaultPlan(
            seed=5,
            rules=(FaultRule(kind="straggler", rate=1.0, site="serve.shard"),),
        )
        inj = plan.injector()
        assert inj.decide("straggler", "serve.shard", "x") is not None
        assert inj.decide("straggler", "serve.batch", "x") is None  # wrong site
        assert inj.decide("timeout", "serve.shard", "x") is None  # wrong kind
        assert FaultPlan(seed=5).injector().decide(
            "straggler", "serve.shard", "x"
        ) is None  # no rules

    def test_transient_vs_sticky_retries(self):
        transient = FaultPlan(
            seed=0, rules=(FaultRule(kind="worker_crash", rate=0.5),)
        ).injector()
        flips = {
            transient.decide("worker_crash", "serve.batch", "p", f"attempt={i}")
            is not None
            for i in range(16)
        }
        assert flips == {True, False}  # fresh draw per attempt

        sticky = FaultPlan(
            seed=0,
            rules=(FaultRule(kind="worker_crash", rate=0.5, sticky=True),),
        ).injector()
        outcomes = {
            sticky.decide("worker_crash", "serve.batch", "p", f"attempt={i}")
            is not None
            for i in range(16)
        }
        assert len(outcomes) == 1  # attempt number stripped: one fate

    def test_order_independence(self):
        plan = FaultPlan(seed=3, rules=(FaultRule(kind="straggler", rate=0.5),))
        a, b = plan.injector(), plan.injector()
        keys = [f"shard={i}" for i in range(32)]
        fired_fwd = [a.decide("straggler", "serve.shard", k) is not None for k in keys]
        fired_rev = [
            b.decide("straggler", "serve.shard", k) is not None
            for k in reversed(keys)
        ]
        assert fired_fwd == fired_rev[::-1]

    def test_event_log_and_counts(self):
        plan = FaultPlan(
            seed=5, rules=(FaultRule(kind="straggler", rate=1.0, factor=7.0),)
        )
        inj = plan.injector()
        event = inj.decide("straggler", "serve.shard", "shard=3")
        assert event.factor == 7.0
        assert inj.fault_counts() == {"straggler": 1}
        assert inj.events[0].kind == "straggler"
        assert isinstance(inj, FaultInjector)


# --------------------------------------------------------------------------- #
# node-level kinds (the cluster router's seam)
# --------------------------------------------------------------------------- #
class TestNodeFaultKinds:
    def test_kind_registry_split(self):
        # the serve kinds fire inside a node, the node kinds fire at the
        # cluster router; together they are the full registry
        assert set(NODE_FAULT_KINDS) == {"node_crash", "node_partition"}
        assert set(SERVE_FAULT_KINDS) | set(NODE_FAULT_KINDS) == set(
            FAULT_KINDS
        )
        assert not set(SERVE_FAULT_KINDS) & set(NODE_FAULT_KINDS)

    @pytest.mark.parametrize("kind", NODE_FAULT_KINDS)
    def test_draws_are_key_independent_pure_hashes(self, kind):
        # same purity contract as every other kind: a draw depends only
        # on (seed, kind, site, key) — not on any other draw having
        # happened, so workers=1 == workers=N holds cluster-wide
        base = fault_draw(1, kind, "cluster.node", "node=0")
        assert base == fault_draw(1, kind, "cluster.node", "node=0")
        assert 0.0 <= base < 1.0
        assert base != fault_draw(2, kind, "cluster.node", "node=0")
        assert base != fault_draw(1, kind, "cluster.node", "node=1")
        assert base != fault_draw(1, kind, "serve.shard", "node=0")
        other = [k for k in NODE_FAULT_KINDS if k != kind][0]
        assert base != fault_draw(1, other, "cluster.node", "node=0")

    @pytest.mark.parametrize("kind", NODE_FAULT_KINDS)
    def test_sticky_ignores_the_epoch(self, kind):
        # sticky = the node left for good: the epoch (an attempt= key
        # part) is stripped, one fate per node
        sticky = FaultPlan(
            seed=0,
            rules=(
                FaultRule(kind=kind, rate=0.5, site="cluster.node", sticky=True),
            ),
        ).injector()
        fates = {
            sticky.decide(
                kind, "cluster.node", "node=3", f"attempt=epoch:{epoch}"
            )
            is not None
            for epoch in range(16)
        }
        assert len(fates) == 1

    @pytest.mark.parametrize("kind", NODE_FAULT_KINDS)
    def test_transient_redraws_per_epoch(self, kind):
        transient = FaultPlan(
            seed=0,
            rules=(FaultRule(kind=kind, rate=0.5, site="cluster.node"),),
        ).injector()
        fates = {
            transient.decide(
                kind, "cluster.node", "node=3", f"attempt=epoch:{epoch}"
            )
            is not None
            for epoch in range(16)
        }
        assert fates == {True, False}  # leave/rejoin churn

    def test_cluster_plan_round_trips_and_validates(self, tmp_path):
        plan = FaultPlan(
            seed=9,
            rules=(
                FaultRule(
                    kind="node_crash", rate=0.3, site="cluster.node", sticky=True
                ),
                FaultRule(
                    kind="node_partition", rate=0.1, site="cluster.node"
                ),
            ),
        )
        path = plan.save(tmp_path / "cluster_plan.json")
        payload = json.loads(path.read_text())
        validate_fault_plan(payload)
        assert FaultPlan.load(path) == plan


# --------------------------------------------------------------------------- #
# recovery policies
# --------------------------------------------------------------------------- #
class TestPolicies:
    def test_retry_policy(self):
        policy = RetryPolicy(retries=2, backoff_base_s=0.1, backoff_cap_s=0.15)
        assert policy.attempts == 3
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(1) == pytest.approx(0.15)  # capped
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)

    def test_hedge_threshold_and_noop_identity(self):
        hedge = HedgePolicy(quantile=0.5, factor=3.0)
        times = [1.0, 1.0, 1.0, 10.0]
        thr = hedge.threshold(times)
        assert thr == pytest.approx(3.0)
        # the hedged straggler races a clean duplicate from the threshold
        assert min(10.0, thr + 1.0) == pytest.approx(4.0)
        # and a healthy shard is provably untouched: min(t, thr + t) == t
        for t in times:
            assert min(t, thr + t) == t

    def test_circuit_breaker_lifecycle(self):
        breaker = CircuitBreaker(threshold=2, cooldown_s=1.0)
        assert breaker.state == "closed" and breaker.allow(0.0)
        assert not breaker.record_failure(0.0)
        assert breaker.record_failure(0.1)  # second failure trips it
        assert breaker.state == "open" and breaker.trips == 1
        assert not breaker.allow(0.5)  # cooling down
        assert breaker.allow(1.2)  # half-open probe allowed
        assert breaker.record_failure(1.2)  # probe fails: re-open
        assert not breaker.allow(1.3)
        assert breaker.allow(2.3)
        breaker.record_success()  # probe succeeds: closed again
        assert breaker.state == "closed" and breaker.allow(2.4)

    def test_recall_bound_contract(self):
        coverage, bound = recall_bound(64, 1000, 0)
        assert coverage == 1.0 and 0.0 < bound < 1.0
        coverage, bound = recall_bound(64, 1000, 250)
        assert coverage == pytest.approx(0.75)
        assert 0.0 <= bound < coverage  # Hoeffding slack below coverage
        # losing everything floors at zero
        assert recall_bound(4, 100, 100)[1] == 0.0
        with pytest.raises(ValueError):
            recall_bound(64, 100, 101)


# --------------------------------------------------------------------------- #
# sharder under faults
# --------------------------------------------------------------------------- #
class TestShardedFaults:
    def test_transient_failures_recovered_exactly(self):
        data = unique_data(4096)
        clean = sharded_topk(data, 64, shards=4, algo="sort")
        plan = FaultPlan(
            seed=1, rules=(FaultRule(kind="shard_failure", rate=0.4),)
        )
        injected = sharded_topk(
            data, 64, shards=4, algo="sort", injector=plan.injector()
        )
        # retries recover every transient failure: results identical
        assert not injected.degraded
        assert np.array_equal(clean.values, injected.values)
        assert np.array_equal(clean.indices, injected.indices)
        assert injected.meta["retries"] >= 1
        # failed attempts + backoff make the run slower, never faster
        assert injected.time > clean.time

    def test_sticky_failure_degrades_with_bound(self):
        data = unique_data(4096)
        plan = FaultPlan(
            seed=11,
            rules=(FaultRule(kind="shard_failure", rate=0.3, sticky=True),),
        )
        result = sharded_topk(
            data, 64, shards=4, algo="sort", injector=plan.injector()
        )
        assert result.degraded and result.meta["shards_lost"] >= 1
        assert 0.0 <= result.recall_bound <= result.meta["coverage"] <= 1.0
        assert "[degraded" in result.algo
        # the answer is the exact top-k of the surviving shards: every
        # returned index must avoid the lost ranges and every value match
        lost = set()
        from repro.serve.sharder import shard_bounds

        bounds = shard_bounds(4096, 4)
        for shard in result.meta["lost_shards"]:
            lost.update(range(*bounds[shard]))
        assert not lost.intersection(result.indices.tolist())
        assert np.array_equal(data[result.indices], result.values)
        # empirical recall honours the reported bound (unique data)
        true_topk = set(np.argsort(data)[:64].tolist())
        recall = len(true_topk.intersection(result.indices.tolist())) / 64
        assert recall >= result.recall_bound

    def test_straggler_inflates_time_only(self):
        data = unique_data(4096)
        clean = sharded_topk(data, 64, shards=4, algo="sort")
        plan = FaultPlan(
            seed=1, rules=(FaultRule(kind="straggler", rate=0.5, factor=50.0),)
        )
        slow = sharded_topk(
            data, 64, shards=4, algo="sort", injector=plan.injector()
        )
        assert np.array_equal(clean.values, slow.values)
        assert slow.time > clean.time

    def test_hedging_caps_straggler_inflation(self):
        data = unique_data(4096)
        # seed 8 inflates exactly one of the four shards, so the sibling
        # quantile stays clean and the hedge threshold can bite
        plan = FaultPlan(
            seed=8, rules=(FaultRule(kind="straggler", rate=0.5, factor=50.0),)
        )
        unhedged = sharded_topk(
            data, 64, shards=4, algo="sort", injector=plan.injector(),
            hedge=HedgePolicy(quantile=0.5, factor=1e9),  # never hedge
        )
        hedged = sharded_topk(
            data, 64, shards=4, algo="sort", injector=plan.injector(),
            hedge=HedgePolicy(quantile=0.5, factor=2.0),
        )
        assert hedged.meta["hedges"] >= 1
        assert hedged.time < unhedged.time
        assert np.array_equal(hedged.values, unhedged.values)

    def test_all_shards_lost_raises(self):
        data = unique_data(1024)
        plan = FaultPlan(
            seed=0,
            rules=(FaultRule(kind="shard_failure", rate=1.0, sticky=True),),
        )
        with pytest.raises(AllShardsLost):
            sharded_topk(data, 16, shards=4, algo="sort",
                         injector=plan.injector())

    def test_no_injector_seams_are_noops(self):
        data = unique_data(4096)
        a = sharded_topk(data, 64, shards=4, algo="sort")
        b = sharded_topk(data, 64, shards=4, algo="sort")
        # fault seams contribute nothing: identical deterministic runs, and
        # meta carries only the launch-regime flag plus the always-present
        # timing breakdown — no fault accounting keys
        assert a.time == b.time
        assert a.meta == b.meta
        assert set(a.meta) == {"batched_execution", "shard_times_s", "merge_s"}
        assert a.meta["batched_execution"] is False
        assert set(a.meta["shard_times_s"]) == {0, 1, 2, 3}
        assert np.array_equal(a.values, b.values)


# --------------------------------------------------------------------------- #
# cache corruption + breaker integration
# --------------------------------------------------------------------------- #
class TestCacheCorruption:
    def test_checksum_detects_and_repairs(self, rng):
        cache = ServeCache()
        data = rng.standard_normal(256).astype(np.float32)
        result = topk(data, 8, algo="sort")
        cache.put_result(data, 8, False, result.values, result.indices)
        assert cache.get_result(data, 8, False) is not None
        assert cache.corrupt_result(data, 8, False)
        assert cache.get_result(data, 8, False) is None  # detected, evicted
        assert cache.corruptions == 1
        assert cache.stats()["result_corruptions"] == 1
        # repaired: a fresh put serves cleanly again
        cache.put_result(data, 8, False, result.values, result.indices)
        values, _, _ = cache.get_result(data, 8, False)
        assert np.array_equal(values, result.values)

    def test_corrupt_missing_entry_is_noop(self, rng):
        cache = ServeCache()
        assert not cache.corrupt_result(
            rng.standard_normal(64).astype(np.float32), 4, False
        )
        assert cache.corruptions == 0

    def test_service_never_serves_corrupt_results(self):
        # every cache read corrupted: all requests recomputed, all correct
        plan = FaultPlan(
            seed=6, rules=(FaultRule(kind="cache_corruption", rate=1.0),)
        )
        config = ServeConfig(algo="sort", max_batch=4, max_delay_s=0.0,
                             faults=plan, breaker_threshold=3)
        service = TopKService(config)
        data = unique_data(256)
        requests = [
            # the same payload five times: a cache workout
            Request(rid=i, data=data, k=8, largest=False, arrival_s=i * 0.01)
            for i in range(5)
        ]
        stats = service.run(requests)
        assert stats.served == 5 and stats.failed == 0
        expected = topk(data, 8, algo="sort")
        for outcome in service.outcomes:
            assert np.array_equal(outcome.values, expected.values)
        # corruption was detected (not served) and ultimately tripped the
        # breaker into bypassing the cache
        assert service.cache.corruptions >= 1
        assert stats.faults.get("cache_corruption", 0) >= 1
        assert service.breaker.trips >= 1 and stats.breaker_trips >= 1


# --------------------------------------------------------------------------- #
# the service under chaos: the tentpole property tests
# --------------------------------------------------------------------------- #
CHAOS_SPEC = LoadSpec(
    qps=400.0, duration_s=0.25, n=4096, k=32, payload_pool=48, seed=11
)
CHAOS_CONFIG = dict(
    algo="sort", max_batch=8, max_delay_s=0.005, shards=4, shard_min_n=1024
)
_baseline_cache: dict = {}


def _baseline_outcomes() -> dict:
    """Fault-free reference outcomes per rid (computed once)."""
    if "outcomes" not in _baseline_cache:
        service = TopKService(ServeConfig(**CHAOS_CONFIG))
        service.run(build_requests(CHAOS_SPEC))
        _baseline_cache["outcomes"] = {o.rid: o for o in service.outcomes}
    return _baseline_cache["outcomes"]


class TestServiceChaos:
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        shard_rate=st.floats(min_value=0.0, max_value=0.3),
        straggler_rate=st.floats(min_value=0.0, max_value=0.3),
        crash_rate=st.floats(min_value=0.0, max_value=0.15),
        corrupt_rate=st.floats(min_value=0.0, max_value=0.5),
        timeout_rate=st.floats(min_value=0.0, max_value=0.15),
        sticky=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_chaos_invariants(
        self, seed, shard_rate, straggler_rate, crash_rate, corrupt_rate,
        timeout_rate, sticky,
    ):
        """Under any mix of faults: the service never raises, every request
        gets exactly one terminal outcome, and every non-degraded served
        result is byte-identical to the fault-free run."""
        plan = FaultPlan(
            seed=seed,
            rules=(
                FaultRule(kind="shard_failure", rate=shard_rate, sticky=sticky),
                FaultRule(kind="straggler", rate=straggler_rate, factor=8.0),
                FaultRule(kind="worker_crash", rate=crash_rate,
                          site="serve.batch"),
                FaultRule(kind="cache_corruption", rate=corrupt_rate),
                FaultRule(kind="timeout", rate=timeout_rate, factor=3.0,
                          site="serve.batch"),
            ),
        )
        requests = build_requests(CHAOS_SPEC)
        service = TopKService(ServeConfig(**CHAOS_CONFIG, faults=plan))
        stats = service.run(requests)  # must not raise

        # exactly one terminal outcome per request
        rids = sorted(o.rid for o in service.outcomes)
        assert rids == [r.rid for r in requests]
        assert stats.total == len(requests)
        assert all(o.status in OUTCOMES for o in service.outcomes)

        baseline = _baseline_outcomes()
        for outcome in service.outcomes:
            if outcome.status == "served":
                ref = baseline[outcome.rid]
                assert np.array_equal(outcome.values, ref.values)
                assert np.array_equal(outcome.indices, ref.indices)
            elif outcome.status == "degraded":
                assert outcome.recall_bound is not None
                assert 0.0 <= outcome.recall_bound <= 1.0
                assert outcome.values is not None
            elif outcome.status == "failed":
                assert outcome.error
                assert outcome.values is None

    def test_replay_determinism(self):
        """The same plan replays the same chaos, outcome for outcome."""
        plan = FaultPlan(
            seed=77,
            rules=(
                FaultRule(kind="shard_failure", rate=0.15, sticky=True),
                FaultRule(kind="worker_crash", rate=0.1, site="serve.batch"),
            ),
        )
        runs = []
        for _ in range(2):
            service = TopKService(ServeConfig(**CHAOS_CONFIG, faults=plan))
            service.run(build_requests(CHAOS_SPEC))
            runs.append(service)
        a, b = runs
        assert [o.status for o in a.outcomes] == [o.status for o in b.outcomes]
        assert a.stats.faults == b.stats.faults
        for x, y in zip(a.outcomes, b.outcomes):
            assert x.rid == y.rid and x.finish_s == y.finish_s
            if x.values is not None:
                assert np.array_equal(x.values, y.values)

    def test_empty_plan_is_byte_identical_to_no_plan(self):
        """An installed-but-empty injector must change nothing at all."""
        reports = []
        services = []
        for faults in (None, FaultPlan(seed=123)):
            report, service = run_serve_bench(
                CHAOS_SPEC, ServeConfig(**CHAOS_CONFIG, faults=faults)
            )
            reports.append(report)
            services.append(service)
        assert reports[0].format() == reports[1].format()
        assert reports[0].stats.latencies_s == reports[1].stats.latencies_s
        for a, b in zip(services[0].outcomes, services[1].outcomes):
            assert a.rid == b.rid and a.status == b.status
            assert a.finish_s == b.finish_s
            if a.values is not None:
                assert np.array_equal(a.values, b.values)
                assert np.array_equal(a.indices, b.indices)

    def test_acceptance_availability_under_reference_chaos(self):
        """PR acceptance: 5% shard failures + 5% stragglers at 200 QPS keep
        availability >= 99% with zero unhandled exceptions."""
        plan = FaultPlan.load(REFERENCE_PLAN)
        report, service = run_serve_bench(
            LoadSpec(qps=200.0, duration_s=2.0, seed=0),
            ServeConfig(shards=4, faults=plan),
        )
        stats = report.stats
        assert stats.total == stats.served + stats.degraded + stats.shed + \
            stats.timeout + stats.failed
        assert stats.availability >= 0.99
        # chaos actually happened — this is not a vacuous pass
        assert sum(stats.faults.values()) >= 1
        text = report.format()
        assert "availability" in text and "faults:" in text

    def test_degraded_outcomes_not_cached(self):
        """A degraded answer must never be served from the result cache."""
        plan = FaultPlan(
            seed=4,
            rules=(FaultRule(kind="shard_failure", rate=0.9, sticky=True),),
        )
        config = ServeConfig(algo="sort", max_batch=1, max_delay_s=0.0,
                             shards=4, shard_min_n=256, faults=plan)
        service = TopKService(config)
        data = unique_data(2048)
        service.run([
            Request(rid=0, data=data, k=16, largest=False, arrival_s=0.0),
            Request(rid=1, data=data, k=16, largest=False, arrival_s=0.5),
        ])
        degraded = [o for o in service.outcomes if o.status == "degraded"]
        if degraded:  # high rate makes this near-certain; never from cache
            assert not any(o.cache_hit for o in degraded)
            assert service.stats.cache["result_hits"] == 0
