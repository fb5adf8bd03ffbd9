"""The cluster differential layer: router output == single-shot topk.

Pins the PR's acceptance criteria: a healthy N-node cluster answer is
byte-identical to ``repro.topk()`` across every supported dtype, both
directions and every placement policy; ties never diverge beyond legal
index permutations; and approximate-tier traffic never aliases exact
traffic anywhere in the cluster (chaos properties live in
tests/test_cluster_chaos.py).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import check_topk, topk
from repro.cluster import (
    PLACEMENTS,
    ClusterConfig,
    ClusterRouter,
    ConsistentHashPlacement,
    LeastLoadedPlacement,
    LocalityAwarePlacement,
    make_placement,
    payload_key,
)
from repro.serve import Request, ServeConfig, TopKService

ALL_DTYPES = (
    "float16",
    "float32",
    "float64",
    "int16",
    "int32",
    "int64",
    "uint16",
    "uint32",
    "uint64",
)

#: large enough that the router partitions it (>= partition_min_n)
PARTITIONED_N = 1 << 15


def unique_data(n: int, dtype: str, seed: int = 7) -> np.ndarray:
    """A shuffled 0..n-1 ramp: every value unique and exactly representable."""
    rng = np.random.default_rng(seed)
    return rng.permutation(np.arange(n)).astype(dtype)


def make_router(**overrides) -> ClusterRouter:
    kwargs = dict(
        nodes=4,
        replication=2,
        placement="least-loaded",
        node_config=ServeConfig(),
    )
    kwargs.update(overrides)
    kwargs["replication"] = min(kwargs["replication"], kwargs["nodes"])
    return ClusterRouter(ClusterConfig(**kwargs))


def serve_one(router: ClusterRouter, data, k, *, largest=True, slo=None):
    router.run(
        [
            Request(
                rid=0, data=data, k=k, largest=largest, arrival_s=0.0, slo=slo
            )
        ]
    )
    return router.outcomes[0]


# --------------------------------------------------------------------------- #
# placement policies
# --------------------------------------------------------------------------- #
class TestPlacement:
    @pytest.mark.parametrize("name", PLACEMENTS)
    def test_replica_sets_are_valid(self, name):
        policy = make_placement(name, nodes=5, replication=3, seed=0)
        for key in ("a", "b", "payload:123"):
            for partition in range(5):
                replicas = policy.replica_set(key, partition)
                assert len(replicas) == 3
                assert len(set(replicas)) == 3
                assert all(0 <= r < 5 for r in replicas)

    @pytest.mark.parametrize("name", PLACEMENTS)
    def test_deterministic_per_seed(self, name):
        a = make_placement(name, nodes=4, replication=2, seed=9)
        b = make_placement(name, nodes=4, replication=2, seed=9)
        for partition in range(4):
            assert a.replica_set("key", partition) == b.replica_set(
                "key", partition
            )

    def test_consistent_hash_is_stable_under_growth(self):
        # the ring property: adding a node only remaps the keys that now
        # land on it — most preferred replicas stay put
        small = ConsistentHashPlacement(nodes=8, replication=1, seed=0)
        grown = ConsistentHashPlacement(nodes=9, replication=1, seed=0)
        keys = [f"key-{i}" for i in range(256)]
        moved = sum(
            small.replica_set(key, 0) != grown.replica_set(key, 0)
            for key in keys
        )
        # naive modulo placement would move ~8/9 of keys; the ring moves
        # roughly 1/9 — assert it stays well under half
        assert moved < len(keys) // 2

    def test_least_loaded_follows_recorded_cost(self):
        policy = LeastLoadedPlacement(nodes=3, replication=1, seed=0)
        assert policy.replica_set("x", 0)[0] == 0
        policy.record(0, 100.0)
        assert policy.replica_set("x", 0)[0] == 1
        policy.record(1, 50.0)
        assert policy.replica_set("x", 0)[0] == 2

    def test_locality_aware_packs_consecutive_partitions(self):
        policy = LocalityAwarePlacement(nodes=6, replication=2, seed=0)
        first = [policy.replica_set("payload", p)[0] for p in range(4)]
        # consecutive partitions of one payload land on consecutive nodes
        base = first[0]
        assert first == [(base + p) % 6 for p in range(4)]

    def test_rejects_bad_topologies(self):
        with pytest.raises(ValueError):
            make_placement("least-loaded", nodes=0, replication=1, seed=0)
        with pytest.raises(ValueError):
            make_placement("least-loaded", nodes=2, replication=3, seed=0)
        with pytest.raises(ValueError):
            make_placement("round-robin", nodes=2, replication=1, seed=0)


#: fixed payloads whose placement is pinned below
GOLDEN_PAYLOADS = {
    "float32-4096": lambda: np.arange(4096, dtype=np.float32) * np.float32(0.5),
    "int64-1000": lambda: (np.arange(1000, dtype=np.int64) * 7919) % 1009,
    "float64-16384": lambda: np.linspace(-1.0, 1.0, 1 << 14),
}

#: payload_key of each golden payload, and its replica sets for
#: partitions 0..3 on 4 nodes with 3 replicas (seed 0), recorded from the
#: placement key the router has always used
GOLDEN_PLACEMENT = {
    "float32-4096": (
        "68be03acd5fa254e685b4695daa4c5c8",
        {
            "consistent-hash": [(0, 1, 2), (0, 1, 2), (0, 1, 3), (3, 0, 1)],
            "locality-aware": [(1, 2, 3), (2, 3, 0), (3, 0, 1), (0, 1, 2)],
        },
    ),
    "int64-1000": (
        "02f20d54ccf17b415c670689c4daf5ce",
        {
            "consistent-hash": [(1, 0, 2), (0, 2, 3), (0, 1, 2), (3, 0, 1)],
            "locality-aware": [(1, 2, 3), (2, 3, 0), (3, 0, 1), (0, 1, 2)],
        },
    ),
    "float64-16384": (
        "53cf7f5ef22e7b762a27d04cdd06554e",
        {
            "consistent-hash": [(2, 1, 0), (3, 2, 1), (3, 0, 1), (3, 2, 0)],
            "locality-aware": [(2, 3, 0), (3, 0, 1), (0, 1, 2), (1, 2, 3)],
        },
    ),
}


class TestPlacementGolden:
    """Placement is frozen: a new hash under ``payload_key`` (for example
    the result cache's fingerprint) would move every replica set."""

    @pytest.mark.parametrize("payload", sorted(GOLDEN_PLACEMENT))
    def test_payload_key_is_frozen(self, payload):
        key, _ = GOLDEN_PLACEMENT[payload]
        assert payload_key(GOLDEN_PAYLOADS[payload]()) == key

    @pytest.mark.parametrize("placement", ["consistent-hash", "locality-aware"])
    @pytest.mark.parametrize("payload", sorted(GOLDEN_PLACEMENT))
    def test_router_dispatches_to_the_pinned_replicas(self, payload, placement):
        key, replica_sets = GOLDEN_PLACEMENT[payload]
        expected = replica_sets[placement]
        policy = make_placement(placement, nodes=4, replication=3, seed=0)
        assert [policy.replica_set(key, p) for p in range(4)] == expected
        # every replica is dispatched, in preference order, on a healthy
        # cluster: the router's routes are the replica sets themselves
        router = make_router(
            replication=3, placement=placement, partitions=4,
            partition_min_n=1, dispatch_replicas=3,
        )
        request = Request(rid=0, data=GOLDEN_PAYLOADS[payload](), k=8,
                          largest=True, arrival_s=0.0)
        routed = [
            tuple(ref.node_id for ref in part.refs)
            for part in router._route(request)
        ]
        assert routed == expected


# --------------------------------------------------------------------------- #
# differential: cluster == single-shot topk()
# --------------------------------------------------------------------------- #
class TestClusterDifferential:
    """Acceptance pin: healthy cluster == repro.topk(), byte for byte."""

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    @pytest.mark.parametrize("largest", [False, True])
    def test_byte_identical_across_dtypes(self, dtype, largest):
        data = unique_data(PARTITIONED_N, dtype)
        single = topk(data, 33, largest=largest)
        outcome = serve_one(make_router(), data, 33, largest=largest)
        assert outcome.status == "served" and outcome.exact
        assert outcome.values.dtype == single.values.dtype
        assert np.array_equal(outcome.values, single.values)
        assert np.array_equal(outcome.indices, single.indices)

    @pytest.mark.parametrize("placement", PLACEMENTS)
    @pytest.mark.parametrize("nodes", [1, 2, 3, 4, 8])
    def test_every_topology_matches(self, placement, nodes):
        data = unique_data(PARTITIONED_N, "float32", seed=11)
        single = topk(data, 64, largest=True)
        outcome = serve_one(
            make_router(nodes=nodes, placement=placement), data, 64
        )
        assert np.array_equal(outcome.values, single.values)
        assert np.array_equal(outcome.indices, single.indices)

    def test_small_payloads_route_whole(self):
        # below partition_min_n the payload is never split: one replica
        # serves it and the answer passes through unchanged
        data = unique_data(1 << 10, "float32", seed=3)
        single = topk(data, 17, largest=True)
        router = make_router()
        outcome = serve_one(router, data, 17)
        assert not outcome.algo.startswith("cluster:")
        assert np.array_equal(outcome.values, single.values)
        assert np.array_equal(outcome.indices, single.indices)
        assert router.stats.lost_partitions == 0

    def test_partitioned_algo_is_labelled(self):
        outcome = serve_one(
            make_router(), unique_data(PARTITIONED_N, "float32"), 16
        )
        assert outcome.algo.startswith("cluster:")

    def test_explicit_partition_counts(self):
        data = unique_data(PARTITIONED_N, "float32", seed=5)
        single = topk(data, 50, largest=True)
        for partitions in (2, 3, 7):
            outcome = serve_one(make_router(partitions=partitions), data, 50)
            assert np.array_equal(outcome.values, single.values)
            assert np.array_equal(outcome.indices, single.indices)

    @given(
        nodes=st.integers(min_value=1, max_value=6),
        k=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**16),
        largest=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_property_ties_never_diverge(self, nodes, k, seed, largest):
        # gaussian payload with a tiny value set -> heavy ties.  Values
        # (best-first) are multiset-unique so they must match exactly;
        # indices may legally permute within a tie, so verify them
        # against the data instead of the oracle's index order.
        rng = np.random.default_rng(seed)
        data = rng.integers(0, 8, size=PARTITIONED_N).astype(np.float32)
        single = topk(data, k, largest=largest)
        outcome = serve_one(
            make_router(nodes=nodes, placement="consistent-hash"),
            data,
            k,
            largest=largest,
        )
        assert np.array_equal(outcome.values, single.values)
        check_topk(data, outcome.values, outcome.indices, largest=largest)

    def test_repeat_payloads_hit_node_caches(self):
        data = unique_data(PARTITIONED_N, "float32", seed=13)
        single = topk(data, 32, largest=True)
        router = make_router()
        requests = [
            Request(
                rid=i, data=data, k=32, largest=True, arrival_s=0.2 * i
            )
            for i in range(4)
        ]
        router.run(requests)
        assert router.stats.cache_served > 0
        for outcome in router.outcomes:
            assert np.array_equal(outcome.values, single.values)
            assert np.array_equal(outcome.indices, single.indices)


class TestNodeCacheKeys:
    """Node result caches key each sub-query off the router's
    ``payload_key`` of the whole payload (plus the slice bounds of a
    partition): nothing is pinned or hashed on the node."""

    @staticmethod
    def node_cache(router):
        # one node: every partition of every request lands on it
        (node,) = router.nodes
        return node.service.cache

    def test_shared_slice_misses_node_cache(self):
        a = unique_data(PARTITIONED_N, "float32", seed=23)
        b = a.copy()
        b[-1] = PARTITIONED_N  # the new maximum, in the second slice only
        router = make_router(nodes=1, partitions=2)
        router.run([
            Request(rid=rid, data=data, k=32, largest=True, arrival_s=0.2 * rid)
            for rid, data in enumerate((a, b))
        ])
        cache = self.node_cache(router)
        # b's first slice equals a's byte for byte, but names another payload
        assert np.array_equal(a[: PARTITIONED_N // 2], b[: PARTITIONED_N // 2])
        assert cache.results.hits == 0 and cache.results.misses == 4
        assert len(cache.results) == 4 and not cache._probes
        for data, outcome in zip((a, b), router.outcomes):
            single = topk(data, 32, largest=True)
            assert np.array_equal(outcome.values, single.values)
            assert np.array_equal(outcome.indices, single.indices)

    def test_whole_and_partitioned_never_alias(self, monkeypatch):
        data = unique_data(PARTITIONED_N, "float32", seed=29)
        single = topk(data, 32, largest=True)
        router = make_router(nodes=1, partitions=2)
        # even rids route whole, odd rids in two partitions
        monkeypatch.setattr(
            router, "_partition_count", lambda request: 1 + request.rid % 2
        )
        router.run([
            Request(rid=rid, data=data, k=32, largest=True, arrival_s=0.2 * rid)
            for rid in range(4)
        ])
        assert [o.algo.startswith("cluster:") for o in router.outcomes] == [
            False, True, False, True
        ]
        cache = self.node_cache(router)
        # the whole answer and the two slice answers are three entries;
        # each repeat finds its own
        assert cache.results.misses == 3 and cache.results.hits == 3
        assert [o.cache_hit for o in router.outcomes] == [
            False, False, True, True
        ]
        for outcome in router.outcomes:
            assert np.array_equal(outcome.values, single.values)
            assert np.array_equal(outcome.indices, single.indices)

    def test_callers_cannot_supply_a_content_key(self):
        data = unique_data(1 << 10, "float32", seed=31)
        with pytest.raises(TypeError):
            Request(rid=0, data=data, k=8, largest=True, arrival_s=0.0,
                    _content_key="forged")
        with pytest.raises(TypeError):
            ServeConfig(_content_key="forged")
        # a standalone service pins the payload: its entry is found by
        # comparing bytes, not by any key a caller could name
        service = TopKService(ServeConfig(algo="sort", max_delay_s=0.0))
        requests = [
            Request(rid=rid, data=data.copy(), k=8, largest=True,
                    arrival_s=0.2 * rid)
            for rid in range(2)
        ]
        service.run(requests)
        assert all(request._content_key is None for request in requests)
        assert service.outcomes[1].cache_hit
        (live,) = service.cache._probes.values()
        (pin,) = live.values()
        assert np.array_equal(pin, data.view(np.uint32))


# --------------------------------------------------------------------------- #
# approximate tier across the cluster
# --------------------------------------------------------------------------- #
class TestClusterApproxTier:
    def test_approx_requests_are_never_partitioned(self):
        # partition loss and sampling loss must not stack: quality-SLO
        # requests route whole even above partition_min_n
        router = make_router()
        data = unique_data(PARTITIONED_N, "float32", seed=17)
        outcome = serve_one(router, data, 32, slo=(None, 0.9))
        assert not outcome.algo.startswith("cluster:")
        assert outcome.ok

    def test_approx_never_aliases_exact(self):
        # same payload, one exact and one quality-SLO request: the exact
        # answer must stay byte-identical to topk() (no cache bleed from
        # the approximate tier), and the approx outcome must be marked
        data = unique_data(PARTITIONED_N, "float32", seed=19)
        single = topk(data, 32, largest=True)
        router = make_router()
        router.run(
            [
                Request(
                    rid=0,
                    data=data,
                    k=32,
                    largest=True,
                    arrival_s=0.0,
                    slo=(None, 0.9),
                ),
                Request(rid=1, data=data, k=32, largest=True, arrival_s=0.5),
                Request(
                    rid=2,
                    data=data,
                    k=32,
                    largest=True,
                    arrival_s=1.0,
                    slo=(None, 0.9),
                ),
            ]
        )
        approx_a, exact, approx_b = router.outcomes
        assert exact.exact and exact.status == "served"
        assert np.array_equal(exact.values, single.values)
        assert np.array_equal(exact.indices, single.indices)
        for approx in (approx_a, approx_b):
            assert approx.ok
            if not approx.exact:
                assert approx.recall_bound is not None
                assert 0.0 < approx.recall_bound <= 1.0

    @pytest.mark.parametrize("min_recall", [0.8, 0.9, 0.95])
    def test_recall_accounting_matches_the_nodes(self, min_recall):
        """Regression: the router graded approximate answers against the
        worst-case ``recall_bound`` while nodes grade the planner's
        expected recall, so every approximate answer counted as a cluster
        recall violation that no node reported."""
        from repro.serve import LoadSpec, build_requests

        router = make_router(nodes=2, replication=1)
        stats = router.run(
            build_requests(
                LoadSpec(
                    qps=300, duration_s=0.5, seed=7,
                    min_recall=min_recall, approx_fraction=1.0,
                )
            )
        )
        assert stats.approx_served > 0
        node_violations = sum(n.stats.recall_violations for n in router.nodes)
        assert stats.recall_violations == node_violations == 0
        windows = router.cluster_report()["windows"]
        assert sum(w["recall_met"] for w in windows) == stats.answered
        assert sum(w["recall_requests"] for w in windows) == stats.answered


# --------------------------------------------------------------------------- #
# config validation + observability surface
# --------------------------------------------------------------------------- #
class TestClusterConfig:
    def test_rejects_bad_topologies(self):
        with pytest.raises(ValueError):
            ClusterConfig(nodes=0)
        with pytest.raises(ValueError):
            ClusterConfig(nodes=2, replication=3)
        with pytest.raises(ValueError):
            ClusterConfig(nodes=4, replication=2, dispatch_replicas=3)
        with pytest.raises(ValueError):
            ClusterConfig(nodes=4, quorum_f=4)
        with pytest.raises(ValueError):
            ClusterConfig(placement="nearest")
        with pytest.raises(ValueError):
            ClusterConfig(fault_epoch_s=0.0)


class TestSingleUse:
    def test_second_run_raises_and_leaves_the_first_intact(self):
        """Nodes keep every sub-query dispatched to them, so a second
        ``run`` would re-serve the first trace and double-count it."""
        router = make_router(nodes=2, replication=1)
        data = unique_data(1024, "float32")
        router.run([Request(rid=0, data=data, k=8, largest=True, arrival_s=0.0)])
        answered = [node.stats.answered for node in router.nodes]
        node_answered = list(router.stats.node_answered)
        with pytest.raises(RuntimeError, match="new ClusterRouter"):
            router.run(
                [Request(rid=1, data=data[::-1].copy(), k=8, largest=True,
                         arrival_s=0.0)]
            )
        assert [node.stats.answered for node in router.nodes] == answered
        assert router.stats.node_answered == node_answered
        assert len(router.outcomes) == 1


class TestClusterObservability:
    def test_reports_validate_at_node_and_cluster_level(self):
        from repro.obs import validate_serve_report

        router = make_router(nodes=2)
        data = unique_data(PARTITIONED_N, "float32", seed=23)
        serve_one(router, data, 16)
        reports = router.node_reports()
        assert len(reports) == 2
        for node_id, report in enumerate(reports):
            validate_serve_report(report)
            assert report["config"]["node"] == node_id
        cluster = router.cluster_report(config={"suite": "test"})
        validate_serve_report(cluster)
        assert cluster["config"]["nodes"] == 2
        assert cluster["totals"]["requests"] == 1
        assert cluster["totals"]["availability"] == 1.0

    def test_stats_feed_capacity_from_bottleneck(self):
        router = make_router()
        data = unique_data(PARTITIONED_N, "float32", seed=29)
        serve_one(router, data, 16)
        stats = router.stats
        assert len(stats.node_busy_s) == 4
        assert stats.bottleneck_busy_s == max(stats.node_busy_s)
        assert stats.capacity_rps > 0
