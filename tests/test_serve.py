"""The serving subsystem: merge identity, batching, caching, backpressure.

Pins the PR's acceptance criteria: sharded selection is byte-identical
to single-shot ``topk()`` across dtypes and both directions, and the
micro-batched service reaches >= 3x sequential capacity at batch
occupancy >= 8 under the default 200-QPS load.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import check_topk, topk
from repro.bench.report import percentile, percentiles, status_counts
from repro.serve import (
    GroupKey,
    LoadSpec,
    LRUCache,
    MicroBatcher,
    Request,
    ServeCache,
    ServeConfig,
    TopKService,
    build_requests,
    fingerprint,
    hierarchical_merge,
    poisson_arrivals,
    run_serve_bench,
    shard_bounds,
    sharded_topk,
    uniform_arrivals,
)

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


def unique_data(n: int, dtype: str, seed: int = 7) -> np.ndarray:
    """A shuffled 0..n-1 ramp: every value unique and exactly representable."""
    rng = np.random.default_rng(seed)
    return rng.permutation(np.arange(n)).astype(dtype)


# --------------------------------------------------------------------------- #
# sharding + merge
# --------------------------------------------------------------------------- #
class TestShardBounds:
    def test_partition(self):
        bounds = shard_bounds(10, 4)
        assert bounds == [(0, 3), (3, 6), (6, 8), (8, 10)]
        assert bounds[0][0] == 0 and bounds[-1][1] == 10

    @pytest.mark.parametrize("n,shards", [(1, 1), (7, 7), (100, 3), (64, 8)])
    def test_covers_everything(self, n, shards):
        bounds = shard_bounds(n, shards)
        covered = [i for lo, hi in bounds for i in range(lo, hi)]
        assert covered == list(range(n))

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            shard_bounds(4, 0)
        with pytest.raises(ValueError):
            shard_bounds(4, 5)


def merge_pair(a, b, k, *, largest):
    """Two candidate sets merged to the best k (values, indices)."""
    values, indices, _ = hierarchical_merge([a, b], k, largest=largest)
    return values, indices


class TestMerge:
    def test_merge_pair_keeps_best(self):
        a = (np.array([[1.0, 3.0]]), np.array([[0, 2]]))
        b = (np.array([[2.0, 4.0]]), np.array([[5, 7]]))
        values, indices = merge_pair(a, b, 3, largest=False)
        assert values.tolist() == [[1.0, 2.0, 3.0]]
        assert indices.tolist() == [[0, 5, 2]]

    def test_ties_break_by_index(self):
        a = (np.array([[5.0]]), np.array([[9]]))
        b = (np.array([[5.0]]), np.array([[2]]))
        _, indices = merge_pair(a, b, 2, largest=True)
        assert indices.tolist() == [[2, 9]]

    def test_levels_is_tree_depth(self):
        partials = [
            (np.array([[float(i)]]), np.array([[i]])) for i in range(5)
        ]
        values, indices, levels = hierarchical_merge(partials, 3)
        assert levels == 3  # ceil(log2 5)
        assert values.tolist() == [[0.0, 1.0, 2.0]]
        assert indices.tolist() == [[0, 1, 2]]

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_wide_and_negative_indices_take_the_general_sort(self, index_dtype):
        # indices past 2**32 (or negative) cannot be packed next to a
        # 32-bit key; the lexsort path must give the same order
        shift = (1 << 40) if index_dtype is np.int64 else -(1 << 20)
        a = (np.array([[2.0, 1.0]], np.float32), np.array([[3, 1]], index_dtype))
        b = (np.array([[1.0, 2.0]], np.float32), np.array([[0, 2]], index_dtype))
        packed = merge_pair(a, b, 3, largest=False)
        wide = merge_pair(
            (a[0], a[1] + shift), (b[0], b[1] + shift), 3, largest=False
        )
        assert packed[1].tolist() == [[0, 1, 2]]
        assert np.array_equal(wide[0], packed[0])
        assert np.array_equal(wide[1], packed[1] + shift)


def _reference_order(values, indices, largest):
    """(priority key, index) order by two stable argsorts, per row."""
    from repro.primitives import priority_keys

    keys = priority_keys(np.ascontiguousarray(values), largest=largest)
    by_index = np.argsort(indices, axis=1, kind="stable")
    keys = np.take_along_axis(keys, by_index, axis=1)
    values = np.take_along_axis(values, by_index, axis=1)
    indices = np.take_along_axis(indices, by_index, axis=1)
    by_key = np.argsort(keys, axis=1, kind="stable")
    return (
        np.take_along_axis(values, by_key, axis=1),
        np.take_along_axis(indices, by_key, axis=1),
    )


def _reference_tree_merge(partials, k, largest):
    """The pairwise merge tree: fold neighbours level by level, keeping
    the best k of each pair; returns (values, indices, levels)."""
    level = list(partials)
    if len(level) == 1:
        values, indices = _reference_order(*level[0], largest)
        return values[:, :k], indices[:, :k], 0
    levels = 0
    while len(level) > 1:
        nxt = []
        for a, b in zip(level[0::2], level[1::2]):
            values, indices = _reference_order(
                np.concatenate([a[0], b[0]], axis=1),
                np.concatenate([a[1], b[1]], axis=1),
                largest,
            )
            nxt.append((values[:, :k], indices[:, :k]))
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
        levels += 1
    values, indices = level[0]
    return values[:, :k], indices[:, :k], levels


@st.composite
def merge_cases(draw):
    """Per-shard candidate sets: 1..9 shards of ragged widths, values
    from a tiny range (heavy ties), disjoint global indices."""
    dtype = draw(st.sampled_from(ALL_DTYPES))
    largest = draw(st.booleans())
    shards = draw(st.integers(1, 9))
    batch = draw(st.integers(1, 3))
    widths = draw(st.lists(st.integers(1, 7), min_size=shards, max_size=shards))
    presorted = draw(st.booleans())
    seed = draw(st.integers(0, 2**32 - 1))
    k = draw(st.integers(1, sum(widths) + 2))
    rng = np.random.default_rng(seed)
    total = sum(widths)
    low = -2 if np.dtype(dtype).kind in "if" else 0  # cross the sign bit
    values = rng.integers(low, low + 4, size=(batch, total)).astype(dtype)
    indices = np.stack(
        [rng.permutation(4 * total)[:total] for _ in range(batch)]
    ).astype(np.int64)
    partials, start = [], 0
    for width in widths:
        part = (values[:, start:start + width], indices[:, start:start + width])
        if presorted:  # best-first, as the sharder hands them over
            part = _reference_order(*part, largest)
        partials.append(part)
        start += width
    return partials, k, largest


class TestOneSortMerge:
    @settings(max_examples=300, deadline=None)
    @given(merge_cases())
    def test_equals_pairwise_tree(self, case):
        partials, k, largest = case
        values, indices, levels = hierarchical_merge(partials, k, largest=largest)
        ref_values, ref_indices, ref_levels = _reference_tree_merge(
            partials, k, largest
        )
        assert levels == ref_levels == math.ceil(math.log2(len(partials)))
        assert values.dtype == ref_values.dtype
        assert np.array_equal(values, ref_values)
        assert np.array_equal(indices, ref_indices)


class TestShardedIdentity:
    """Acceptance pin: sharded == single-shot, byte for byte."""

    @pytest.mark.parametrize("dtype", ALL_DTYPES)
    @pytest.mark.parametrize("largest", [False, True])
    def test_byte_identical_across_dtypes(self, dtype, largest):
        data = unique_data(1024, dtype)
        single = topk(data, 33, algo="air_topk", largest=largest)
        shard = sharded_topk(
            data, 33, shards=4, algo="air_topk", largest=largest
        )
        assert single.values.dtype == shard.values.dtype
        assert np.array_equal(single.values, shard.values)
        assert np.array_equal(single.indices, shard.indices)

    @pytest.mark.parametrize("shards", [2, 4, 7, 16])
    def test_shard_counts(self, shards, rng):
        data = rng.permutation(np.arange(1 << 12)).astype(np.float32)
        single = topk(data, 100, algo="air_topk")
        shard = sharded_topk(data, 100, shards=shards, algo="air_topk")
        assert np.array_equal(single.values, shard.values)
        assert np.array_equal(single.indices, shard.indices)
        assert shard.algo == f"sharded(air_topkx{shards})"

    def test_batched_rows_and_auto(self, rng):
        data = rng.permutation(np.arange(4 * 2048)).reshape(4, 2048)
        data = data.astype(np.float32)
        single = topk(data, 16, algo="air_topk")
        shard = sharded_topk(data, 16, shards=4, algo="air_topk")
        assert np.array_equal(single.values, shard.values)
        assert np.array_equal(single.indices, shard.indices)

    def test_k_larger_than_smallest_shard(self, rng):
        # 10 shards of ~12 elements but k=50: per-shard k is clamped
        data = rng.permutation(np.arange(123)).astype(np.float32)
        single = topk(data, 50, algo="sort")
        shard = sharded_topk(data, 50, shards=10, algo="sort")
        assert np.array_equal(single.values, shard.values)
        assert np.array_equal(single.indices, shard.indices)

    def test_coordinator_charges_merge(self, rng):
        data = rng.permutation(np.arange(1 << 12)).astype(np.float32)
        shard = sharded_topk(data, 64, shards=4, algo="air_topk")
        names = [
            e.name for e in shard.device.timeline.stream_events("gpu")
        ]
        assert names == ["shard_merge_l0", "shard_merge_l1"]

    @given(
        shards=st.integers(min_value=1, max_value=9),
        k=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**16),
        largest=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_property_random_shards(self, shards, k, seed, largest):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal(512).astype(np.float32)  # ties possible
        single = topk(data, k, algo="sort", largest=largest)
        shard = sharded_topk(
            data, k, shards=shards, algo="sort", largest=largest
        )
        # values (best-first) are multiset-unique -> always identical;
        # indices may legally differ under ties, so verify them instead
        assert np.array_equal(single.values, shard.values)
        check_topk(data, shard.values, shard.indices, largest=largest)


# --------------------------------------------------------------------------- #
# batched result invariants (satellite d)
# --------------------------------------------------------------------------- #
class TestBatchedResultInvariants:
    def test_batch_slicing_matches_single_rows(self, rng):
        data = rng.standard_normal((6, 2048)).astype(np.float32)
        batched = topk(data, 32, algo="air_topk")
        assert batched.values.shape == batched.indices.shape == (6, 32)
        for row in range(6):
            single = topk(data[row], 32, algo="air_topk")
            assert np.array_equal(batched.values[row], single.values)
            assert np.array_equal(batched.indices[row], single.indices)

    def test_indices_round_trip(self, rng):
        data = rng.standard_normal((3, 4096)).astype(np.float32)
        r = sharded_topk(data, 64, shards=4, algo="air_topk")
        assert r.indices.min() >= 0 and r.indices.max() < 4096
        gathered = np.take_along_axis(data, r.indices, axis=1)
        assert np.array_equal(gathered, r.values)

    def test_batch_1_equals_squeeze(self, rng):
        flat = rng.standard_normal(2048).astype(np.float32)
        one = topk(flat, 8, algo="sort")
        batched = topk(flat[None, :], 8, algo="sort")
        assert one.values.shape == (8,)
        assert np.array_equal(batched.values[0], one.values)
        assert np.array_equal(batched.indices[0], one.indices)


# --------------------------------------------------------------------------- #
# batcher
# --------------------------------------------------------------------------- #
def make_request(rid, arrival_s, *, n=64, k=4, largest=False, deadline_s=None):
    data = np.arange(n, dtype=np.float32) + rid
    return Request(
        rid=rid,
        data=data,
        k=k,
        largest=largest,
        arrival_s=arrival_s,
        deadline_s=deadline_s,
    )


class TestMicroBatcher:
    def test_groups_by_shape(self):
        b = MicroBatcher(max_batch=8, max_delay_s=1.0)
        b.add(make_request(0, 0.0))
        b.add(make_request(1, 0.0, k=5))
        b.add(make_request(2, 0.0))
        assert b.pending == 3
        assert len(b.groups()) == 2

    def test_size_trigger(self):
        b = MicroBatcher(max_batch=3, max_delay_s=1.0)
        for i in range(2):
            b.add(make_request(i, 0.0))
        assert b.size_ready() is None
        b.add(make_request(2, 0.1))
        key = b.size_ready()
        assert key == GroupKey(n=64, k=4, dtype="float32", largest=False)
        popped = b.pop(key)
        assert [r.rid for r in popped] == [0, 1, 2]
        assert b.pending == 0

    def test_delay_trigger(self):
        b = MicroBatcher(max_batch=100, max_delay_s=0.05)
        b.add(make_request(0, 1.0))
        b.add(make_request(1, 1.02))
        deadline, key = b.next_flush_time()
        assert deadline == pytest.approx(1.05)
        assert key == GroupKey(n=64, k=4, dtype="float32", largest=False)

    def test_byte_orders_group_apart(self):
        b = MicroBatcher(max_batch=8, max_delay_s=1.0)
        for i, dtype in enumerate(["<f4", ">f4", "<f4", "=f4"]):
            r = make_request(i, 0.0)
            r.data = r.data.astype(dtype)
            b.add(r)
        names = sorted(key.dtype for key in b.groups())
        assert names == sorted({str(np.dtype(">f4")), "float32"})

    def test_pop_caps_at_max_batch(self):
        b = MicroBatcher(max_batch=2, max_delay_s=1.0)
        for i in range(5):
            b.add(make_request(i, float(i)))
        popped = b.pop(b.size_ready())
        assert [r.rid for r in popped] == [0, 1]
        assert b.pending == 3

    @pytest.mark.parametrize("seed", range(4))
    def test_bookkeeping_matches_a_walk_over_the_queue(self, seed):
        """Random adds (arrivals out of order, ties included) and pops:
        ``pending`` and ``next_flush_time`` equal a walk over every
        queued request."""
        rng = np.random.default_rng(seed)
        b = MicroBatcher(max_batch=3, max_delay_s=0.01)
        for rid in range(400):
            if b.groups() and rng.random() < 0.3:
                keys = list(b.groups())
                b.pop(keys[rng.integers(len(keys))])
            else:
                arrival = float(rng.integers(0, 50)) / 8.0
                b.add(make_request(rid, arrival, k=int(rng.integers(1, 4))))
            groups = b.groups()
            assert b.pending == len(b) == sum(len(g) for g in groups.values())
            want = None
            for key, group in groups.items():
                deadline = min(r.arrival_s for r in group) + b.max_delay_s
                if want is None or deadline < want[0]:
                    want = (deadline, key)
            assert b.next_flush_time() == want


# --------------------------------------------------------------------------- #
# caches
# --------------------------------------------------------------------------- #
class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a
        cache.put("c", 3)  # evicts b, the stalest
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.evictions == 1

    def test_zero_capacity_disables(self):
        cache = LRUCache(0)
        cache.put("a", 1)
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_fingerprint_distinguishes(self, rng):
        a = rng.standard_normal(128).astype(np.float32)
        b = a.copy()
        b[7] += 1.0
        assert fingerprint(a) == fingerprint(a.copy())
        assert fingerprint(a) != fingerprint(b)
        assert fingerprint(a) != fingerprint(a.astype(np.float64))
        # the same bytes under another shape or byte order are another key
        flat = np.arange(8, dtype=np.float32)
        assert fingerprint(flat) != fingerprint(flat.reshape(2, 4))
        assert fingerprint(flat) != fingerprint(flat.astype(">f4"))
        # a strided view hashes its values, not its memory layout
        view = a[::2]
        assert not view.flags.c_contiguous
        assert fingerprint(view) == fingerprint(view.copy())
        key = fingerprint(a)
        assert len(key) == 32 and int(key, 16) >= 0

    def test_serve_cache_result_round_trip(self, rng):
        cache = ServeCache()
        data = rng.standard_normal(256).astype(np.float32)
        assert cache.get_result(data, 4, False) is None
        cache.put_result(data, 4, False, np.zeros(4), np.arange(4))
        values, indices, meta = cache.get_result(data, 4, False)
        assert np.array_equal(indices, np.arange(4))
        assert meta == {}
        # k and direction are part of the key
        assert cache.get_result(data, 5, False) is None
        assert cache.get_result(data, 4, True) is None

    def test_plan_cache_buckets_batch(self):
        from repro.device import A100

        cache = ServeCache()
        plan1, hit1 = cache.make_plan(
            n=1 << 14, k=32, batch=9, spec=A100, largest=False
        )
        plan2, hit2 = cache.make_plan(
            n=1 << 14, k=32, batch=12, spec=A100, largest=False
        )
        assert not hit1 and hit2  # 9 and 12 share the 16 bucket
        assert plan1.algo == plan2.algo
        assert plan1.ranking and plan1.predicted_time is not None


@pytest.fixture
def fingerprint_calls(monkeypatch):
    """Count every payload hash by function: the result cache's
    ``fingerprint`` and the router's placement ``payload_key``; and the
    result-cache inserts (``insert``)."""
    import repro.cluster.router as router_module
    import repro.serve.cache as cache_module

    calls = Counter()

    def counting(module, name):
        original = getattr(module, name)

        def counted(data):
            calls[name] += 1
            return original(data)

        monkeypatch.setattr(module, name, counted)

    counting(cache_module, "fingerprint")
    counting(router_module, "payload_key")
    put_result = ServeCache.put_result

    def counted_put(self, *args, **kwargs):
        calls["insert"] += 1
        return put_result(self, *args, **kwargs)

    monkeypatch.setattr(ServeCache, "put_result", counted_put)
    return calls


def repeated_payload_requests(count=8, pool=3, n=256):
    """``count`` requests cycling over ``pool`` payloads (cache hits)."""
    payloads = [unique_data(n, "float32", seed=s) for s in range(pool)]
    return [
        Request(rid=i, data=payloads[i % pool], k=8, largest=False,
                arrival_s=i * 0.01)
        for i in range(count)
    ]


class TestFingerprintCounts:
    """The result cache hashes no payload: an insert pins a copy of it,
    and every hit is checked against an entry's pinned copy.  Cluster
    node caches key slices off the router's one ``payload_key``."""

    CONFIG = dict(algo="sort", max_batch=4, max_delay_s=0.0)

    def test_one_per_insert_and_first_hit(self, fingerprint_calls):
        # 8 requests over 3 payloads, each served before the next arrives:
        # 3 misses that insert, 3 first hits, 2 repeat hits
        requests = repeated_payload_requests()
        service = TopKService(ServeConfig(**self.CONFIG))
        stats = service.run(requests)
        assert stats.served == len(requests)
        assert stats.cache["result_hits"] == 5
        assert fingerprint_calls["insert"] == 3
        assert fingerprint_calls["fingerprint"] == 0
        # a replay starts from an empty cache: nothing carries over
        TopKService(ServeConfig(**self.CONFIG)).run(requests)
        assert fingerprint_calls["fingerprint"] == 0
        assert fingerprint_calls["insert"] == 2 * 3

    def test_none_per_repeat_hit(self, fingerprint_calls):
        cache = ServeCache()
        data = unique_data(1 << 12, "float32")
        assert cache.get_result(data, 8, False) is None
        assert not fingerprint_calls["fingerprint"]  # a miss, no hash
        cache.put_result(data, 8, False, data[:8], np.arange(8))
        cache.get_result(data, 8, False)  # first hit: compared with the pin
        assert fingerprint_calls["fingerprint"] == 0
        for _ in range(5):
            values, _, _ = cache.get_result(data.copy(), 8, False)
            assert np.array_equal(values, data[:8])
        assert fingerprint_calls["fingerprint"] == 0
        assert cache.results.hits == 6 and cache.results.misses == 1

    def test_reinsert_pins(self, fingerprint_calls):
        # a payload inserted again while its entry is live (duplicates in
        # one batch) finds that entry by its pin and refreshes it
        cache = ServeCache()
        data = unique_data(1 << 12, "float32")
        for _ in range(2):
            cache.put_result(data, 8, False, data[:8], np.arange(8))
        assert cache.get_result(data.copy(), 8, False) is not None
        assert fingerprint_calls["fingerprint"] == 0
        assert len(cache.results) == 1

    def test_one_per_insert_and_verified_lookup_under_cache_corruption(
        self, fingerprint_calls
    ):
        from repro.faults import FaultPlan, FaultRule

        plan = FaultPlan(
            seed=6, rules=(FaultRule(kind="cache_corruption", rate=1.0),)
        )
        requests = repeated_payload_requests()
        service = TopKService(ServeConfig(**self.CONFIG, faults=plan))
        stats = service.run(requests)
        assert stats.faults.get("cache_corruption", 0) >= 1
        # every entry found is corrupted before its first hit is served:
        # it is found by its pin, then evicted (and, until the breaker
        # opens, recomputed and inserted again), all without a hash
        assert service.cache.corruptions >= 1
        assert fingerprint_calls["fingerprint"] == 0

    def test_none_with_the_result_cache_off(self, fingerprint_calls):
        requests = repeated_payload_requests()
        service = TopKService(ServeConfig(**self.CONFIG, result_cache=0))
        stats = service.run(requests)
        assert stats.served == len(requests)
        assert not fingerprint_calls
        assert len(service.cache.results) == 0

    def test_cluster_hashes_once_per_request_and_sub_dispatch(
        self, fingerprint_calls
    ):
        from repro.cluster import ClusterConfig, ClusterRouter

        router = ClusterRouter(
            ClusterConfig(
                nodes=3,
                replication=2,
                partitions=3,
                partition_min_n=1 << 10,
                node_config=ServeConfig(**self.CONFIG),
            )
        )
        requests = repeated_payload_requests(count=6, n=1 << 11)
        stats = router.run(requests)
        assert stats.answered == len(requests)
        sub_dispatches = sum(len(node.requests) for node in router.nodes)
        assert sub_dispatches == 3 * len(requests)
        # placement hashes once per cluster request; node result caches
        # key each sub-dispatch off that hash and hash nothing themselves
        assert fingerprint_calls["payload_key"] == len(requests)
        assert fingerprint_calls["fingerprint"] == 0


def probe_twins(n=256):
    """Two payloads equal in every probe-sampled element that differ in
    one unsampled element."""
    a = unique_data(n, "float32")
    b = a.copy()
    b[1] = -1.0
    assert ServeCache._probe(a, 8, False, None) == ServeCache._probe(b, 8, False, None)
    return a, b


class TestResultVerification:
    """Hits are verified bitwise against the pinned payload copy: the
    probe only narrows the search, it never decides a hit."""

    @pytest.mark.parametrize("capacity", [1, 2])
    def test_probe_twins_never_cross_hit(self, capacity):
        a, b = probe_twins()
        cache = ServeCache(result_capacity=capacity)
        reference = LRUCache(capacity)
        for data in (a, b, a, b, a, a, b, b, a):
            key = (fingerprint(data), data.size, 8, False, None)
            want = reference.get(key)
            got = cache.get_result(data, 8, False)
            assert (got is None) == (want is None)
            if got is None:
                reference.put(key, data[:8])
                cache.put_result(data, 8, False, data[:8], np.arange(8))
            else:
                assert np.array_equal(got[0], want)
                assert np.array_equal(got[0], data[:8])
        for counter in ("hits", "misses", "evictions"):
            assert getattr(cache.results, counter) == getattr(reference, counter)
        assert cache.results.hits > 0

    def test_in_place_mutation_misses(self):
        data = unique_data(256, "float32")
        cache = ServeCache()
        cache.put_result(data, 8, False, data[:8], np.arange(8))
        data[1] += 1000.0  # after the insert, outside the probe sample
        assert cache.get_result(data, 8, False) is None
        cache.put_result(data, 8, False, data[:8], np.arange(8))  # new pin
        assert cache.get_result(data, 8, False) is not None
        assert cache.get_result(data, 8, False) is not None
        data[1] += 1000.0  # after the pin
        assert cache.get_result(data, 8, False) is None
        data[0] += 1000.0  # inside the probe sample
        assert cache.get_result(data, 8, False) is None

    def test_nan_payload_hits_itself(self, fingerprint_calls):
        data = unique_data(256, "float32")
        data[1::3] = np.nan
        cache = ServeCache()
        cache.put_result(data, 8, False, data[:8], np.arange(8))
        for _ in range(3):
            assert cache.get_result(data.copy(), 8, False) is not None
        assert cache.results.hits == 3
        # the hits matched the pinned copy: NaN compares as bytes
        assert fingerprint_calls["fingerprint"] == 0

    @pytest.mark.parametrize(
        "stored,probed",
        [
            pytest.param(
                np.zeros(256, np.float32), -np.zeros(256, np.float32),
                id="signed-zero-everywhere",
            ),
            pytest.param(
                np.zeros(256, np.float32),
                np.where(np.arange(256) == 1, -0.0, 0.0).astype(np.float32),
                id="signed-zero-unsampled",
            ),
            pytest.param(
                np.arange(8, dtype="<f4"), np.arange(8, dtype=">f4"),
                id="byte-order",
            ),
            pytest.param(
                np.arange(8, dtype=np.float32),
                np.arange(8, dtype=np.float32).reshape(2, 4),
                id="shape",
            ),
        ],
    )
    def test_never_alias(self, stored, probed):
        cache = ServeCache()
        cache.put_result(stored, 2, False, stored.reshape(-1)[:2], np.arange(2))
        assert cache.get_result(stored, 2, False) is not None  # pinned hit
        assert cache.get_result(stored, 2, False) is not None  # again
        assert cache.get_result(probed, 2, False) is None
        assert cache.results.hits == 2 and cache.results.misses == 1

    def test_strided_view_hits_contiguous_entry(self):
        base = unique_data(1024, "float32")
        view = base[::2]
        assert not view.flags.c_contiguous
        cache = ServeCache()
        cache.put_result(view.copy(), 8, False, view[:8], np.arange(8))
        assert cache.get_result(view, 8, False) is not None  # pinned hit
        assert cache.get_result(view, 8, False) is not None  # again
        assert cache.results.hits == 2

    def test_corrupt_pinned_entry_is_detected_and_repaired(self):
        data = unique_data(256, "float32")
        cache = ServeCache()
        cache.put_result(data, 8, False, data[:8], np.arange(8))
        assert cache.get_result(data, 8, False) is not None  # pinned hit
        assert cache.corrupt_result(data, 8, False)
        assert cache.get_result(data, 8, False) is None  # detected, evicted
        assert cache.corruptions == 1
        assert len(cache.results) == 0 and not cache._probes
        cache.put_result(data, 8, False, data[:8], np.arange(8))
        values, _, _ = cache.get_result(data, 8, False)
        assert np.array_equal(values, data[:8])

    def test_evicted_entries_leave_the_index(self):
        cache = ServeCache(result_capacity=2)
        payloads = [unique_data(256, "float32", seed=s) for s in range(5)]
        for data in payloads:
            cache.put_result(data, 8, False, data[:8], np.arange(8))
            cache.get_result(data, 8, False)
        assert cache.results.evictions == 3
        live = [key for slot in cache._probes.values() for key in slot]
        assert sorted(live) == sorted(cache.results._data)

    def test_hits_hand_out_private_copies(self):
        data = unique_data(256, "float32")
        service = TopKService(ServeConfig(algo="sort", max_batch=4,
                                          max_delay_s=0.0))
        service.run([
            Request(rid=i, data=data, k=8, largest=False, arrival_s=0.5 * i)
            for i in range(3)
        ])
        first, second = (o for o in service.outcomes if o.cache_hit)
        assert first.values is not second.values
        assert first.indices is not second.indices
        # a caller scribbling on its answer must not corrupt the entry
        first.values[0] = -1
        first.indices[0] = -1
        service.run([
            Request(rid=3, data=data, k=8, largest=False, arrival_s=1.5)
        ])
        last = service.outcomes[-1]
        assert last.cache_hit and service.cache.corruptions == 0
        expected = topk(data, 8, algo="sort")
        assert np.array_equal(last.values, expected.values)
        assert np.array_equal(last.indices, expected.indices)
        assert np.array_equal(second.values, expected.values)


def model_payloads(n=256):
    """The result-cache model's payload pool: five dtypes, NaNs, both
    signed zeros, a byte-swapped copy and probe twins."""
    base = unique_data(n, "float32", seed=11)
    twin = base.copy()
    twin[1] = -1.0  # outside the probe sample
    nan = base.copy()
    nan[2::3] = np.nan
    zeros = np.zeros(n, np.float32)
    zeros_twin = zeros.copy()
    zeros_twin[1] = -0.0
    return [
        base, twin, nan, zeros, zeros_twin, -zeros,
        base.astype(">f4"),
        base.astype(np.float16),
        base.astype(np.float64),
        unique_data(n, "int32", seed=12),
        unique_data(n, "uint64", seed=13),
    ]


#: lookup variants of one payload: (k, largest, quality class, whether
#: the lookup carries a cluster content key)
CACHE_VARIANTS = (
    (8, False, None, False),
    (4, True, None, False),
    (8, False, 0.9, False),
    (8, False, None, True),
)

CACHE_OPS = st.lists(
    st.tuples(
        st.sampled_from(["put", "get", "corrupt", "mutate"]),
        st.integers(0, len(model_payloads()) - 1),
        st.integers(0, len(CACHE_VARIANTS) - 1),
        st.integers(0, 255),  # the element a mutation flips a bit of
    ),
    min_size=20,
    max_size=60,
)


class TestResultCacheModel:
    """Random put/get/corrupt/mutate sequences against a reference LRU
    keyed on each payload's full bytes (or on its content key)."""

    @settings(max_examples=100, deadline=None)
    @given(capacity=st.integers(1, 6), ops=CACHE_OPS)
    def test_matches_byte_keyed_reference(self, capacity, ops):
        payloads = model_payloads()
        #: a content key names a payload version, as the router's
        #: payload_key would after the payload changed
        versions = [0] * len(payloads)
        cache = ServeCache(result_capacity=capacity)
        reference = LRUCache(capacity)
        corrupted, corruptions = set(), 0

        def reference_key(i, variant):
            k, largest, quality, keyed = CACHE_VARIANTS[variant]
            data = payloads[i]
            content_key = (i, versions[i]) if keyed else None
            if keyed:
                identity = ("keyed", content_key)
            else:
                identity = (data.dtype.str, data.shape, data.tobytes())
            return (*identity, k, largest, quality), content_key

        def lookup(i, variant):
            nonlocal corruptions
            k, largest, quality, _ = CACHE_VARIANTS[variant]
            key, content_key = reference_key(i, variant)
            got = cache.get_result(payloads[i].copy(), k, largest, quality,
                                   content_key=content_key)
            want = reference.get(key)
            if key in corrupted:
                del reference._data[key]
                corrupted.discard(key)
                corruptions += 1
                want = None
            assert (got is None) == (want is None)
            if got is not None:
                assert np.array_equal(got[0], want)

        for step, (op, i, variant, pos) in enumerate(ops):
            data = payloads[i]
            k, largest, quality, keyed = CACHE_VARIANTS[variant]
            key, content_key = reference_key(i, variant)
            if op == "mutate":
                # in place, after any insert of it: pins are private
                # copies, so no entry of the old bytes may answer it
                data.view(np.uint8)[pos * data.itemsize] ^= 1
                versions[i] += 1
                lookup(i, variant)
            elif op == "put":
                values = np.full(k, step)
                cache.put_result(data, k, largest, values, np.arange(k),
                                 quality, content_key=content_key)
                for old_key, _ in reference.put(key, values):
                    corrupted.discard(old_key)
                corrupted.discard(key)  # the put stored fresh values
            elif op == "corrupt" and not keyed:
                live = key in reference
                assert cache.corrupt_result(data, k, largest, quality) == live
                if live:
                    corrupted ^= {key}  # a second flip restores the byte
            elif op == "get":
                lookup(i, variant)
            self.check_pins(cache, capacity, payloads)
        for counter in ("hits", "misses", "evictions"):
            assert getattr(cache.results, counter) == getattr(reference, counter)
        assert cache.corruptions == corruptions

    @staticmethod
    def check_pins(cache, capacity, payloads):
        """One pin per live entry stored without a content key, none for
        keyed entries, so pinned bytes stay within capacity × payload."""
        pins = {
            key: pinned
            for live in cache._probes.values()
            for key, pinned in live.items()
        }
        unkeyed = [
            key for key, entry in cache.results._data.items()
            if entry[-1] is not None  # the entry's probe
        ]
        assert len(pins) == sum(len(live) for live in cache._probes.values())
        assert sorted(pins) == sorted(unkeyed)
        assert all(live for live in cache._probes.values())
        biggest = max(p.nbytes for p in payloads)
        assert sum(p.nbytes for p in pins.values()) <= capacity * biggest


#: malformed requests next to valid 64-element ones: (payload from a valid
#: float32 payload, k, a fragment of the admission error)
BAD_REQUESTS = {
    "k_above_n": (lambda p: p, 65, "k must be in [1, n=64], got k=65"),
    "k_zero": (lambda p: p, 0, "got k=0"),
    "k_negative": (lambda p: p, -3, "got k=-3"),
    "k_float": (lambda p: p, 2.5, "k must be an integer, got k=2.5"),
    "k_bool": (lambda p: p, True, "k must be an integer, got k=True"),
    "empty": (lambda p: p[:0], 4, "cannot select from an empty list"),
    "two_d": (lambda p: np.stack([p, p]), 4, "must be 1-d (n,), got shape (2, 64)"),
    "scalar": (lambda p: np.asarray(p[0]), 1, "must be 1-d (n,), got shape ()"),
    "object_dtype": (lambda p: p.astype(object), 4, "key dtype object"),
    "list": (lambda p: p.tolist(), 4, "must be a numpy array, got list"),
}


class TestAdmissionValidation:
    """A malformed request fails at admission with its reason, is never
    hashed, batched or routed, and leaves every other outcome as it was."""

    def serve(self, kind, requests, node=None):
        node = node or ServeConfig(algo="sort", max_batch=4, max_delay_s=0.01)
        if kind == "service":
            server = TopKService(node)
        else:
            from repro.cluster import ClusterConfig, ClusterRouter

            server = ClusterRouter(
                ClusterConfig(nodes=3, replication=2, partition_min_n=32,
                              node_config=node)
            )
        server.run(requests)
        return {o.rid: o for o in server.outcomes}, server

    @staticmethod
    def mates():
        return [
            Request(rid=rid, data=unique_data(64, "float32", seed=rid), k=4,
                    largest=False, arrival_s=rid * 0.001)
            for rid in (0, 2, 3)
        ]

    @pytest.mark.parametrize("kind", ["service", "cluster"])
    @pytest.mark.parametrize("case", sorted(BAD_REQUESTS))
    def test_fails_at_admission(self, kind, case, fingerprint_calls):
        build, k, message = BAD_REQUESTS[case]
        clean, clean_server = self.serve(kind, self.mates())
        bad = Request(rid=1, data=build(unique_data(64, "float32", seed=1)),
                      k=k, largest=False, arrival_s=0.001)
        fingerprint_calls.clear()
        mixed, server = self.serve(kind, self.mates() + [bad])

        failed = mixed.pop(1)
        assert failed.status == "failed" and message in failed.error
        assert failed.finish_s == failed.arrival_s == bad.arrival_s
        assert failed.values is None
        assert server.stats.failed == 1
        if kind == "service":
            assert fingerprint_calls["insert"] == len(clean)
            assert fingerprint_calls["fingerprint"] == 0
            assert server.stats.batches == clean_server.stats.batches
        else:
            assert fingerprint_calls["payload_key"] == len(clean)
            routed = [len(node.requests) for node in server.nodes]
            assert routed == [len(node.requests) for node in clean_server.nodes]
        assert mixed.keys() == clean.keys()
        for rid, want in clean.items():
            got = mixed[rid]
            assert got.status == want.status == "served"
            assert (got.finish_s, got.latency_s, got.batch_size, got.algo) == (
                want.finish_s, want.latency_s, want.batch_size, want.algo
            )
            assert np.array_equal(got.values, want.values)
            assert np.array_equal(got.indices, want.indices)

    @pytest.mark.parametrize("kind", ["service", "cluster"])
    def test_numpy_integer_k_is_served_as_int(self, kind):
        config = ServeConfig(algo="warp_select", max_batch=4, max_delay_s=0.01)
        clean, _ = self.serve(kind, self.mates(), config)
        numpy_k = self.mates()
        numpy_k[1].k = np.int64(4)  # batched with the int-k mates
        outcomes, _ = self.serve(kind, numpy_k, config)
        assert type(numpy_k[1].k) is int
        for rid, want in clean.items():
            assert outcomes[rid].status == "served"
            assert np.array_equal(outcomes[rid].values, want.values)
            assert np.array_equal(outcomes[rid].indices, want.indices)

    @pytest.mark.parametrize("kind", ["service", "cluster"])
    def test_non_native_byte_order_is_served(self, kind):
        clean, _ = self.serve(kind, self.mates())
        swapped = self.mates()
        for request in swapped:
            request.data = request.data.astype(">f4")
        outcomes, _ = self.serve(kind, swapped)
        for rid, want in clean.items():
            assert outcomes[rid].status == "served"
            assert np.array_equal(outcomes[rid].values, want.values)
            assert np.array_equal(outcomes[rid].indices, want.indices)


# --------------------------------------------------------------------------- #
# the service: outcomes, backpressure, SLOs
# --------------------------------------------------------------------------- #
SMALL = dict(algo="sort", max_batch=4, max_delay_s=0.01, result_cache=0)


class TestTopKService:
    def test_serves_everything_and_is_correct(self):
        service = TopKService(ServeConfig(**SMALL))
        requests = [make_request(i, i * 0.001, n=256, k=3) for i in range(10)]
        stats = service.run(requests)
        assert stats.served == 10 and stats.shed == 0 and stats.timeout == 0
        assert stats.batches >= 3  # 10 requests, max_batch 4
        for outcome in service.outcomes:
            req = requests[outcome.rid]
            check_topk(req.data, outcome.values, outcome.indices)
            assert outcome.latency_s >= 0
            assert outcome.finish_s >= req.arrival_s

    def test_sheds_over_queue_limit(self):
        config = ServeConfig(algo="sort", max_batch=100, max_delay_s=1.0,
                             queue_limit=3, result_cache=0)
        service = TopKService(config)
        stats = service.run(
            [make_request(i, 0.0, n=128) for i in range(8)]
        )
        assert stats.shed == 5 and stats.served == 3
        shed = [o for o in service.outcomes if o.status == "shed"]
        assert all(o.latency_s is None and o.values is None for o in shed)

    def test_deadline_timeout_while_queued(self):
        # one slow huge batch occupies the device; the late request's
        # deadline expires before its own batch can start
        config = ServeConfig(algo="sort", max_batch=64, max_delay_s=0.0,
                             result_cache=0)
        service = TopKService(config)
        blocker = make_request(0, 0.0, n=1 << 14, k=8)
        late = make_request(1, 1e-9, n=256, k=4, deadline_s=2e-9)
        stats = service.run([blocker, late])
        assert stats.served == 1 and stats.timeout == 1
        assert service.outcomes[-1].rid == 1

    def test_default_deadline_applied(self):
        # a 1ps SLO no batch can meet: every request times out
        config = ServeConfig(algo="sort", max_batch=64, max_delay_s=0.0,
                             default_deadline_s=1e-12, result_cache=0)
        service = TopKService(config)
        stats = service.run([
            make_request(0, 0.0, n=1 << 14, k=8),
            make_request(1, 1e-9, n=256, k=4),
        ])
        assert stats.timeout == 2 and stats.served == 0

    def test_result_cache_serves_repeats_instantly(self):
        service = TopKService(ServeConfig(algo="sort", max_batch=1,
                                          max_delay_s=0.0))
        base = make_request(0, 0.0, n=256)
        repeat = Request(rid=1, data=base.data, k=base.k, largest=False,
                         arrival_s=0.5)
        stats = service.run([base, repeat])
        assert stats.served == 2
        hit = service.outcomes[-1]
        assert hit.cache_hit and hit.latency_s == 0.0 and hit.algo == "cache"
        miss = service.outcomes[0]
        assert np.array_equal(hit.values, miss.values)
        assert stats.cache["result_hits"] == 1

    def test_sharded_service_matches_plain(self, rng):
        n = 1 << 16
        data = rng.standard_normal(n).astype(np.float32)
        request = Request(rid=0, data=data, k=16, largest=True, arrival_s=0.0)
        plain = TopKService(ServeConfig(algo="air_topk", max_delay_s=0.0,
                                        result_cache=0))
        plain.run([Request(rid=0, data=data, k=16, largest=True,
                           arrival_s=0.0)])
        shard = TopKService(ServeConfig(algo="air_topk", max_delay_s=0.0,
                                        result_cache=0, shards=4))
        shard.run([request])
        a, b = plain.outcomes[0], shard.outcomes[0]
        assert b.algo == "sharded(air_topkx4)"
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.indices, b.indices)

    def test_failed_batch_never_drops_outcomes(self):
        """Regression (PR 4): a batch whose execution raises must finish
        every request as ``failed`` — the seed code lost them silently,
        leaving callers waiting forever and ServeStats under-counting."""
        # warp_select caps k at 2048; k=3000 makes every batch raise
        # UnsupportedProblem inside _run_batch's try (a *real* exception,
        # no fault plan involved)
        config = ServeConfig(algo="warp_select", max_batch=4,
                             max_delay_s=0.01, result_cache=0)
        service = TopKService(config)
        requests = [
            make_request(i, i * 0.001, n=4096, k=3000) for i in range(6)
        ]
        stats = service.run(requests)  # must not raise
        assert stats.failed == 6 and stats.served == 0
        assert stats.total == 6  # failed requests count in the totals
        failed = [o for o in service.outcomes if o.status == "failed"]
        assert sorted(o.rid for o in failed) == list(range(6))
        for outcome in failed:
            assert "UnsupportedProblem" in outcome.error
            assert outcome.values is None and outcome.latency_s is None
        # retried once (the default budget) before giving up
        assert stats.retries >= 1

    def test_metrics_emitted(self):
        from repro.obs import metrics_session

        with metrics_session() as registry:
            service = TopKService(ServeConfig(**SMALL))
            service.run([make_request(i, i * 0.001, n=256) for i in range(6)])
        payload = registry.to_payload()
        names = {c["name"] for c in payload["counters"]}
        assert "serve.requests" in names
        hist_names = {h["name"] for h in payload["histograms"]}
        assert {"serve.latency", "serve.batch_occupancy"} <= hist_names
        gauges = {g["name"] for g in payload["gauges"]}
        assert "serve.queue_depth" in gauges

    def test_latency_histogram_labelled_by_status(self):
        """serve.latency gets a per-status series *alongside* the
        unlabelled one, so existing dashboards keep working."""
        from repro.obs import metrics_session

        config = ServeConfig(algo="sort", max_batch=100, max_delay_s=1.0,
                             queue_limit=3, result_cache=0)
        with metrics_session() as registry:
            service = TopKService(config)
            stats = service.run(
                [make_request(i, 0.0, n=128) for i in range(8)]
            )
        assert stats.served == 3 and stats.shed == 5
        series = {
            tuple(sorted(h["labels"].items())): h["count"]
            for h in registry.to_payload()["histograms"]
            if h["name"] == "serve.latency"
        }
        # backward compat: the unlabelled series is untouched — it still
        # records only real service latencies (served/degraded), while the
        # labelled series cover every terminal status via waiting time
        assert series[()] == 3
        assert series[(("status", "served"),)] == 3
        assert series[(("status", "shed"),)] == 5

    def test_queue_depth_sampled_on_admission_and_flush(self):
        """The batcher observer fires at every add/pop/drop, so both the
        gauge and the windowed series see each queue transition."""
        from repro.obs import metrics_session

        events = []
        with metrics_session() as registry:
            service = TopKService(ServeConfig(**SMALL))
            inner = service.batcher.observer

            def spy(event, key, pending):
                events.append((event, pending))
                inner(event, key, pending)

            service.batcher.observer = spy
            service.run([make_request(i, i * 0.001, n=256) for i in range(9)])
        adds = [p for e, p in events if e == "add"]
        pops = [p for e, p in events if e == "pop"]
        assert len(adds) == 9  # one admission sample per queued request
        assert pops and all(p == 0 for p in pops)  # flush drains the group
        # every observer event landed in the windowed telemetry too
        samples = sum(
            w.queue_depth_samples for w in service.telemetry.windows.values()
        )
        assert samples == len(events)
        assert max(
            w.queue_depth_max for w in service.telemetry.windows.values()
        ) == max(p for _e, p in events)
        gauges = {g["name"] for g in registry.to_payload()["gauges"]}
        assert "serve.queue_depth" in gauges

    def test_latency_sample_cap_switches_to_histogram(self):
        """Satellite 6: latencies_s stops growing at the cap and the
        percentile helper falls back to the windowed histogram."""
        service = TopKService(ServeConfig(latency_sample_cap=4, **SMALL))
        stats = service.run(
            [make_request(i, i * 0.001, n=256) for i in range(12)]
        )
        assert stats.served == 12
        assert len(stats.latencies_s) == 4  # capped, not unbounded
        assert stats.latency_truncated is True
        exact = sorted(
            o.latency_s for o in service.outcomes if o.latency_s is not None
        )
        est = stats.latency_percentiles((50.0, 95.0, 99.0))
        # estimates come from the full-run histogram, not the truncated
        # raw list: monotone, clamped to the true range, p99 near the max
        assert est[50.0] <= est[95.0] <= est[99.0]
        for value in est.values():
            assert exact[0] <= value <= exact[-1]
        assert est[99.0] == pytest.approx(exact[-1], rel=0.16)

    def test_latency_uncapped_percentiles_are_exact(self):
        service = TopKService(ServeConfig(**SMALL))
        stats = service.run(
            [make_request(i, i * 0.001, n=256) for i in range(6)]
        )
        assert stats.latency_truncated is False
        from repro.bench.report import percentiles

        assert stats.latency_percentiles((50.0, 99.0)) == percentiles(
            stats.latencies_s, (50.0, 99.0)
        )


# --------------------------------------------------------------------------- #
# load generator + acceptance pin
# --------------------------------------------------------------------------- #
class TestLoadGen:
    def test_poisson_rate_and_determinism(self):
        a = poisson_arrivals(500.0, 4.0, seed=3)
        b = poisson_arrivals(500.0, 4.0, seed=3)
        assert np.array_equal(a, b)
        assert 0.7 * 2000 < len(a) < 1.3 * 2000
        assert np.all(np.diff(a) >= 0) and a[-1] < 4.0

    def test_uniform_arrivals(self):
        arrivals = uniform_arrivals(100.0, 1.0)
        assert len(arrivals) == 100
        assert np.allclose(np.diff(arrivals), 0.01)

    def test_build_requests_pool(self):
        spec = LoadSpec(qps=100, duration_s=0.5, n=512, k=4, payload_pool=3)
        requests = build_requests(spec)
        assert all(r.n == 512 for r in requests)
        distinct = {fingerprint(r.data) for r in requests}
        assert len(distinct) <= 3

    def test_acceptance_occupancy_and_speedup(self):
        """PR acceptance: >= 3x sequential capacity at occupancy >= 8."""
        report, _ = run_serve_bench(
            LoadSpec(qps=200, duration_s=2.0), ServeConfig()
        )
        assert report.stats.shed == 0 and report.stats.timeout == 0
        assert report.stats.mean_occupancy >= 8
        assert report.speedup >= 3.0
        assert set(report.latency) == {50.0, 95.0, 99.0}
        assert report.latency[50.0] <= report.latency[95.0] <= report.latency[99.0]
        text = report.format()
        for needle in ("p50", "p95", "p99", "served", "shed", "timeout"):
            assert needle in text


# --------------------------------------------------------------------------- #
# shared percentile helpers (satellite c)
# --------------------------------------------------------------------------- #
class TestReportHelpers:
    def test_percentile_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 100.0) == 4.0
        assert percentile(values, 50.0) == 2.5

    def test_percentile_order_independent(self):
        assert percentile([3.0, 1.0, 2.0], 50.0) == 2.0

    def test_percentiles_default_quantiles(self):
        out = percentiles(list(range(101)))
        assert out == {50.0: 50.0, 95.0: 95.0, 99.0: 99.0}

    def test_percentile_rejects_empty(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_status_counts(self):
        class P:
            def __init__(self, status):
                self.status = status

        counts = status_counts([P("ok"), P("ok"), P("error")])
        assert counts == {"error": 1, "ok": 2}
