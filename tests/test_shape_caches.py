"""Caches of shape-only host work: launch rates, wave caps, the affine scatter.

Each cache must be invisible: a cached answer equals one computed afresh
bit for bit, an invalid input raises on every call, distinct keys never
alias, and every cache stays within its bound.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import topk
from repro.datagen import generate
from repro.device import A10, A100, H100, V100, Device, launch, occupancy, streaming_grid
from repro.perf import KernelCostModel, LaunchShape, costmodel
from repro.primitives import affine_partitions, batched

#: a spec that differs from every preset in the fields the rates read
OVERRIDE = A100.with_overrides(
    name="A100-override", sm_count=96, peak_bandwidth=2.0e12, peak_fp32=25e12,
    outstanding_bytes_per_warp=1024.0,
)
SPECS = (A10, A100, H100, V100, OVERRIDE)


def reference_price(spec, grid_blocks, block_threads, *, bytes_read=0.0,
                    bytes_written=0.0, flops=0.0, dependent_cycles=0.0,
                    warp_efficiency=1.0) -> tuple[float, float, float, float]:
    """``(duration, mem, compute, latency)`` by the formula, with no cache."""
    warps = grid_blocks * -(-block_threads // spec.warp_size)
    bw = spec.effective_bandwidth * spec.bandwidth_fraction(warps * warp_efficiency)
    nbytes = bytes_read + bytes_written
    sustained = max(0.0, nbytes - warps * spec.outstanding_bytes_per_warp)
    mem = 0.0
    if nbytes > 0:
        mem = spec.mem_latency_cycles / spec.clock_hz
        if sustained > 0 and bw > 0:
            mem += sustained / bw
        mem = max(mem, nbytes / spec.effective_bandwidth)
    comp = spec.effective_fp32 * spec.compute_fraction(warps)
    compute = flops / comp if comp > 0 else 0.0
    latency = dependent_cycles / spec.clock_hz
    return (max(mem, compute, latency) + spec.kernel_tail_latency, mem, compute, latency)


def _hex(values) -> tuple[str, ...]:
    return tuple(float(v).hex() for v in values)


work = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e12))


class TestLaunchRates:
    @settings(max_examples=300, deadline=None)
    @given(
        spec=st.sampled_from(SPECS),
        grid_blocks=st.integers(min_value=1, max_value=1 << 17),
        block_threads=st.one_of(
            st.sampled_from([32, 64, 128, 256, 512, 1024]),
            st.integers(min_value=1, max_value=1024),
        ),
        warp_efficiency=st.one_of(
            st.sampled_from([1.0, 0.5, 0.25]),
            st.floats(min_value=1e-3, max_value=1.0),
        ),
        bytes_read=work, bytes_written=work, flops=work, dependent_cycles=work,
    )
    def test_cached_pricing_matches_the_formula_bit_for_bit(
        self, spec, grid_blocks, block_threads, warp_efficiency,
        bytes_read, bytes_written, flops, dependent_cycles,
    ):
        charge = dict(bytes_read=bytes_read, bytes_written=bytes_written,
                      flops=flops, dependent_cycles=dependent_cycles,
                      warp_efficiency=warp_efficiency)
        want = _hex(reference_price(spec, grid_blocks, block_threads, **charge))
        shape = LaunchShape(grid_blocks, block_threads)
        model = KernelCostModel(spec)
        # a miss or a hit, then a hit on a second model sharing the table,
        # through a shape and through a bare pair
        assert _hex(model.price(shape, **charge)) == want
        assert _hex(model.price(shape, **charge)) == want
        assert _hex(KernelCostModel(spec).price((grid_blocks, block_threads), **charge)) == want
        device = Device(spec)
        duration = device.launch_kernel(
            "K", grid_blocks=grid_blocks, block_threads=block_threads, **charge
        )
        assert float(duration).hex() == want[0]

    def test_rates_are_floats_whatever_the_first_caller_passed(self, monkeypatch):
        monkeypatch.setattr(costmodel, "_RATE_TABLES", {})
        first = KernelCostModel(A100).price((np.int64(7), np.int64(96)), bytes_read=1e6)
        again = KernelCostModel(A100).price((7, 96), bytes_read=1e6)
        assert type(again.duration) is float
        assert _hex(first) == _hex(again)

    def test_an_override_spec_never_reuses_another_specs_rates(self):
        shape = LaunchShape(64, 256)
        charge = dict(bytes_read=4e8, flops=1e9, warp_efficiency=0.5)
        base = KernelCostModel(A100)
        over = KernelCostModel(OVERRIDE)
        assert base._rates is not over._rates
        for model in (base, over, base, over):
            got = model.price(shape, **charge)
            assert _hex(got) == _hex(reference_price(model.spec, 64, 256, **charge))
        assert base.price(shape, **charge) != over.price(shape, **charge)
        # an override that changes nothing is the same spec, with the same rates
        assert KernelCostModel(A100.with_overrides())._rates is base._rates

    @pytest.mark.parametrize("grid_blocks, block_threads, warp_efficiency", [
        (0, 256, 1.0), (-3, 256, 1.0), (math.nan, 256, 1.0), (math.inf, 256, 1.0),
        (4, 0, 1.0), (4, math.nan, 1.0),
        (4, 256, 0.0), (4, 256, 1.5), (4, 256, math.nan), (4, 256, -math.inf),
    ])
    def test_an_invalid_geometry_raises_on_every_call(
        self, grid_blocks, block_threads, warp_efficiency
    ):
        model, device = KernelCostModel(A100), Device()
        for _ in range(3):
            with pytest.raises(ValueError):
                model.price((grid_blocks, block_threads), bytes_read=1.0,
                            warp_efficiency=warp_efficiency)
            with pytest.raises(ValueError):
                device.launch_kernel("K", grid_blocks=grid_blocks,
                                     block_threads=block_threads,
                                     warp_efficiency=warp_efficiency)
        assert device.counters.kernel_launches == 0
        assert len(device.timeline) == 0 and device.elapsed == 0.0

    def test_tables_stay_bounded(self, monkeypatch):
        monkeypatch.setattr(costmodel, "_RATE_TABLES", {})
        monkeypatch.setattr(costmodel, "RATE_CACHE_ENTRIES", 8)
        monkeypatch.setattr(costmodel, "RATE_CACHE_SPECS", 3)
        model = KernelCostModel(A100)
        for grid in range(1, 40):
            got = model.price((grid, 128), bytes_read=1e7)
            assert _hex(got) == _hex(reference_price(A100, grid, 128, bytes_read=1e7))
            assert len(model._rates) <= 8
        for sms in range(10, 20):
            KernelCostModel(A100.with_overrides(sm_count=sms)).price((4, 32))
            assert len(costmodel._RATE_TABLES) <= 3


def reference_grid(spec, n, *, block_threads=256, items_per_thread=8, max_waves=32):
    """:func:`streaming_grid` by its definition, with no cache."""
    if n == 0:
        return 1
    needed = -(-n // (block_threads * items_per_thread))
    resident = occupancy(spec, block_threads=block_threads).blocks_per_sm
    return max(1, min(needed, max(1, spec.sm_count * max(1, resident) * max_waves)))


class TestStreamingGrid:
    @settings(max_examples=200, deadline=None)
    @given(
        spec=st.sampled_from(SPECS),
        n=st.integers(min_value=0, max_value=1 << 34),
        block_threads=st.sampled_from([32, 128, 256, 1024]),
        items_per_thread=st.sampled_from([1, 4, 8, 16]),
        max_waves=st.sampled_from([1, 2, 32]),
    )
    def test_cached_cap_matches_the_definition(
        self, spec, n, block_threads, items_per_thread, max_waves
    ):
        kw = dict(block_threads=block_threads, items_per_thread=items_per_thread,
                  max_waves=max_waves)
        for _ in range(2):
            assert streaming_grid(spec, n, **kw) == reference_grid(spec, n, **kw)

    def test_specs_made_and_dropped_never_alias(self):
        n = 1 << 30  # far past every cap
        for sms in range(8, 40):
            spec = A100.with_overrides(sm_count=sms)
            assert streaming_grid(spec, n) == reference_grid(spec, n)
            del spec

    @pytest.mark.parametrize("block_threads", [0, 2048])
    def test_an_invalid_block_raises_on_every_call(self, block_threads):
        for _ in range(3):
            with pytest.raises(ValueError):
                streaming_grid(A100, 1 << 20, block_threads=block_threads)

    def test_caps_stay_bounded(self, monkeypatch):
        monkeypatch.setattr(launch, "_GRID_CAPS", {})
        monkeypatch.setattr(launch, "GRID_CAP_ENTRIES", 4)
        for waves in range(1, 20):
            assert streaming_grid(A100, 1 << 30, max_waves=waves) == reference_grid(
                A100, 1 << 30, max_waves=waves
            )
            assert len(launch._GRID_CAPS) <= 4


@pytest.fixture
def affine_cache(monkeypatch):
    """An empty scatter cache for one test."""
    monkeypatch.setattr(batched, "_AFFINE_CACHE", {})
    monkeypatch.setattr(batched, "_affine_cached_bytes", 0)
    return batched


def _retained(module) -> int:
    return sum(o.nbytes + s.nbytes for o, s in module._AFFINE_CACHE.values())


class TestAffinePartitions:
    @pytest.mark.parametrize("n, parts, seed", [
        (1, 1, 0), (7, 3, 1), (4096, 64, 0), (1 << 16, 256, 5), (100_003, 999, 2),
    ])
    def test_cached_arrays_equal_a_fresh_scatter_and_refuse_writes(
        self, affine_cache, n, parts, seed
    ):
        fresh_order, fresh_sizes = batched._affine_scatter(n, parts, seed)
        first = affine_partitions(n, parts, seed=seed)
        second = affine_partitions(n, parts, seed=seed)
        assert second[0] is first[0] and second[1] is first[1]
        for order, sizes in (first, second):
            assert order.dtype == fresh_order.dtype
            assert np.array_equal(order, fresh_order)
            assert np.array_equal(sizes, fresh_sizes)
            with pytest.raises(ValueError):
                order[0] = 1
            with pytest.raises(ValueError):
                sizes[0] = 1

    def test_seeds_and_part_counts_do_not_alias(self, affine_cache):
        keys = [(4096, parts, seed) for parts in (16, 32, 64) for seed in (0, 1, 2)]
        for _ in range(2):
            for n, parts, seed in keys:
                order, sizes = affine_partitions(n, parts, seed=seed)
                fresh_order, fresh_sizes = batched._affine_scatter(n, parts, seed)
                assert np.array_equal(order, fresh_order)
                assert np.array_equal(sizes, fresh_sizes)
        orders = {affine_partitions(n, p, seed=s)[0].tobytes() for n, p, s in keys}
        assert len(orders) == len(keys)

    def test_retained_bytes_stay_within_the_budget(self, affine_cache, monkeypatch):
        monkeypatch.setattr(batched, "AFFINE_CACHE_BYTES", 1 << 20)  # 1 MiB
        for i in range(40):
            n = 1 << (12 + i % 6)  # 32 KiB .. 1 MiB of order
            affine_partitions(n, 16, seed=i)
            assert affine_cache._affine_cached_bytes == _retained(affine_cache)
            assert _retained(affine_cache) <= 1 << 20
        # a scatter larger than the whole budget is returned, never retained
        order, _ = affine_partitions(1 << 18, 16, seed=0)
        assert order.size == 1 << 18
        assert (1 << 18, 16, 0) not in affine_cache._AFFINE_CACHE
        assert _retained(affine_cache) <= 1 << 20

    def test_least_recently_used_goes_first(self, affine_cache, monkeypatch):
        one = 8 * 4096 + 8 * 16  # order and sizes of one (4096, 16) scatter
        monkeypatch.setattr(batched, "AFFINE_CACHE_BYTES", 3 * one)
        for seed in (0, 1, 2):
            affine_partitions(4096, 16, seed=seed)
        affine_partitions(4096, 16, seed=0)  # touch: seed 1 is now the oldest
        affine_partitions(4096, 16, seed=3)
        assert [k[2] for k in affine_cache._AFFINE_CACHE] == [2, 0, 3]

    def test_invalid_part_counts_raise_on_every_call(self, affine_cache):
        for _ in range(2):
            for parts in (0, 9):
                with pytest.raises(ValueError):
                    affine_partitions(8, parts)
        assert not affine_cache._AFFINE_CACHE

    @pytest.mark.parametrize("algo", ["bucket_approx", "twostage_approx"])
    @pytest.mark.parametrize("n, k", [(4096, 32), (1 << 14, 128), (3000, 16)])
    def test_batch_runs_equal_single_shot_runs(self, affine_cache, algo, n, k):
        data = generate("normal", n, batch=4, seed=11)
        cold = topk(data, k, algo=algo, seed=7)
        rows = [topk(row, k, algo=algo, seed=7) for row in data]
        assert np.array_equal(cold.values, np.stack([r.values for r in rows]))
        assert np.array_equal(cold.indices, np.stack([r.indices for r in rows]))
        warm = topk(data, k, algo=algo, seed=7)
        assert np.array_equal(warm.values, cold.values)
        assert np.array_equal(warm.indices, cold.indices)
        assert warm.time == cold.time
