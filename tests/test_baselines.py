"""Per-baseline behavioural tests: each method's signature cost structure."""

from __future__ import annotations

import numpy as np
import pytest

from repro import check_topk, topk
from repro.algos import (
    AlgorithmInfo,
    BitonicTopK,
    BlockSelect,
    BucketSelect,
    QuickSelect,
    RadixSelect,
    SampleSelect,
    SortTopK,
    WarpSelect,
    algorithm_names,
    available_algorithms,
    get_algorithm,
)
from repro.datagen import generate


class TestRegistry:
    def test_full_roster(self):
        """The paper's Table 1 roster, the two contributions, and the
        cost-model dispatcher."""
        assert algorithm_names() == [
            "air_topk",
            "auto",
            "bitonic_topk",
            "block_select",
            "bucket_approx",
            "bucket_select",
            "drtopk_hybrid",
            "grid_select",
            "quick_select",
            "radix_select",
            "sample_select",
            "sort",
            "twostage_approx",
            "warp_select",
        ]

    def test_capability_records(self):
        """available_algorithms() returns structured capability records."""
        infos = available_algorithms()
        assert all(isinstance(i, AlgorithmInfo) for i in infos)
        assert [i.name for i in infos] == algorithm_names()
        by_name = {i.name: i for i in infos}
        assert by_name["warp_select"].max_k == 2048
        assert by_name["bitonic_topk"].max_k == 256
        assert by_name["grid_select"].batched_execution
        assert not by_name["sort"].batched_execution
        assert "float32" in by_name["air_topk"].dtypes
        # tunables are discovered from the constructors
        assert "alpha" in by_name["air_topk"].tunables
        assert "candidates" in by_name["auto"].tunables

    def test_kwargs_forwarded(self):
        air = get_algorithm("air_topk", params={"alpha": 64.0, "adaptive": False})
        assert air.alpha == 64.0 and air.adaptive is False

    @pytest.mark.parametrize(
        "name",
        [
            "air_topk",
            "bucket_select",
            "quick_select",
            "sample_select",
            "bucket_approx",
            "twostage_approx",
        ],
    )
    def test_removed_fused_param_is_a_value_error(self, name):
        info = {i.name: i for i in available_algorithms()}[name]
        with pytest.raises(ValueError, match=name) as err:
            get_algorithm(name, params={"fused": False})
        assert "'fused'" in str(err.value)
        assert str(list(info.tunables)) in str(err.value)

    def test_typo_param_is_a_value_error(self):
        with pytest.raises(ValueError, match="air_topk has no tunable 'alhpa'"):
            get_algorithm("air_topk", params={"alhpa": 64.0})

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            get_algorithm("radixsort9000")

    def test_table1_metadata(self):
        """Library provenance and taxonomy match the paper's Table 1."""
        expect = {
            "sort": ("CUB", "sorting"),
            "warp_select": ("Faiss", "partial sorting"),
            "block_select": ("Faiss", "partial sorting"),
            "bitonic_topk": ("DrTopK", "partial sorting"),
            "quick_select": ("GpuSelection", "partition-based"),
            "bucket_select": ("GpuSelection", "partition-based"),
            "sample_select": ("GpuSelection", "partition-based"),
            "radix_select": ("DrTopK", "partition-based"),
        }
        for name, (library, category) in expect.items():
            algo = get_algorithm(name)
            assert algo.library == library
            assert algo.category == category

    def test_on_the_fly_flags(self):
        """Sec. 2.2: the queue family processes data on-the-fly."""
        for name in ("warp_select", "block_select", "grid_select"):
            assert get_algorithm(name).on_the_fly
        for name in ("sort", "radix_select", "air_topk", "bitonic_topk"):
            assert not get_algorithm(name).on_the_fly


class TestSort:
    def test_kernel_structure(self, rng):
        """One histogram + 4 onesweep passes + gather, per problem."""
        data = rng.standard_normal(10000).astype(np.float32)
        r = topk(data, 10, algo="sort")
        assert r.device.counters.kernel_launches == 6

    def test_batch_serialises(self, rng):
        data = rng.standard_normal((5, 4000)).astype(np.float32)
        r = topk(data, 10, algo="sort")
        assert r.device.counters.kernel_launches == 5 * 6

    def test_moves_full_payload(self, rng):
        """Sorting moves ~16 bytes per element per pass — the waste the
        paper's Sec. 1 motivates partial methods with."""
        n = 1 << 16
        data = rng.standard_normal(n).astype(np.float32)
        r = topk(data, 10, algo="sort")
        assert r.device.counters.bytes_total > 60.0 * n

    def test_k_independent_cost(self, rng):
        data = rng.standard_normal(1 << 15).astype(np.float32)
        small = topk(data, 8, algo="sort").time
        large = topk(data, 8192, algo="sort").time
        assert large < small * 1.5


class TestRadixSelect:
    def test_host_round_trips_per_iteration(self, rng):
        """Every iteration copies the histogram down and parameters up —
        the overhead AIR Top-K eliminates (Fig. 8)."""
        data = rng.standard_normal(1 << 16).astype(np.float32)
        r = topk(data, 100, algo="radix_select")
        c = r.device.counters
        assert c.d2h_transfers >= 2
        assert c.h2d_transfers >= 2
        assert c.syncs > 2

    def test_batch_serialises(self, rng):
        data = rng.standard_normal((4, 8192)).astype(np.float32)
        single = topk(data[:1], 64, algo="radix_select")
        batch = topk(data, 64, algo="radix_select")
        assert batch.device.counters.d2h_transfers == pytest.approx(
            4 * single.device.counters.d2h_transfers, abs=4
        )

    def test_adversarial_skips_identity_filters(self):
        """When one bucket holds everything, the filter pass is skipped."""
        adv = generate("adversarial", 1 << 15, seed=1, adversarial_m=20)[0]
        uni = generate("uniform", 1 << 15, seed=1)[0]
        r_adv = topk(adv, 100, algo="radix_select")
        r_uni = topk(uni, 100, algo="radix_select")
        adv_filters = r_adv.device.kernel_stats.get("Filter")
        uni_filters = r_uni.device.kernel_stats.get("Filter")
        assert adv_filters.launches < uni_filters.launches

    def test_eight_bit_digits(self):
        assert RadixSelect.digit_bits == 8

    @pytest.mark.parametrize("dtype", ["float16", "float32", "float64"])
    @pytest.mark.parametrize("largest", [False, True])
    def test_every_row_runs_every_pass_and_one_gather(self, rng, dtype, largest):
        """Every row runs all ``itemsize * 8 / 8`` digit passes and ends in
        one LastGather: the run always owes a result after the last pass."""
        data = rng.standard_normal((5, 3000)).astype(dtype)
        data[1] = 0.5  # one bucket holds the whole row in every pass
        data[2, :2000] = data[2, 0]  # ties across the k-th key
        r = RadixSelect().select(data, 64, largest=largest)
        names = [e.name for e in r.device.timeline]
        starts = [i for i, name in enumerate(names) if name == "IndexInit"]
        assert len(starts) == 5
        for lo, hi in zip(starts, starts[1:] + [len(names)]):
            row = names[lo:hi]
            assert row.count("CalculateOccurrence") == np.dtype(dtype).itemsize
            assert row.count("LastGather") == 1


class TestWarpBlockSelect:
    def test_single_block_per_problem(self, rng):
        data = rng.standard_normal(1 << 14).astype(np.float32)
        for algo in ("warp_select", "block_select"):
            r = topk(data, 100, algo=algo)
            assert r.device.counters.kernel_launches == 1

    def test_block_faster_than_warp(self, rng):
        """BlockSelect's 4 warps consistently beat WarpSelect (Sec. 5.3)."""
        data = rng.standard_normal(1 << 16).astype(np.float32)
        warp = topk(data, 100, algo="warp_select")
        block = topk(data, 100, algo="block_select")
        assert block.time < warp.time

    def test_batch_parallelises_across_blocks(self, rng):
        """Faiss launches one block per query: batch 8 runs concurrently."""
        data = rng.standard_normal((8, 1 << 14)).astype(np.float32)
        single = topk(data[0], 64, algo="block_select")
        batch = topk(data, 64, algo="block_select")
        assert batch.time < 3 * single.time

    def test_lane_counts(self):
        assert WarpSelect().lanes == 32
        assert BlockSelect().lanes == 128

    def test_max_k(self):
        assert WarpSelect.max_k == 2048
        assert BlockSelect.max_k == 2048


class TestBitonicTopK:
    def test_max_k(self):
        assert BitonicTopK.max_k == 256

    def test_non_power_of_two_k(self, rng):
        data = rng.standard_normal(5000).astype(np.float32)
        r = topk(data, 100, algo="bitonic_topk")  # internally padded to 128
        check_topk(data, r.values, r.indices)

    def test_phase_count(self, rng):
        """log2(n/k) merge-reduce phases after the local sort."""
        data = rng.standard_normal(64 * 128).astype(np.float32)
        r = topk(data, 128, algo="bitonic_topk")
        merge_kernels = [
            name for name in r.device.kernel_stats if name.startswith("BitonicMergeReduce")
        ]
        assert len(merge_kernels) == 6  # 64 runs -> 6 halvings

    def test_time_grows_with_k(self, rng):
        from repro.perf import simulate_topk

        t8 = simulate_topk("bitonic_topk", distribution="uniform", n=1 << 22, k=8).time
        t256 = simulate_topk(
            "bitonic_topk", distribution="uniform", n=1 << 22, k=256
        ).time
        assert t256 > t8


class TestQuickSelect:
    def test_host_coordination(self, rng):
        data = rng.standard_normal(1 << 16).astype(np.float32)
        r = topk(data, 100, algo="quick_select")
        assert r.device.counters.d2h_transfers >= 1

    def test_deterministic_given_seed(self, rng):
        data = rng.standard_normal(1 << 14).astype(np.float32)
        a = topk(data, 50, algo="quick_select", seed=7)
        b = topk(data, 50, algo="quick_select", seed=7)
        assert np.array_equal(a.indices, b.indices)
        assert a.time == b.time

    def test_terminal_sort_for_small_input(self, rng):
        data = rng.standard_normal(512).astype(np.float32)
        r = topk(data, 10, algo="quick_select")
        assert "QuickSelectTerminalSort" in r.device.kernel_stats
        assert "QuickSelectCount" not in r.device.kernel_stats


class TestBucketSelect:
    def test_minmax_reduction_per_iteration(self, rng):
        data = rng.standard_normal(1 << 16).astype(np.float32)
        r = topk(data, 100, algo="bucket_select")
        assert "MinMaxReduce" in r.device.kernel_stats

    def test_degenerate_all_equal(self):
        data = np.full(1 << 15, 7.0, dtype=np.float32)
        r = topk(data, 100, algo="bucket_select")
        check_topk(data, r.values, r.indices)

    def test_extreme_spread(self):
        """Bucket boundaries with min/max at float extremes must not
        overflow the index arithmetic."""
        rng = np.random.default_rng(1)
        data = rng.standard_normal(1 << 15).astype(np.float32)
        data[0] = -3.4e38
        data[1] = 3.4e38
        r = topk(data, 100, algo="bucket_select")
        check_topk(data, r.values, r.indices)


class TestSampleSelect:
    def test_sample_sort_kernel(self, rng):
        data = rng.standard_normal(1 << 16).astype(np.float32)
        r = topk(data, 100, algo="sample_select")
        assert "SampleGatherSort" in r.device.kernel_stats

    def test_massive_duplicates_terminate(self, rng):
        """Splitters drawn from two distinct values cannot split further;
        the terminal sort must still finish the job."""
        data = rng.choice(np.float32([1.0, 2.0]), size=1 << 15)
        r = topk(data, 5000, algo="sample_select")
        check_topk(data, r.values, r.indices)

    def test_sample_size_bounded_by_candidates(self, rng):
        data = rng.standard_normal(2000).astype(np.float32)
        r = topk(data, 3, algo="sample_select")
        check_topk(data, r.values, r.indices)
