"""Behavioural tests for AIR Top-K: fusion, adaptivity, early stopping."""

from __future__ import annotations

import numpy as np
import pytest

from repro import AIRTopK, check_topk, topk
from repro.datagen import generate
from repro.device import A100, Device


#: facade-level keywords; everything else is AIR tuning and goes in params=
_FACADE_KEYS = ("largest", "seed", "device", "batch")


def run_air(data, k, **kwargs):
    facade = {key: kwargs.pop(key) for key in _FACADE_KEYS if key in kwargs}
    return topk(data, k, algo="air_topk", params=kwargs or None, **facade)


class TestIterationFusedDesign:
    def test_four_kernel_launches(self, rng):
        """3 fused kernels + 1 last filter (Sec. 3.1, Fig. 3)."""
        data = rng.standard_normal(1 << 16).astype(np.float32)
        r = run_air(data, 256)
        assert r.device.counters.kernel_launches == 4
        names = [e.name for e in r.device.timeline.stream_events("gpu")]
        assert names == [
            "iteration_fused_kernel(1)",
            "iteration_fused_kernel(2)",
            "iteration_fused_kernel(3)",
            "last_filter_kernel",
        ]

    def test_no_pcie_traffic(self, rng):
        """The iteration-fused design removes every host round trip."""
        data = rng.standard_normal(1 << 14).astype(np.float32)
        r = run_air(data, 100)
        c = r.device.counters
        assert c.pcie_transfers == 0
        assert c.pcie_bytes == 0

    def test_only_final_sync(self, rng):
        data = rng.standard_normal(1 << 14).astype(np.float32)
        r = run_air(data, 100)
        assert r.device.counters.syncs == 1  # the benchmark's end-of-run sync

    def test_batch_shares_launches(self, rng):
        """One launch set covers the whole batch — no per-problem kernels."""
        data = rng.standard_normal((50, 4096)).astype(np.float32)
        r = run_air(data, 64)
        assert r.device.counters.kernel_launches == 4

    def test_input_loaded_twice_at_most(self, rng):
        """Uniform data: first pass reads N, the fused filter re-reads N,
        later passes read only the (buffered) survivors — the Sec. 3.1
        traffic argument (2*G1 + sum G_i)."""
        n = 1 << 18
        data = generate("uniform", n, seed=1)[0]
        r = run_air(data, 1024)
        read = r.device.counters.bytes_read
        assert read < 2.3 * 4 * n  # ~2 full passes plus small buffers
        assert read >= 2.0 * 4 * n

    def test_eleven_bit_digits(self):
        air = AIRTopK()
        assert [p.width for p in air.passes] == [11, 11, 10]

    def test_custom_digit_width(self, rng):
        air = AIRTopK(digit_bits=8)
        assert len(air.passes) == 4
        data = rng.standard_normal(5000).astype(np.float32)
        r = air.select(data, 10)
        check_topk(data, r.values, r.indices)
        assert r.device.counters.kernel_launches == 5  # 4 fused + last filter


class TestAdaptiveStrategy:
    def test_uniform_adopts_buffer(self, rng):
        """Evenly distributed data: survivors collapse, buffers pay off."""
        data = generate("uniform", 1 << 18, seed=2)[0]
        r = run_air(data, 128)
        # candidate buffers stay within the adaptive bound
        bound = 2 * 8.0 * (1 << 18) / 128.0
        assert r.device.counters.peak_workspace_bytes <= bound + 1

    def test_adversarial_skips_buffer(self):
        """Radix-adversarial data: nothing is eliminated early, so the
        adaptive kernel never writes candidates (Sec. 3.2)."""
        data = generate("adversarial", 1 << 16, seed=3, adversarial_m=20)[0]
        adaptive = run_air(data, 64)
        static = run_air(data, 64, adaptive=False)
        assert (
            adaptive.device.counters.bytes_written
            < static.device.counters.bytes_written / 2
        )

    def test_adaptive_never_more_traffic(self):
        """Adaptive traffic <= static traffic on every distribution."""
        for dist in ("uniform", "normal", "adversarial"):
            data = generate(dist, 1 << 16, seed=4)[0]
            adaptive = run_air(data, 256)
            static = run_air(data, 256, adaptive=False)
            assert (
                adaptive.device.counters.bytes_total
                <= static.device.counters.bytes_total * 1.01
            )

    def test_adaptive_faster_on_adversarial(self):
        data = generate("adversarial", 1 << 20, seed=5, adversarial_m=20)[0]
        adaptive = run_air(data, 2048)
        static = run_air(data, 2048, adaptive=False)
        assert static.time / adaptive.time > 1.5

    def test_workspace_bound_scales_with_alpha(self, rng):
        """Sec. 3.2: raising alpha shrinks the memory footprint bound."""
        data = generate("uniform", 1 << 16, seed=6)[0]
        small = run_air(data, 64, alpha=1024.0)
        large = run_air(data, 64, alpha=16.0)
        assert (
            small.device.counters.peak_workspace_bytes
            < large.device.counters.peak_workspace_bytes
        )

    def test_alpha_lower_bound_enforced(self):
        """alpha < 4 makes buffering strictly unprofitable (Sec. 3.2)."""
        with pytest.raises(ValueError):
            AIRTopK(alpha=2.0)
        AIRTopK(alpha=4.0)  # the bound itself is allowed

    def test_static_ablation_correct(self, rng):
        for dist in ("uniform", "adversarial"):
            data = generate(dist, 20000, seed=7)[0]
            r = run_air(data, 333, adaptive=False)
            check_topk(data, r.values, r.indices)

    def test_mixed_distribution_buffers_late(self):
        """Adversarial leading bits + uniform tail: the strategy skips
        buffering early and adopts it in later iterations (Sec. 3.2)."""
        data = generate("adversarial", 1 << 17, seed=8, adversarial_m=11)[0]
        r = run_air(data, 64)
        check_topk(data, r.values, r.indices)
        # some buffering happened (bytes written beyond outputs+histograms)
        assert r.device.counters.peak_workspace_bytes > 0


class TestEarlyStopping:
    def test_k_equals_n_stops_after_first_pass(self, rng):
        """The trivial K = N case (Sec. 3.3): one histogram pass + gather."""
        data = rng.standard_normal(1 << 16).astype(np.float32)
        n = data.shape[0]
        with_stop = run_air(data, n)
        without = run_air(data, n, early_stop=False)
        assert with_stop.device.counters.bytes_read < without.device.counters.bytes_read
        check_topk(data, with_stop.values, with_stop.indices)

    def test_tie_groups_trigger_stop(self, rng):
        """Heavy ties make the updated K equal the updated candidate count
        mid-computation, the case Sec. 3.3 describes."""
        pool = rng.standard_normal(64).astype(np.float32)
        data = rng.choice(pool, size=1 << 16)
        # choose k at a tie-group boundary
        values, counts = np.unique(data, return_counts=True)
        k = int(counts[:3].sum())
        with_stop = run_air(data, k)
        without = run_air(data, k, early_stop=False)
        check_topk(data, with_stop.values, with_stop.indices)
        assert with_stop.time <= without.time

    def test_ablation_still_correct(self, rng):
        data = rng.standard_normal(30000).astype(np.float32)
        r = run_air(data, 30000, early_stop=False)
        check_topk(data, r.values, r.indices)

    def test_never_slower(self, rng):
        for k in (1, 100, 5000, 30000):
            data = rng.standard_normal(30000).astype(np.float32)
            on = run_air(data, k)
            off = run_air(data, k, early_stop=False)
            assert on.time <= off.time * 1.001


class TestLastFilterFusion:
    def test_correct_for_all_distributions(self):
        for dist in ("uniform", "normal", "adversarial"):
            data = generate(dist, 30000, seed=17)[0]
            r = run_air(data, 345, fuse_last_filter=True)
            check_topk(data, r.values, r.indices)

    def test_one_fewer_launch(self, rng):
        data = rng.standard_normal(1 << 16).astype(np.float32)
        plain = run_air(data, 256)
        fused = run_air(data, 256, fuse_last_filter=True)
        assert (
            fused.device.counters.kernel_launches
            == plain.device.counters.kernel_launches - 1
        )

    def test_papers_tradeoff(self):
        """Sec. 3.1: fusing helps uniform data, hurts adversarial data —
        the reason the paper does not adopt it."""
        uni = generate("uniform", 1 << 20, seed=18)[0]
        adv = generate("adversarial", 1 << 20, seed=18, adversarial_m=20)[0]
        assert (
            run_air(uni, 2048, fuse_last_filter=True).time
            < run_air(uni, 2048).time
        )
        assert (
            run_air(adv, 2048, fuse_last_filter=True).time
            > run_air(adv, 2048).time
        )

    def test_forces_final_buffer(self):
        """The fused filter materialises the final candidate list even when
        the adaptive rule would skip it."""
        adv = generate("adversarial", 1 << 18, seed=19, adversarial_m=20)[0]
        from repro import AIRTopK

        air = AIRTopK(fuse_last_filter=True)
        air.select(adv, 64)
        assert air.last_trace[-1].buffered
        air_plain = AIRTopK()
        air_plain.select(adv, 64)
        assert not air_plain.last_trace[-1].buffered

    def test_with_early_stop(self, rng):
        data = rng.standard_normal(8192).astype(np.float32)
        r = run_air(data, 8192, fuse_last_filter=True)
        check_topk(data, r.values, r.indices)


class TestAIRInternals:
    def test_candidate_bookkeeping_consistency(self, rng):
        """The internal assertion (histogram count vs loaded candidates)
        holds across many random inputs — run a spread of shapes."""
        for n in (100, 1000, 2049, 65536):
            for k in (1, n // 3 + 1, n):
                data = rng.standard_normal(n).astype(np.float32)
                r = run_air(data, k)
                check_topk(data, r.values, r.indices)

    def test_duplicated_digit_prefixes(self):
        """Keys where an early digit pattern repeats in later positions —
        the case that breaks the naive Algorithm-1 reload test and needs
        the RAFT full-prefix semantics."""
        base = np.uint32(0b01010101010_01010101010_0101010101)
        keys = np.array(
            [base, base ^ np.uint32(1), base ^ np.uint32(1 << 11)], dtype=np.uint32
        )
        data = keys.view(np.float32)
        rng = np.random.default_rng(0)
        filler = rng.uniform(1.0, 2.0, 5000).astype(np.float32)
        all_data = np.concatenate([data, filler])
        r = run_air(all_data, 50)
        check_topk(all_data, r.values, r.indices)

    def test_shared_device_accumulates(self, rng):
        """Two runs against one device accumulate time and counters."""
        dev = Device(A100)
        data = rng.standard_normal(4096).astype(np.float32)
        r1 = run_air(data, 10, device=dev)
        t1 = dev.elapsed
        r2 = run_air(data, 10, device=dev)
        assert dev.elapsed > t1
        assert dev.counters.kernel_launches == 8

    @pytest.mark.parametrize("first", ["float16", "float64"])
    def test_reused_instance_follows_each_runs_key_width(self, rng, first):
        """One instance over keys of another width first: a 32-bit run
        afterwards takes 32-bit passes, as a fresh instance does (it used
        to keep the previous run's 16- or 64-bit layout)."""
        data = rng.standard_normal(4096).astype(np.float32)
        air = AIRTopK()
        air.select(data.astype(first), 32)
        again, fresh = air.select(data, 32), AIRTopK().select(data, 32)
        check_topk(data, again.values, again.indices)
        assert again.time == fresh.time
        assert again.device.counters.kernel_launches == 4
