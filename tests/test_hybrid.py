"""Tests for the Dr. Top-K delegate hybrid (paper Sec. 2.2 extension)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import UnsupportedProblem, check_topk, topk
from repro.algos import DrTopKHybrid
from repro.datagen import generate


class TestCorrectness:
    @pytest.mark.parametrize(
        "base", ["air_topk", "grid_select", "sort", "radix_select", "bucket_select"]
    )
    def test_matches_oracle(self, base, rng):
        data = rng.standard_normal(50000).astype(np.float32)
        r = topk(data, 100, algo="drtopk_hybrid", params={"base": base})
        check_topk(data, r.values, r.indices)

    @pytest.mark.parametrize("distribution", ["uniform", "normal", "adversarial"])
    def test_distributions(self, distribution):
        data = generate(distribution, 30000, seed=2)[0]
        r = topk(data, 50, algo="drtopk_hybrid")
        check_topk(data, r.values, r.indices)

    def test_largest_mode(self, rng):
        data = rng.standard_normal(20000).astype(np.float32)
        r = topk(data, 40, algo="drtopk_hybrid", largest=True)
        check_topk(data, r.values, r.indices, largest=True)

    def test_winners_concentrated_in_one_range(self, rng):
        """All top-k elements in a single delegate range must survive —
        the soundness case the delegate argument covers via ties."""
        data = rng.standard_normal(65536).astype(np.float32) + 100
        data[1000:1064] = -np.arange(64, dtype=np.float32)
        r = topk(data, 64, algo="drtopk_hybrid", params={"delegate_size": 64})
        check_topk(data, r.values, r.indices)
        assert set(r.indices.tolist()) == set(range(1000, 1064))

    def test_one_winner_per_range(self, rng):
        """Opposite extreme: each top-k element in a different range."""
        data = rng.standard_normal(65536).astype(np.float32) + 100
        positions = np.arange(0, 65536, 1024)[:32]
        data[positions] = -np.arange(32, dtype=np.float32)
        r = topk(data, 32, algo="drtopk_hybrid", params={"delegate_size": 128})
        check_topk(data, r.values, r.indices)
        assert set(r.indices.tolist()) == set(positions.tolist())

    def test_ties_at_cutoff(self, rng):
        data = rng.choice(np.float32([1.0, 2.0, 3.0]), size=20000)
        r = topk(data, 500, algo="drtopk_hybrid")
        check_topk(data, r.values, r.indices)

    def test_partial_last_range(self, rng):
        """n not divisible by g: the padded tail must never be selected."""
        data = rng.standard_normal(10007).astype(np.float32)
        r = topk(data, 30, algo="drtopk_hybrid", params={"delegate_size": 64})
        check_topk(data, r.values, r.indices)

    def test_batched(self, rng):
        data = rng.standard_normal((4, 20000)).astype(np.float32)
        r = topk(data, 25, algo="drtopk_hybrid")
        check_topk(data, r.values, r.indices)

    def test_k_equals_n(self, rng):
        data = rng.standard_normal(3000).astype(np.float32)
        r = topk(data, 3000, algo="drtopk_hybrid")
        check_topk(data, r.values, r.indices)

    def test_degenerate_delegate_size(self, rng):
        """g=1 falls back to the plain base algorithm."""
        data = rng.standard_normal(5000).astype(np.float32)
        r = topk(data, 10, algo="drtopk_hybrid", params={"delegate_size": 1})
        check_topk(data, r.values, r.indices)


class TestStructure:
    def test_delegate_kernel_present(self, rng):
        data = rng.standard_normal(100000).astype(np.float32)
        r = topk(data, 64, algo="drtopk_hybrid")
        assert "ComputeDelegates" in r.device.kernel_stats
        assert "GatherCandidateRanges" in r.device.kernel_stats

    def test_default_g_balances_phases(self):
        h = DrTopKHybrid()
        g = h._choose_g(1 << 20, 256)
        assert 32 <= g <= 128  # ~sqrt(n/k) = 64

    def test_base_reads_far_less_data(self, rng):
        """The hybrid's raison d'etre: the base only ever touches
        N/g + k*g elements after the one cheap reduction pass."""
        n = 1 << 20
        data = rng.standard_normal(n).astype(np.float32)
        hybrid = topk(data, 64, algo="drtopk_hybrid", params={"base": "sort"})
        plain = topk(data, 64, algo="sort")
        assert hybrid.device.counters.bytes_total < 0.5 * (
            plain.device.counters.bytes_total
        )

    def test_helps_slow_bases_at_scale(self):
        from repro.perf import simulate_topk

        hybrid = simulate_topk(
            "drtopk_hybrid", distribution="uniform", n=1 << 26, k=256, base="sort"
        )
        plain = simulate_topk("sort", distribution="uniform", n=1 << 26, k=256)
        assert plain.time / hybrid.time > 3

    def test_inherits_base_k_cap(self):
        data = np.zeros(100000, dtype=np.float32)
        with pytest.raises(UnsupportedProblem):
            topk(data, 4096, algo="drtopk_hybrid", params={"base": "grid_select"})

    def test_invalid_delegate_size(self):
        with pytest.raises(ValueError):
            DrTopKHybrid(delegate_size=0)

    def test_metadata(self):
        h = DrTopKHybrid()
        assert h.category == "hybrid"
        assert h.library == "Dr.Top-K"

    @pytest.mark.parametrize("base", ["bucket_approx", "twostage_approx", "auto"])
    def test_rejects_a_base_it_cannot_run_exactly(self, base):
        """An approximate base would come back marked exact (the hybrid
        skips the base's recall annotation), and ``auto`` has no
        schedule of its own to charge: both are refused by name."""
        data = generate("uniform", 1 << 20, seed=3)[0]
        with pytest.raises(ValueError, match="valid bases: .*air_topk"):
            topk(data, 1024, algo="drtopk_hybrid", params={"base": base})


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=3000),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=64),
    st.integers(min_value=0, max_value=2**31),
)
def test_hybrid_property(n, k_raw, g, seed):
    rng = np.random.default_rng(seed)
    k = 1 + (k_raw - 1) % n
    data = rng.standard_normal(n).astype(np.float32)
    r = topk(data, k, algo="drtopk_hybrid", params={"delegate_size": g})
    check_topk(data, r.values, r.indices)
