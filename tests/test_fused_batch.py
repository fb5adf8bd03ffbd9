"""Properties of the fused batched hot paths.

The fusion work (AIR Top-K, BucketSelect, the queue/grid family) replaces
per-row host loops with one launch set over the whole batch.  These tests
pin the scheduling invariants that rewrite must preserve:

* **Row-order equivariance** — permuting the rows of a batch permutes the
  outputs exactly, and leaves the launch accounting (kernel launches,
  per-kernel traffic, syncs, PCIe transfers) bit-identical: a fused pass
  sums the same per-row traffic in a different order.
* **The capability flag is truthful** — every registered algorithm's
  ``batched_execution`` flag must match its observable launch behaviour:
  fused algorithms launch the same number of kernels for a replicated
  batch as for one row; per-row algorithms replay their launches once per
  row.
* **The sharded coordinator knows about fused batches** — its merge
  launches carry a per-problem serial term that scales with the batch,
  and its result meta reports which launch-cost regime the shards ran in.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.algos import get_algorithm
from repro.bench import ALL_ALGORITHMS
from repro.device import Device, get_spec
from repro.perf import calibration as cal
from repro.serve import sharded_topk
from repro.verify import check_topk

settings.register_profile("batched", deadline=None, max_examples=25)
settings.load_profile("batched")

SPEC = get_spec("A100")

#: algorithms with a vectorised (one launch set per pass) batched path
FUSED = (
    "air_topk",
    "bucket_select",
    "grid_select",
    "warp_select",
    "block_select",
    "quick_select",
    "sample_select",
)


def _batch_data(batch: int, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((batch, n)).astype(np.float32)
    flat = data.ravel()
    flat[rng.integers(0, flat.size, 8)] = np.inf
    flat[rng.integers(0, flat.size, 8)] = -np.inf
    return data


def _run_counted(algo: str, data: np.ndarray, k: int):
    dev = Device(SPEC)
    res = get_algorithm(algo).select(data, k, device=dev, seed=7)
    stats = {
        name: (s.launches, s.bytes_read, s.bytes_written, s.flops)
        for name, s in dev.kernel_stats.items()
    }
    counters = {
        key: val
        for key, val in vars(dev.counters).items()
        if not key.startswith("_")
    }
    return res, counters, stats


@pytest.mark.parametrize("algo", FUSED)
class TestRowOrderEquivariance:
    @given(
        batch=st.integers(min_value=2, max_value=23),
        n=st.sampled_from([64, 256, 1024]),
        k=st.sampled_from([1, 8, 64]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_permuting_rows_permutes_outputs(self, algo, batch, n, k, seed):
        if k > n or get_algorithm(algo).supports(n, k) is not None:
            return
        data = _batch_data(batch, n, seed)
        perm = np.random.default_rng(seed + 1).permutation(batch)
        res, counters, stats = _run_counted(algo, data, k)
        res_p, counters_p, stats_p = _run_counted(algo, data[perm], k)

        # outputs are permuted exactly alongside the rows
        assert res_p.values.tobytes() == res.values[perm].tobytes()
        assert np.array_equal(res_p.indices, res.indices[perm])
        # the fused launch accounting is row-order independent: the same
        # number of grid launches and passes, the same traffic sums, the
        # same synchronisations and PCIe transfers
        assert counters_p == counters
        assert stats_p == stats


class TestBatchedFlagIsTruthful:
    """``batched_execution`` must describe real launch behaviour."""

    N = 512
    K = 16
    BATCH = 5

    @pytest.mark.parametrize("algo", ALL_ALGORITHMS)
    def test_flag_matches_launch_counts(self, algo):
        algorithm = get_algorithm(algo)
        if algorithm.supports(self.N, self.K) is not None:
            pytest.skip(f"{algo} does not support n={self.N}, k={self.K}")
        row = _batch_data(1, self.N, seed=3)
        replicated = np.repeat(row, self.BATCH, axis=0)

        _, single, _ = _run_counted(algo, row, self.K)
        _, batched, _ = _run_counted(algo, replicated, self.K)
        if algorithm.batched_execution:
            # one launch set covers the whole batch: replicating the row
            # adds traffic, never launches
            assert batched["kernel_launches"] == single["kernel_launches"], (
                f"{algo} advertises batched_execution but launched "
                f"{batched['kernel_launches']} kernels for batch="
                f"{self.BATCH} vs {single['kernel_launches']} for batch=1"
            )
        else:
            # the host replays the per-row schedule once per row (the final
            # result sync is shared, so launches — not syncs — scale)
            assert (
                batched["kernel_launches"]
                == self.BATCH * single["kernel_launches"]
            ), (
                f"{algo} advertises per-row execution but launched "
                f"{batched['kernel_launches']} kernels for batch="
                f"{self.BATCH} vs {single['kernel_launches']} for batch=1"
            )


class TestSharderFusedBatchCosts:
    def test_merge_cost_scales_with_batch(self):
        rng = np.random.default_rng(11)
        small = rng.standard_normal((2, 4096)).astype(np.float32)
        # identical per-row problems, 4x the rows: the merge tree handles
        # 4x the candidates and its fixed per-problem chain is 4x as long
        big = np.tile(small, (4, 1))
        r_small = sharded_topk(small, 32, shards=4, algo="sort")
        r_big = sharded_topk(big, 32, shards=4, algo="sort")

        def merge_fixed_cycles(result):
            dev = result.device
            total = 0.0
            for name, stats in dev.kernel_stats.items():
                if name.startswith("shard_merge_l"):
                    total += stats.time
            return total

        assert merge_fixed_cycles(r_big) > merge_fixed_cycles(r_small)
        # the per-problem serial term is priced from the calibration
        # constant, which exists and is positive
        assert cal.MERGE_PER_PROBLEM_CYCLES > 0

    @pytest.mark.parametrize(
        "algo,expected", [("sort", False), ("air_topk", True)]
    )
    def test_meta_reports_launch_regime(self, algo, expected):
        data = np.random.default_rng(5).standard_normal((3, 2048)).astype(
            np.float32
        )
        result = sharded_topk(data, 16, shards=2, algo=algo)
        assert result.meta["batched_execution"] is expected


def _wide_rows(dtype: str, batch: int, n: int, seed: int) -> np.ndarray:
    """Rows of 64-bit values whose encoded keys differ in the high word."""
    rng = np.random.default_rng(seed)
    if dtype == "float64":
        return rng.standard_normal((batch, n))
    info = np.iinfo(dtype)
    return rng.integers(info.min, info.max, size=(batch, n), dtype=dtype)


@pytest.mark.parametrize("dtype", ("float64", "int64", "uint64"))
class TestWideKeys:
    """64-bit keys through the fused partition steps: pivots and splitter
    searches must compare whole keys, not their low 32 bits."""

    def test_quick_select_pivots_split_wide_keys(self, dtype):
        data = _wide_rows(dtype, 1, 2**14, 3)
        dev = Device(SPEC)
        res = get_algorithm("quick_select").select(data, 32, device=dev)
        check_topk(data, res.values, res.indices)
        # median-of-3 pivots halve 2^14 candidates to the 1,024 terminal
        # size in a handful of levels, not the 128-level cap
        assert dev.kernel_stats["QuickSelectCount"].launches < 16

    def test_bucket_select_splits_a_row_spanning_every_key(self, dtype):
        # both extremes of the dtype in one row: for 64-bit integers the
        # encoded keys span the whole uint64 range, whose bucket width
        # 1 + hi - lo wraps to 0 in uint64
        data = _wide_rows(dtype, 1, 2**14, 5)
        if dtype == "float64":
            data[0, :2] = -np.inf, np.inf
        else:
            data[0, :2] = np.iinfo(dtype).min, np.iinfo(dtype).max
        dev = Device(SPEC)
        algo = get_algorithm("bucket_select")
        res = algo.select(data, 32, device=dev)
        check_topk(data, res.values, res.indices)
        # 256 linear buckets shrink 2^14 candidates to the terminal size in
        # a few iterations, far below the cap
        assert dev.kernel_stats["MinMaxReduce"].launches < algo.max_iterations // 8

    def test_sample_select_flat_search_keeps_rows_apart(self, dtype):
        # 2,000 copies of each row's minimum keep more than the terminal
        # size alive after iteration 0, so every row reaches the flat
        # splitter search together
        data = _wide_rows(dtype, 3, 2**13, 4)
        data[:, :2000] = data.min(axis=1, keepdims=True)
        res = get_algorithm("sample_select").select(data, 16)
        check_topk(data, res.values, res.indices)
