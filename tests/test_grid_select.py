"""Behavioural tests for GridSelect and its streaming interface."""

from __future__ import annotations

import numpy as np
import pytest

from repro import GridSelect, GridSelectStream, check_topk, topk
from repro.errors import InputError
from repro.device import A100, A10, Device
from repro.verify import oracle_topk_values


class TestMultiBlock:
    def test_block_count_scales_with_n(self):
        gs = GridSelect()
        small = gs.num_blocks(A100, 1 << 12)
        large = gs.num_blocks(A100, 1 << 26)
        assert small == 1
        assert large == 2 * A100.sm_count  # capped at two waves

    def test_block_count_scales_with_device(self):
        gs = GridSelect()
        assert gs.num_blocks(A10, 1 << 30) == 2 * A10.sm_count

    def test_single_block_skips_merge_kernel(self, rng):
        data = rng.standard_normal(2048).astype(np.float32)
        r = topk(data, 16, algo="grid_select")
        names = [e.name for e in r.device.timeline.stream_events("gpu")]
        assert "GridSelectMerge" not in names
        assert r.device.counters.kernel_launches == 1

    def test_multi_block_has_merge_kernel(self, rng):
        data = rng.standard_normal(1 << 17).astype(np.float32)
        r = topk(data, 16, algo="grid_select")
        names = [e.name for e in r.device.timeline.stream_events("gpu")]
        assert "GridSelectMerge" in names

    def test_correct_across_block_boundaries(self, rng):
        """Winners concentrated in one slice must survive the merge."""
        data = rng.standard_normal(1 << 17).astype(np.float32) + 10
        data[5000:5100] = -np.arange(100, dtype=np.float32)  # all in one slice
        r = topk(data, 100, algo="grid_select")
        check_topk(data, r.values, r.indices)
        assert set(r.indices.tolist()) == set(range(5000, 5100))

    def test_winners_spread_across_all_slices(self, rng):
        data = rng.standard_normal(1 << 17).astype(np.float32)
        r = topk(data, 500, algo="grid_select")
        check_topk(data, r.values, r.indices)


class TestQueueAblation:
    def test_thread_queue_variant_correct(self, rng):
        data = rng.standard_normal(1 << 15).astype(np.float32)
        r = topk(data, 100, algo="grid_select", params={"queue": "thread"})
        check_topk(data, r.values, r.indices)

    def test_shared_queue_faster_at_scale(self):
        """Fig. 11: the shared queue wins once the input is large."""
        from repro.perf import simulate_topk

        shared = simulate_topk(
            "grid_select", distribution="uniform", n=1 << 26, k=256
        )
        thread = simulate_topk(
            "grid_select", distribution="uniform", n=1 << 26, k=256, queue="thread"
        )
        assert 1.0 < thread.time / shared.time < 2.0

    def test_invalid_queue_mode(self):
        with pytest.raises(ValueError):
            GridSelect(queue="register")


class TestGridSelectStream:
    def test_matches_batch_result(self, rng):
        data = rng.standard_normal(50000).astype(np.float32)
        stream = GridSelectStream(64)
        for chunk in np.array_split(data, 13):
            stream.push(chunk)
        values, indices = stream.topk()
        assert np.array_equal(values, oracle_topk_values(data, 64))
        assert np.array_equal(data[indices], values)

    def test_largest_mode(self, rng):
        data = rng.standard_normal(10000).astype(np.float32)
        stream = GridSelectStream(32, largest=True)
        stream.push(data)
        values, indices = stream.topk()
        assert np.array_equal(values, oracle_topk_values(data, 32, largest=True))

    def test_intermediate_results_valid(self, rng):
        """On-the-fly property: the structure holds the top-k of everything
        seen so far at any point (the WarpSelect merit GridSelect keeps)."""
        data = rng.standard_normal(9000).astype(np.float32)
        stream = GridSelectStream(16)
        seen = 0
        for chunk in np.array_split(data, 9):
            stream.push(chunk)
            seen += len(chunk)
            values, _ = stream.topk()
            assert np.array_equal(values, oracle_topk_values(data[:seen], 16))

    def test_indices_are_global_positions(self, rng):
        data = rng.standard_normal(5000).astype(np.float32)
        data[4321] = -100.0
        stream = GridSelectStream(1)
        for chunk in np.array_split(data, 7):
            stream.push(chunk)
        _, indices = stream.topk()
        assert indices[0] == 4321

    def test_count_seen(self, rng):
        stream = GridSelectStream(4)
        stream.push(rng.standard_normal(100).astype(np.float32))
        stream.push(np.array([], dtype=np.float32))
        stream.push(rng.standard_normal(50).astype(np.float32))
        assert stream.count_seen == 150

    def test_underfilled_raises(self, rng):
        stream = GridSelectStream(10)
        stream.push(rng.standard_normal(5).astype(np.float32))
        with pytest.raises(ValueError):
            stream.topk()

    def test_device_accounts_chunks(self, rng):
        dev = Device(A100)
        stream = GridSelectStream(8, device=dev)
        for _ in range(5):
            stream.push(rng.standard_normal(1000).astype(np.float32))
        assert dev.counters.kernel_launches == 5
        assert dev.counters.bytes_read == pytest.approx(5 * 1000 * 4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSelectStream(0)
        with pytest.raises(ValueError):
            GridSelectStream(4096)
        stream = GridSelectStream(4)
        with pytest.raises(ValueError):
            stream.push(np.zeros((2, 2), dtype=np.float32))

    @pytest.mark.parametrize("k", [2.5, "3", True, None])
    def test_k_must_be_an_integer(self, k):
        with pytest.raises(InputError, match="k must be an integer"):
            GridSelectStream(k)

    def test_numpy_integer_k(self):
        stream = GridSelectStream(np.int64(3))
        assert type(stream.k) is int and stream.k == 3

    def test_float64_values(self):
        stream = GridSelectStream(2)
        stream.push(np.array([3.5, -1.25, 7.0, 2.0]))
        values, indices = stream.topk()
        assert values.dtype == np.float64
        assert np.array_equal(values, [-1.25, 2.0])
        assert np.array_equal(indices, [1, 3])

    @pytest.mark.parametrize(
        "dtype",
        [np.float16, np.float32, np.float64, np.int16, np.int32, np.int64,
         np.uint16, np.uint32, np.uint64],
    )
    @pytest.mark.parametrize("largest", [False, True])
    def test_every_dtype_matches_oracle(self, rng, dtype, largest):
        if np.dtype(dtype).kind == "f":
            data = rng.standard_normal(3000).astype(dtype)
        else:
            info = np.iinfo(dtype)
            data = rng.integers(info.min, info.max, 3000, dtype=dtype, endpoint=True)
        stream = GridSelectStream(40, largest=largest)
        for chunk in np.array_split(data, 7):
            stream.push(chunk)
        values, indices = stream.topk()
        assert values.dtype == dtype
        assert np.array_equal(values, oracle_topk_values(data, 40, largest=largest))
        assert np.array_equal(data[indices], values)

    @pytest.mark.parametrize(
        "value,largest", [(0xFFFFFFFF, False), (0, True)]
    )
    def test_sentinel_keyed_value_admitted(self, value, largest):
        """A real element whose key equals the sentinel fills a free slot."""
        stream = GridSelectStream(1, largest=largest)
        stream.push(np.array([value], dtype=np.uint32))
        values, indices = stream.topk()
        assert np.array_equal(values, [value])
        assert np.array_equal(indices, [0])

    def test_sentinel_keyed_values_fill_across_pushes(self):
        stream = GridSelectStream(3)
        top = np.uint32(0xFFFFFFFF)
        stream.push(np.array([top, 4], dtype=np.uint32))
        stream.push(np.array([top, top], dtype=np.uint32))
        values, indices = stream.topk()
        assert np.array_equal(values, [4, top, top])
        assert np.array_equal(indices, [1, 0, 2])

    def test_dtype_change_rejected(self):
        stream = GridSelectStream(2)
        stream.push(np.array([1.0, 2.0], dtype=np.float32))
        stream.push(np.array([], dtype=np.float64))  # empty: ignored
        with pytest.raises(ValueError, match="float32"):
            stream.push(np.array([1.0, 2.0], dtype=np.float64))
        assert stream.count_seen == 2

    def test_nan_never_preferred_in_stream(self, rng):
        data = rng.standard_normal(1000).astype(np.float32)
        data[::11] = np.nan
        for largest in (False, True):
            stream = GridSelectStream(8, largest=largest)
            stream.push(data)
            values, _ = stream.topk()
            assert not np.any(np.isnan(values))
