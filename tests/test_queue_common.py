"""Tests for the queue-select emulation shared by the partial-sorting family."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algos.queue_common import (
    QueueStats,
    SENTINEL,
    _thread_mode_flushes,
    emulate_queue_select,
    slice_rows,
)
from repro.primitives import encode


def sequential_thread_flushes(
    mask: np.ndarray, carry: np.ndarray, queue_len: int
) -> tuple[int, np.ndarray]:
    """Round-by-round reference for per-thread-queue flush semantics."""
    fill = carry.astype(np.int64).copy()
    flushes = 0
    for round_mask in mask:
        fill += round_mask
        if fill.max() >= queue_len:
            flushes += 1
            fill[:] = 0
    return flushes, fill


class TestThreadModeFlushes:
    @pytest.mark.parametrize("seed", range(10))
    def test_matches_sequential_reference(self, seed):
        rng = np.random.default_rng(seed)
        rounds, lanes, queue_len = 200, 8, 3
        mask = rng.random((rounds, lanes)) < rng.uniform(0.05, 0.9)
        carry = rng.integers(0, queue_len, lanes)
        got = _thread_mode_flushes(mask, carry, queue_len)
        want = sequential_thread_flushes(mask, carry, queue_len)
        assert got[0] == want[0]
        assert np.array_equal(got[1], want[1])

    def test_empty_rounds(self):
        flushes, fill = _thread_mode_flushes(
            np.zeros((0, 4), dtype=bool), np.zeros(4, dtype=np.int64), 2
        )
        assert flushes == 0

    @pytest.mark.parametrize("queue_len", [1, 2, 3])
    def test_batched_slices_match_per_slice_reference(self, rng, queue_len):
        """Many slices in one call, each with its own density and carry."""
        slices, rounds, lanes = 12, 60, 8
        density = rng.uniform(0.0, 1.0, size=(slices, 1, 1))
        mask = rng.random((slices, rounds, lanes)) < density
        carry = rng.integers(0, queue_len, size=(slices, lanes))
        flushes, fill = _thread_mode_flushes(mask, carry, queue_len)
        assert flushes.shape == (slices,)
        for s in range(slices):
            want = sequential_thread_flushes(mask[s], carry[s], queue_len)
            assert flushes[s] == want[0]
            assert np.array_equal(fill[s], want[1])

    def test_flush_every_round(self):
        """The longest flush chain: a queue of one and an insert per round."""
        for rounds in range(1, 40):
            mask = np.zeros((rounds, 3), dtype=bool)
            mask[:, 1] = True
            flushes, fill = _thread_mode_flushes(mask, np.zeros(3, dtype=np.int64), 1)
            assert flushes == rounds
            assert not fill.any()

    def test_dense_all_lanes(self):
        mask = np.ones((10, 4), dtype=bool)
        flushes, fill = _thread_mode_flushes(mask, np.zeros(4, dtype=np.int64), 2)
        assert flushes == 5  # every 2 rounds every lane's queue fills
        assert np.array_equal(fill, [0, 0, 0, 0])


class TestSliceRows:
    def test_even_split(self):
        keys = np.arange(12, dtype=np.uint32).reshape(1, 12)
        slices, offsets = slice_rows(keys, 3)
        assert slices.shape == (3, 4)
        assert np.array_equal(offsets, [0, 4, 8])
        assert np.array_equal(slices[1], [4, 5, 6, 7])

    def test_padding_with_sentinel(self):
        keys = np.arange(10, dtype=np.uint32).reshape(1, 10)
        slices, offsets = slice_rows(keys, 3)
        assert slices.shape == (3, 4)
        assert slices[2, -2] == SENTINEL and slices[2, -1] == SENTINEL

    def test_batch_offsets_local(self):
        keys = np.arange(8, dtype=np.uint32).reshape(2, 4)
        slices, offsets = slice_rows(keys, 2)
        assert slices.shape == (4, 2)
        assert np.array_equal(offsets, [0, 2, 0, 2])

    def test_validation(self):
        with pytest.raises(ValueError):
            slice_rows(np.zeros(4, dtype=np.uint32), 2)
        with pytest.raises(ValueError):
            slice_rows(np.zeros((1, 4), dtype=np.uint32), 0)


class TestEmulateQueueSelect:
    @pytest.mark.parametrize("mode,queue_len", [("thread", 2), ("shared", 32)])
    @pytest.mark.parametrize("lanes", [32, 128])
    def test_finds_topk(self, rng, mode, queue_len, lanes):
        keys = encode(rng.standard_normal((3, 5000)).astype(np.float32))
        k = 64
        result = emulate_queue_select(
            keys, k, lanes=lanes, mode=mode, queue_len=queue_len
        )
        for s in range(3):
            expect = np.sort(keys[s])[:k]
            assert np.array_equal(np.sort(result.keys[s]), expect)
            # indices point at the claimed keys
            assert np.array_equal(keys[s][result.indices[s]], result.keys[s])

    def test_short_slice_sentinel_padding(self, rng):
        """Slices shorter than k leave sentinel entries, indices -1."""
        keys = encode(rng.standard_normal((1, 10)).astype(np.float32))
        result = emulate_queue_select(keys, 16, lanes=32, mode="shared", queue_len=32)
        assert (result.keys[0] == SENTINEL).sum() == 6
        assert (result.indices[0] == -1).sum() == 6

    def test_stats_counters(self, rng):
        keys = encode(rng.standard_normal((1, 4096)).astype(np.float32))
        result = emulate_queue_select(keys, 32, lanes=32, mode="shared", queue_len=32)
        stats = result.stats
        assert stats.rounds == 4096 // 32
        # everything qualifies until the structure fills, so inserts >= k
        assert stats.inserts >= 32
        assert stats.inserts <= 4096
        # shared-queue flush accounting: one flush per queue_len inserts,
        # up to one partial fill left over
        assert stats.flushes <= stats.inserts // 32
        assert stats.flushes >= stats.inserts // 32 - 1
        assert stats.merge_comparators == stats.flushes * stats.merge_cost_comparators(
            32, 32
        )

    def test_shared_flushes_fewer_than_thread(self, rng):
        """The core GridSelect claim (Sec. 4): a shared queue flushes only
        when full, per-thread queues flush when any lane's queue fills."""
        keys = encode(rng.standard_normal((1, 1 << 14)).astype(np.float32))
        shared = emulate_queue_select(
            keys, 128, lanes=32, mode="shared", queue_len=32
        ).stats
        thread = emulate_queue_select(
            keys, 128, lanes=32, mode="thread", queue_len=2
        ).stats
        assert shared.flushes < thread.flushes

    def test_more_lanes_fewer_rounds(self, rng):
        keys = encode(rng.standard_normal((1, 1 << 12)).astype(np.float32))
        r32 = emulate_queue_select(keys, 8, lanes=32, mode="shared", queue_len=32)
        r128 = emulate_queue_select(keys, 8, lanes=128, mode="shared", queue_len=32)
        assert r128.stats.rounds < r32.stats.rounds

    @pytest.mark.parametrize("lanes,queue_len", [(32, 2), (32, 3), (128, 2)])
    def test_multi_slice_flushes_match_reference(self, rng, lanes, queue_len):
        """Thread-mode flush counts over many irregular slices equal a
        round-by-round replay of each slice.

        Keys are either small or the sentinel, and ``valid_lengths`` marks
        every slice as padding, so the sentinel keys never qualify.  With
        k = slice length the maintained top-k never fills, the threshold
        stays at the sentinel, and the insert mask is exactly "key is
        small" — irregular, with a different density per slice.
        """
        num_slices, length = 9, 3000
        density = rng.uniform(0.02, 1.0, size=(num_slices, 1))
        density[0] = 1.0  # one dense slice
        small = rng.random((num_slices, length)) < density
        keys = np.where(
            small, rng.integers(0, 1000, (num_slices, length)), SENTINEL
        ).astype(np.uint32)
        result = emulate_queue_select(
            keys,
            length,
            lanes=lanes,
            mode="thread",
            queue_len=queue_len,
            valid_lengths=np.zeros(num_slices, dtype=np.int64),
        )
        rounds = -(-length // lanes)
        want = 0
        for s in range(num_slices):
            per_round = np.zeros(rounds * lanes, dtype=bool)
            per_round[:length] = small[s]
            want += sequential_thread_flushes(
                per_round.reshape(rounds, lanes),
                np.zeros(lanes, dtype=np.int64),
                queue_len,
            )[0]
        assert result.stats.inserts == int(small.sum())
        assert result.stats.flushes == want
        # slices are independent: one batched call equals per-slice calls
        single = sum(
            emulate_queue_select(
                keys[s : s + 1],
                length,
                lanes=lanes,
                mode="thread",
                queue_len=queue_len,
                valid_lengths=np.zeros(1, dtype=np.int64),
            ).stats.flushes
            for s in range(num_slices)
        )
        assert single == want

    def test_validation(self):
        keys = np.zeros((1, 8), dtype=np.uint32)
        with pytest.raises(ValueError):
            emulate_queue_select(keys, 4, lanes=32, mode="heap", queue_len=32)
        with pytest.raises(ValueError):
            emulate_queue_select(keys, 4, lanes=0, mode="shared", queue_len=32)
        with pytest.raises(ValueError):
            emulate_queue_select(keys[0], 4, lanes=32, mode="shared", queue_len=32)


@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=500),
    st.integers(min_value=1, max_value=64),
    st.sampled_from(["thread", "shared"]),
    st.integers(min_value=0, max_value=2**31),
)
def test_queue_select_equals_oracle(n, k_raw, mode, seed):
    rng = np.random.default_rng(seed)
    k = 1 + (k_raw - 1) % n
    keys = encode(rng.standard_normal((1, n)).astype(np.float32))
    queue_len = 2 if mode == "thread" else 32
    result = emulate_queue_select(keys, k, lanes=32, mode=mode, queue_len=queue_len)
    got = np.sort(result.keys[0])
    got = got[got != SENTINEL][:k] if n < k else got[:k]
    expect = np.sort(keys[0])[:k]
    assert np.array_equal(got, expect)
