"""Tests for the queue-select emulation shared by the partial-sorting family."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import GridSelectStream
from repro.algos import queue_common
from repro.algos.queue_common import (
    QueueStats,
    SENTINEL,
    _thread_mode_flushes,
    best_first,
    emulate_queue_select,
    sentinel_for,
    slice_rows,
)
from repro.primitives import encode, priority_keys


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


def lexsort_best_first(
    keys: np.ndarray, idx: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """The oracle merge: a two-key lexsort, key first, a real element
    before padding (index -1), then column."""
    order = np.lexsort((idx < 0, keys))[:, :k]
    order += np.arange(order.shape[0])[:, None] * keys.shape[1]
    return np.take(keys, order), np.take(idx, order)


def reference_queue_select(
    slices: np.ndarray,
    k: int,
    *,
    lanes: int,
    mode: str,
    queue_len: int,
    valid_lengths: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, QueueStats]:
    """Slice-by-slice replay of the emulation's chunk schedule.

    Each slice's candidates merge through :func:`lexsort_best_first`, and
    per-thread flushes are counted round by round.
    """
    num, length = slices.shape
    keys = np.full((num, k), sentinel_for(slices.dtype), dtype=slices.dtype)
    idx = np.full((num, k), -1, dtype=np.int64)
    fill = np.zeros((num, lanes if mode == "thread" else 1), dtype=np.int64)
    stats = QueueStats(rounds=-(-length // lanes) * num)
    pos, chunk = 0, lanes * 8
    while pos < length:
        c = min(chunk, length - pos)
        maxc = 0
        for s in range(num):
            block = slices[s, pos : pos + c]
            mask = block < keys[s, -1]
            if idx[s, -1] < 0:
                real = np.arange(pos, pos + c) < valid_lengths[s]
                mask |= real & (block == keys[s, -1])
            q = int(mask.sum())
            stats.inserts += q
            maxc = max(maxc, q)
            if mode == "shared":
                stats.flushes += int((fill[s, 0] + q) // queue_len)
                fill[s, 0] = (fill[s, 0] + q) % queue_len
            else:
                per_round = np.zeros(-(-c // lanes) * lanes, dtype=bool)
                per_round[:c] = mask
                f, fill[s] = sequential_thread_flushes(
                    per_round.reshape(-1, lanes), fill[s], queue_len
                )
                stats.flushes += f
            if q:
                merged_keys = np.concatenate([keys[s], block[mask]])
                merged_idx = np.concatenate([idx[s], pos + np.flatnonzero(mask)])
                best_keys, best_idx = lexsort_best_first(
                    merged_keys[None], merged_idx[None], k
                )
                keys[s], idx[s] = best_keys[0], best_idx[0]
        pos += c
        if maxc <= max(4, queue_len // 4):
            chunk = min(chunk * 2, max(lanes * 8, 1 << 14))
    stats.merge_comparators = stats.flushes * stats.merge_cost_comparators(
        queue_len * (lanes if mode == "thread" else 1), k
    )
    return keys, idx, stats


def ramp_rows(rng, dtype, num: int, length: int, *, ties: bool) -> np.ndarray:
    """Rows of random noise, then an ascent, then a descent.

    Once the top-k fills, the noise and the ascent qualify few elements
    (sparse chunks), and the descent, crossing below everything seen,
    qualifies whole chunks (dense ones).
    """
    top = int(sentinel_for(dtype))
    hi = 50 if ties else min(top, 1 << 40)
    rows = np.empty((num, length), dtype=dtype)
    for s in range(num):
        noise, up = np.sort(rng.integers(0, length, 2, endpoint=True))
        upper = rng.integers(hi // 4, hi, up, endpoint=True)
        rows[s, :up] = np.concatenate([upper[:noise], np.sort(upper[noise:])])
        rows[s, up:] = np.sort(rng.integers(0, hi, length - up, endpoint=True))[::-1]
    # real elements equal to the sentinel: the padding's key
    rows[rng.random((num, length)) < 0.05] = top
    return rows


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

    def test_divisible_rows_are_a_view(self):
        keys = np.arange(24, dtype=np.uint32).reshape(2, 12)
        slices, offsets = slice_rows(keys, 3)
        assert np.shares_memory(slices, keys)
        assert np.array_equal(slices, keys.reshape(6, 4))
        assert np.array_equal(offsets, [0, 4, 8, 0, 4, 8])

    def test_padded_rows_are_a_copy(self):
        keys = np.arange(20, dtype=np.uint16).reshape(2, 10)
        slices, offsets = slice_rows(keys, 3)
        assert not np.shares_memory(slices, keys)
        pad = sentinel_for(np.uint16)
        assert np.array_equal(
            slices,
            [
                [0, 1, 2, 3], [4, 5, 6, 7], [8, 9, pad, pad],
                [10, 11, 12, 13], [14, 15, 16, 17], [18, 19, pad, pad],
            ],
        )
        assert np.array_equal(offsets, [0, 4, 8, 0, 4, 8])

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

    @pytest.mark.parametrize("mode", ["thread", "shared"])
    @pytest.mark.parametrize("k", [0, -1])
    def test_rejects_k_below_one(self, mode, k):
        keys = np.zeros((1, 8), dtype=np.uint32)
        with pytest.raises(ValueError, match="k must be >= 1"):
            emulate_queue_select(keys, k, lanes=32, mode=mode, queue_len=2)


def designed_masks(rng, num, rounds, lanes, tail, leads, densities, queue_len, fill):
    """Insert masks of ``num`` slices over ``rounds`` rounds, the last one
    ``tail`` lanes short.

    With ``fill``, slice s inserts with lanes every round for its first
    ``leads[s]`` rounds (one lane sits out the next), then at random with
    ``densities[s]``.  Without it, no lane inserts ``queue_len`` times.
    """
    length = max(0, rounds * lanes - tail)
    mask = np.zeros((num, rounds, lanes), dtype=bool)
    for s in range(num):
        if fill:
            lead = min(leads[s], rounds)
            mask[s] = rng.random((rounds, lanes)) < densities[s]
            mask[s, :lead] = True
            if lead < rounds:
                mask[s, lead, rng.integers(lanes)] = False
        else:
            for lane in range(lanes):
                hits = rng.integers(0, queue_len)
                mask[s, rng.choice(rounds, min(hits, rounds), replace=False), lane] = True
    return mask.reshape(num, -1)[:, :length]


class TestOneCountPerRun:
    """Thread-mode flushes are counted once, after the scan, and equal the
    slice-by-slice replay's chunk-by-chunk count.

    Keys are small where a lane inserts and the sentinel elsewhere; with
    k = length and every slice marked as padding, the threshold stays at
    the sentinel and the insert mask is exactly the designed one.  The
    first chunk is 8 rounds, and dense chunks do not grow, so a leading
    dense run of 3 or 13 rounds ends mid-chunk and one of 8 or 16 at a
    chunk boundary.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([1, 2, 3]),
        st.sampled_from([32, 128]),
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=0, max_value=127),
        st.lists(
            st.tuples(
                st.sampled_from([0, 3, 8, 13, 16, 1000]),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1,
            max_size=4,
        ),
        st.booleans(),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_stats_equal_replay(
        self, queue_len, lanes, rounds, tail, plans, fill, seed
    ):
        rng = np.random.default_rng(seed)
        leads, densities = zip(*plans)
        num = len(plans)
        mask = designed_masks(
            rng, num, rounds, lanes, tail % lanes if rounds else 0,
            leads, densities, queue_len, fill,
        )
        length = mask.shape[1]
        keys = np.where(mask, rng.integers(0, 1000, mask.shape), SENTINEL)
        keys = keys.astype(np.uint32)
        calls = []

        def spy(*args):
            calls.append(args[0].shape)
            return _thread_mode_flushes(*args)

        k = max(1, length)
        no_lengths = np.zeros(num, dtype=np.int64)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(queue_common, "_thread_mode_flushes", spy)
            got = emulate_queue_select(
                keys, k, lanes=lanes, mode="thread", queue_len=queue_len,
                valid_lengths=no_lengths,
            )
        want = reference_queue_select(
            keys, k, lanes=lanes, mode="thread", queue_len=queue_len,
            valid_lengths=no_lengths,
        )
        assert got.stats == want[2]
        assert np.array_equal(got.keys, want[0])
        assert np.array_equal(got.indices, want[1])
        assert len(calls) <= 1
        if not fill:
            assert not calls and got.stats.flushes == 0

    @pytest.mark.parametrize("queue_len", [1, 2, 3])
    def test_whole_run_dense_makes_no_call(self, monkeypatch, queue_len):
        """A run every lane inserts through is counted in closed form."""
        monkeypatch.setattr(queue_common, "_thread_mode_flushes", None)
        keys = np.zeros((2, 32 * 21), dtype=np.uint32)
        got = emulate_queue_select(
            keys, keys.shape[1], lanes=32, mode="thread", queue_len=queue_len
        )
        assert got.stats.flushes == 2 * (21 // queue_len)


class TestBestFirst:
    def test_rejects_k_above_width(self):
        keys = np.zeros((2, 4), dtype=np.uint32)
        idx = np.zeros((2, 4), dtype=np.int64)
        with pytest.raises(ValueError, match="row width"):
            best_first(keys, idx, 5)
        with pytest.raises(ValueError, match="row width"):
            best_first(keys, idx, 0)

    def test_rejects_mismatched_shapes(self):
        keys = np.zeros((2, 4), dtype=np.uint32)
        with pytest.raises(ValueError, match="shape"):
            best_first(keys, np.zeros((2, 5), dtype=np.int64), 2)
        with pytest.raises(ValueError, match="shape"):
            best_first(keys[0], np.zeros(4, dtype=np.int64), 2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([np.uint16, np.uint32, np.uint64]),
        st.integers(min_value=1, max_value=5),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_equals_lexsort_oracle(self, dtype, rows, width, k_raw, seed):
        """Ties, real keys equal to the sentinel and padding, any k."""
        rng = np.random.default_rng(seed)
        k = 1 + (k_raw - 1) % width
        top = int(sentinel_for(dtype))
        keys = rng.integers(top - 8, top, (rows, width), dtype=dtype, endpoint=True)
        idx = rng.permutation(rows * width).reshape(rows, width).astype(np.int64)
        pad = rng.random((rows, width)) < 0.3
        keys[pad], idx[pad] = top, -1
        got = best_first(keys, idx, k)
        want = lexsort_best_first(keys, idx, k)
        assert got[0].dtype == want[0].dtype
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])


class TestPackedMerge:
    """The emulation's merge against a slice-by-slice lexsort replay."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([np.uint16, np.uint32, np.uint64]),
        st.sampled_from([("thread", 2), ("thread", 3), ("shared", 32)]),
        st.sampled_from([32, 128]),
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=1, max_value=3000),
        # small k makes for sparse chunks
        st.one_of(st.integers(1, 40), st.integers(1, 3000)),
        st.booleans(),
        st.booleans(),
        st.integers(min_value=0, max_value=2**31),
    )
    def test_equals_lexsort_reference(
        self, dtype, discipline, lanes, num, length, k_raw, ties, padded, seed
    ):
        mode, queue_len = discipline
        rng = np.random.default_rng(seed)
        k = 1 + (k_raw - 1) % length
        slices = ramp_rows(rng, dtype, num, length, ties=ties)
        lengths = np.full(num, length, dtype=np.int64)
        if padded:
            # trailing sentinel padding, as slice_rows leaves it
            lengths = rng.integers(0, length, num, endpoint=True)
            slices[np.arange(length) >= lengths[:, None]] = sentinel_for(dtype)
        got = emulate_queue_select(
            slices, k, lanes=lanes, mode=mode, queue_len=queue_len,
            valid_lengths=lengths if padded else None,
        )
        keys, idx, stats = reference_queue_select(
            slices, k, lanes=lanes, mode=mode, queue_len=queue_len,
            valid_lengths=lengths,
        )
        assert got.keys.dtype == keys.dtype
        assert np.array_equal(got.keys, keys)
        assert np.array_equal(got.indices, idx)
        assert got.stats == stats

    @pytest.mark.parametrize("dtype", [np.uint16, np.uint32])
    def test_ramp_takes_both_routes(self, monkeypatch, dtype):
        """The descent crosses the threshold late in a chunk, merged by the
        sparse route (a scatter of the qualified); the chunks after it
        qualify whole and take the dense route (the whole block packed)."""
        routes = []
        merge, qualified = queue_common._PackedTopK.merge, queue_common._qualified

        def spy_merge(self, *args):
            routes.append("dense")
            merge(self, *args)

        def spy_qualified(*args):
            routes[-1] = "sparse"
            return qualified(*args)

        monkeypatch.setattr(queue_common._PackedTopK, "merge", spy_merge)
        monkeypatch.setattr(queue_common, "_qualified", spy_qualified)
        row = np.concatenate([np.arange(5000, 8000), np.arange(9900, 0, -1)])
        got = emulate_queue_select(
            row[None].astype(dtype), 16, lanes=32, mode="shared", queue_len=32
        )
        assert routes == ["dense", "sparse", "dense", "dense"]
        assert np.array_equal(got.keys[0], np.arange(1, 17))
        assert np.array_equal(got.indices[0], row.size - np.arange(1, 17))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from([np.uint16, np.uint32, np.uint64, np.float32]),
    st.booleans(),
    st.integers(min_value=1, max_value=200),
    st.lists(st.integers(min_value=0, max_value=400), min_size=1, max_size=8),
    st.integers(min_value=0, max_value=2**31),
)
def test_stream_pushes_equal_lexsort_oracle(dtype, largest, k, sizes, seed):
    """After every push, a GridSelectStream holds the oracle's top-k."""
    rng = np.random.default_rng(seed)
    stream = GridSelectStream(k, largest=largest)
    top = np.iinfo(dtype).max if dtype != np.float32 else 0
    keys = idx = None
    seen = 0
    for size in sizes:
        if dtype == np.float32:
            chunk = rng.integers(-5, 5, size).astype(dtype)
        else:
            # few distinct values, the extremes included: ties, and real
            # keys equal to the sentinel in either direction
            chunk = rng.choice(np.array([0, 1, 2, top - 1, top], dtype=dtype), size)
        stream.push(chunk)
        if size == 0:
            continue
        chunk_keys = priority_keys(chunk, largest=largest)
        if keys is None:
            keys = np.full(k, sentinel_for(chunk_keys.dtype), dtype=chunk_keys.dtype)
            idx = np.full(k, -1, dtype=np.int64)
        mask = chunk_keys < keys[-1]
        if idx[-1] < 0:
            mask |= chunk_keys == keys[-1]
        if mask.any():
            best = lexsort_best_first(
                np.concatenate([keys, chunk_keys[mask]])[None],
                np.concatenate([idx, np.flatnonzero(mask) + seen])[None],
                k,
            )
            keys, idx = best[0][0], best[1][0]
        seen += size
        assert np.array_equal(stream._keys, keys)
        assert np.array_equal(stream._idx, idx)


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
