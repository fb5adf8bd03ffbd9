"""Differential test layer: every algorithm against a NumPy reference.

Every registered algorithm — including the ``auto`` dispatcher — runs over
a seeded grid of dtypes (float32/float64/int32/uint32), both selection
directions, heavy-tie data, and float specials (±inf, NaN), at k = 1,
n/2 and n.  Each output must match the ``np.partition`` reference exactly
after normalisation into the library's monotone key space (ties at the
boundary may be broken arbitrarily, so the comparison is multiset
equality of keys — the contract :func:`repro.verify.check_topk` checks).

A second class pins the ``auto`` acceptance criterion: on every point of
the grid the dispatcher's simulated time never loses to the *worst*
concrete algorithm (a dispatcher that can't beat "pick anything" would be
pointless).

The fault-injected pass (:class:`TestDegradedDifferential`) extends the
layer to degraded results: a sharded selection that irrecoverably loses a
shard must still return the *exact* top-k of the surviving data, and its
empirical recall against the full np.partition reference must honour the
``recall_bound`` it reports — across the same dtype/direction grid.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.algos import UnsupportedProblem, get_algorithm
from repro.bench import ALL_ALGORITHMS
from repro.faults import FaultPlan, FaultRule
from repro.perf import simulate_topk
from repro.primitives import priority_keys
from repro.serve import sharded_topk
from repro.serve.sharder import shard_bounds
from repro.verify import check_topk

N = 512
KS = (1, N // 2, N)  # the k extremes plus the middle
DTYPES = ("float32", "float64", "int32", "uint32")
ALGOS = ALL_ALGORITHMS + ("auto",)


def _case_data(dtype: str, kind: str, seed: int) -> np.ndarray:
    """Seeded input for one differential case."""
    rng = np.random.default_rng(seed)
    dt = np.dtype(dtype)
    if dt.kind == "f":
        if kind == "uniform":
            return rng.standard_normal(N).astype(dt)
        if kind == "ties":
            # 8 distinct values over 512 slots: every k cuts through a tie
            return rng.integers(0, 8, N).astype(dt)
        if kind == "special":
            data = rng.standard_normal(N).astype(dt)
            idx = rng.permutation(N)
            data[idx[:32]] = np.inf
            data[idx[32:64]] = -np.inf
            data[idx[64:96]] = np.nan
            data[idx[96:112]] = -0.0
            data[idx[112:128]] = 0.0
            return data
    else:
        info = np.iinfo(dt)
        if kind == "uniform":
            return rng.integers(
                info.min, info.max, N, dtype=dt, endpoint=True
            )
        if kind == "ties":
            lo = max(info.min, -4)
            return rng.integers(lo, lo + 8, N, dtype=dt)
    raise AssertionError(f"no kind {kind!r} for dtype {dtype}")


def _kinds(dtype: str) -> tuple[str, ...]:
    if np.dtype(dtype).kind == "f":
        return ("uniform", "ties", "special")
    return ("uniform", "ties")


def _partition_reference(data: np.ndarray, k: int, largest: bool) -> np.ndarray:
    """Top-k key multiset via np.partition in monotone key space."""
    keys = priority_keys(np.ascontiguousarray(data)[None, :], largest=largest)[0]
    return np.sort(np.partition(keys, k - 1)[:k])


@pytest.mark.parametrize("largest", (False, True), ids=("smallest", "largest"))
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("algo", ALGOS)
class TestDifferential:
    def test_matches_partition_reference(self, algo, dtype, largest):
        algorithm = get_algorithm(algo)
        for kind in _kinds(dtype):
            for k in KS:
                if algorithm.supports(N, k) is not None:
                    continue  # an expected Fig. 6/7 gap, not a failure
                seed = hash((dtype, kind, k)) % (2**31)
                data = _case_data(dtype, kind, seed)
                res = algorithm.select(data, k, largest=largest, seed=seed)
                label = f"{algo} {dtype} {kind} k={k} largest={largest}"
                # full output contract: indices valid, multiset == oracle
                check_topk(data, res.values, res.indices, largest=largest)
                # and explicitly against np.partition, the issue's reference
                got = np.sort(
                    priority_keys(
                        np.ascontiguousarray(res.values)[None, :],
                        largest=largest,
                    )[0]
                )
                expect = _partition_reference(data, k, largest)
                assert np.array_equal(got, expect), label


@pytest.mark.parametrize("largest", (False, True), ids=("smallest", "largest"))
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("algo", ALL_ALGORITHMS)
class TestBatchedDifferential:
    """Batched execution is a pure layout change: a (batch, n) call must be
    byte-identical — values, indices, dtypes — to stacking the single-shot
    result of each row.  This pins the batched paths (AIR, BucketSelect,
    QuickSelect, SampleSelect, the queue family) to single-shot semantics
    across dtypes, directions, ties and float specials.

    ``auto`` is deliberately absent: its dispatch decision depends on the
    batch shape, so cross-batch identity is not part of its contract.
    """

    BATCHES = (1, 3, 17)
    BIG_BATCH = 100

    @staticmethod
    def _rows(algo: str, dtype: str, kind: str, batch: int, seed: int):
        return np.stack(
            [_case_data(dtype, kind, seed + 31 * i) for i in range(batch)]
        )

    @staticmethod
    def _assert_identical(batched, data, algorithm, k, largest, seed, label):
        for i in range(data.shape[0]):
            single = algorithm.select(
                data[i], k, largest=largest, seed=seed
            )
            assert batched.values.dtype == single.values.dtype, label
            assert (
                batched.values[i].tobytes() == single.values.tobytes()
            ), f"{label} row={i} values"
            assert np.array_equal(
                batched.indices[i], single.indices
            ), f"{label} row={i} indices"

    def test_batched_equals_stacked_single_shot(self, algo, dtype, largest):
        algorithm = get_algorithm(algo)
        for kind in _kinds(dtype):
            for batch in self.BATCHES:
                for k in (1, 16):
                    if algorithm.supports(N, k) is not None:
                        continue
                    seed = hash((dtype, kind, batch, k)) % (2**31)
                    data = self._rows(algo, dtype, kind, batch, seed)
                    res = algorithm.select(
                        data, k, largest=largest, seed=seed
                    )
                    self._assert_identical(
                        res, data, algorithm, k, largest, seed,
                        f"{algo} {dtype} {kind} batch={batch} k={k} "
                        f"largest={largest}",
                    )

    def test_big_batch_equals_stacked_single_shot(self, algo, dtype, largest):
        """batch=100 spot check on the tie/special-heavy inputs."""
        kind = "special" if np.dtype(dtype).kind == "f" else "ties"
        k = 16
        algorithm = get_algorithm(algo)
        if algorithm.supports(N, k) is not None:
            pytest.skip(f"{algo} does not support n={N}, k={k}")
        seed = hash((dtype, kind, self.BIG_BATCH)) % (2**31)
        data = self._rows(algo, dtype, kind, self.BIG_BATCH, seed)
        res = algorithm.select(data, k, largest=largest, seed=seed)
        self._assert_identical(
            res, data, algorithm, k, largest, seed,
            f"{algo} {dtype} {kind} batch={self.BIG_BATCH} k={k} "
            f"largest={largest}",
        )


@pytest.mark.parametrize("largest", (False, True), ids=("smallest", "largest"))
@pytest.mark.parametrize("algo", ("quick_select", "sample_select"))
class TestStochasticPartitionLargeN:
    """At n=512 the stochastic partition family finishes entirely inside
    its terminal sort fast path; n=8192 forces real recursion/iteration
    levels, so the fused loop itself (count passes, scatter compaction,
    splitter histograms, per-row survivor masks) is differentially pinned
    to stacked single-shot runs byte-for-byte."""

    N_LARGE = 8192

    def test_fused_loop_equals_stacked_single_shot(self, algo, largest):
        algorithm = get_algorithm(algo)
        rng = np.random.default_rng(99)
        for batch in (1, 7):
            for k in (16, 256):
                data = rng.standard_normal((batch, self.N_LARGE)).astype(
                    np.float32
                )
                # a heavy-tie row makes pivot/splitter boundaries cut
                # through duplicates in at least one lane of the batch
                data[-1] = rng.integers(0, 8, self.N_LARGE).astype(np.float32)
                res = algorithm.select(data, k, largest=largest, seed=5)
                for i in range(batch):
                    single = algorithm.select(
                        data[i], k, largest=largest, seed=5
                    )
                    label = f"{algo} n={self.N_LARGE} batch={batch} k={k} row={i}"
                    assert (
                        res.values[i].tobytes() == single.values.tobytes()
                    ), label
                    assert np.array_equal(res.indices[i], single.indices), label


class TestUnsupportedIsExplicit:
    """Gaps must be declared via supports()/UnsupportedProblem, never
    silently wrong output."""

    @pytest.mark.parametrize("algo", ALGOS)
    def test_supports_agrees_with_select(self, algo):
        algorithm = get_algorithm(algo)
        data = _case_data("float32", "uniform", 7)
        for k in KS:
            reason = algorithm.supports(N, k)
            if reason is None:
                algorithm.select(data, k)  # must not raise
            else:
                with pytest.raises(UnsupportedProblem):
                    algorithm.select(data, k)


@pytest.mark.parametrize("largest", (False, True), ids=("smallest", "largest"))
@pytest.mark.parametrize("dtype", DTYPES)
class TestDegradedDifferential:
    """Degraded results vs np.partition: exact on survivors, recall-bounded
    on the full data (satellite b of the fault-injection PR)."""

    SHARDS = 4
    K = 64
    # sticky -> every retry of the doomed shard fails too, forcing the
    # degraded path deterministically (seed 11 loses >= 1 of 4 shards)
    PLAN = FaultPlan(
        seed=11, rules=(FaultRule(kind="shard_failure", rate=0.3, sticky=True),)
    )

    def test_degraded_recall_bound_holds(self, dtype, largest):
        for kind in _kinds(dtype):
            seed = hash((dtype, kind, "degraded")) % (2**31)
            rng = np.random.default_rng(seed)
            data = np.concatenate(
                [_case_data(dtype, kind, seed + i) for i in range(4)]
            )
            rng.shuffle(data)
            n = data.shape[0]
            result = sharded_topk(
                data, self.K, shards=self.SHARDS, algo="sort",
                largest=largest, injector=self.PLAN.injector(),
            )
            label = f"{dtype} {kind} largest={largest}"
            assert result.degraded and result.recall_bound is not None, label

            # 1. exact on the surviving data: multiset-equal to the
            # np.partition reference computed with the lost ranges removed
            bounds = shard_bounds(n, self.SHARDS)
            lost = np.zeros(n, dtype=bool)
            for shard in result.meta["lost_shards"]:
                lo, hi = bounds[shard]
                lost[lo:hi] = True
            survivors = data[~lost]
            # indices must round-trip into the full data and avoid the
            # lost ranges (check_topk would demand the full-data oracle,
            # which a degraded result by definition cannot match)
            values = np.asarray(result.values)
            gathered = data[result.indices]
            if values.dtype.kind == "f":
                assert np.array_equal(gathered, values, equal_nan=True), label
            else:
                assert np.array_equal(gathered, values), label
            assert not lost[result.indices].any(), label
            got = np.sort(
                priority_keys(
                    np.ascontiguousarray(result.values)[None, :],
                    largest=largest,
                )[0]
            )
            expect = _partition_reference(survivors, self.K, largest)
            assert np.array_equal(got, expect), label

            # 2. empirical recall vs the FULL-data reference honours the
            # reported probabilistic bound (key multisets handle ties)
            full = _partition_reference(data, self.K, largest)
            overlap = sum(
                (Counter(full.tolist()) & Counter(got.tolist())).values()
            )
            recall = overlap / self.K
            assert recall >= result.recall_bound, (
                f"{label}: recall {recall:.3f} < bound "
                f"{result.recall_bound:.3f}"
            )
            assert recall <= 1.0

    def test_transient_faults_stay_exact(self, dtype, largest):
        """Non-degraded fault runs must stay a *differential no-op*: the
        same key multiset as np.partition on the full data."""
        plan = FaultPlan(
            seed=1, rules=(FaultRule(kind="shard_failure", rate=0.4),)
        )
        data = _case_data(dtype, "uniform", 13)
        data = np.concatenate([data, _case_data(dtype, "uniform", 14)])
        result = sharded_topk(
            data, self.K, shards=self.SHARDS, algo="sort",
            largest=largest, injector=plan.injector(),
        )
        assert not result.degraded
        got = np.sort(
            priority_keys(
                np.ascontiguousarray(result.values)[None, :], largest=largest
            )[0]
        )
        assert np.array_equal(got, _partition_reference(data, self.K, largest))


class TestAutoNeverWorst:
    """The dispatcher must never lose to the worst concrete algorithm."""

    GRID = [
        (n, k, batch)
        for n in (1 << 12, 1 << 14, 1 << 16)
        for k in (1, 64, 2048)
        for batch in (1, 4)
    ]

    def test_auto_beats_worst_everywhere(self):
        losses = []
        for n, k, batch in self.GRID:
            times = {}
            for algo in ALL_ALGORITHMS:
                try:
                    times[algo] = simulate_topk(
                        algo,
                        distribution="uniform",
                        n=n,
                        k=k,
                        batch=batch,
                        seed=3,
                    ).time
                except UnsupportedProblem:
                    continue
            run = simulate_topk(
                "auto", distribution="uniform", n=n, k=k, batch=batch, seed=3
            )
            assert run.dispatch in times, (
                f"auto dispatched to {run.dispatch!r}, which did not run "
                f"at n={n} k={k} batch={batch}"
            )
            worst = max(times.values())
            if run.time > worst:
                losses.append((n, k, batch, run.dispatch, run.time, worst))
        assert not losses, f"auto lost to the worst algorithm at: {losses}"
