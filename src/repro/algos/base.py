"""Common interface of every simulated top-k algorithm.

All ten algorithms (8 baselines + AIR Top-K + GridSelect) implement
:class:`TopKAlgorithm`.  The public entry point normalises inputs once —
batch shape, monotone key encoding, largest/smallest direction — so each
algorithm only sees a 2-d array of ``uint32`` keys whose ascending order is
the selection priority, exactly the key space a CUDA implementation works
in after transcoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..device import Device, GPUSpec, Step, A100
from ..errors import InputError, check_problem
from ..primitives import priority_keys

#: every key dtype the monotone encoding supports (repro.primitives.radix)
SUPPORTED_DTYPES = (
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

#: the supported dtypes in either byte order: a non-native array is
#: selected like its native copy
KEY_DTYPES = frozenset(
    np.dtype(name).newbyteorder(order) for name in SUPPORTED_DTYPES for order in "<>"
)


class RunShape(NamedTuple):
    """What a launch schedule reads of a run (:meth:`TopKAlgorithm.schedule`)."""

    batch: int
    #: materialised row length and results per row
    n: int
    k: int
    #: the nominal sizes grids are sized for (see :class:`RunContext`)
    nominal_n: int
    nominal_k: int
    #: the device's traffic scale (:class:`repro.device.Device`)
    scale: float = 1.0
    #: width of the encoded keys
    key_bits: int = 32


@dataclass
class RunContext:
    """Everything an algorithm implementation needs for one run."""

    #: simulated machine the run is accounted against
    device: Device
    #: monotone keys, shape (batch, n); ascending key order = priority order
    keys: np.ndarray
    #: number of results per problem (already validated, 1 <= k <= n)
    k: int
    #: nominal problem size used for grid sizing and occupancy.  Equals
    #: ``keys.shape[1]`` for exact runs; larger for scaled runs (the data is
    #: a 1/scale sample of the nominal problem — see repro.perf.scaled).
    nominal_n: int
    #: nominal k matching ``nominal_n``
    nominal_k: int
    #: deterministic source for algorithmic randomness (pivot sampling)
    rng: np.random.Generator
    #: the seed ``rng`` was built from.  Host-serialised algorithms that
    #: loop rows re-seed a fresh generator per row from this, so a batched
    #: run replays each row exactly as a single-shot run would (and is
    #: therefore invariant to row order)
    seed: int = 0

    @property
    def batch(self) -> int:
        return self.keys.shape[0]

    @property
    def n(self) -> int:
        return self.keys.shape[1]

    @property
    def shape(self) -> RunShape:
        batch, n = self.keys.shape
        return RunShape(
            batch, n, self.k, self.nominal_n, self.nominal_k,
            self.device.scale, self.keys.dtype.itemsize * 8,
        )


@dataclass
class TopKResult:
    """Output of one simulated top-k run."""

    #: selected values in priority order (best first), original dtype.
    #: shape (batch, k), or (k,) if the input was 1-d
    values: np.ndarray
    #: positions of the selected values in the input list, same shape
    indices: np.ndarray
    #: algorithm that produced the result
    algo: str
    #: the simulated machine, carrying timeline, counters and kernel stats
    device: Device
    #: True when part of the input was irrecoverably lost (a failed shard)
    #: and the result is the exact top-k of the *surviving* data only —
    #: see docs/faults.md for the degraded-result contract
    degraded: bool = False
    #: the high-probability recall floor an approximate or degraded result
    #: guarantees against the full-data ground truth; None for exact results
    recall_bound: float | None = None
    #: False for results that are not guaranteed to equal the exact top-k:
    #: approximate-tier selections and degraded (shard-loss) results.  Such
    #: results always carry a ``recall_bound``
    exact: bool = True
    #: recovery/approximation bookkeeping (shards_lost, coverage, retries,
    #: hedges, expected_recall, partitions, ...)
    meta: dict = field(default_factory=dict)

    @property
    def time(self) -> float:
        """Simulated wall-clock time of the run, seconds."""
        return self.device.elapsed

    def __iter__(self):
        """v2.1 results still unpack as the historical 2-tuple.

        ``values, indices = repro.topk(...)`` keeps working; the richer
        fields (``exact``, ``recall_bound``, ``algo``, ``time``, ``meta``)
        are attribute access only.
        """
        yield self.values
        yield self.indices


class UnsupportedProblem(ValueError):
    """Raised when an algorithm cannot handle the requested (n, k).

    Mirrors the gaps in the paper's Fig. 6/7: e.g. WarpSelect supports
    k <= 2048 and Bitonic Top-K k <= 256, so those curves stop early.
    """


class TopKAlgorithm:
    """Base class for a simulated parallel top-k algorithm."""

    #: registry name, e.g. ``"air_topk"``
    name: str = ""
    #: provenance per the paper's Table 1 (library the reference code is from)
    library: str = ""
    #: taxonomy per Sec. 1: "sorting", "partial sorting", "partition-based"
    category: str = ""
    #: largest k supported, or None for unlimited
    max_k: int | None = None
    #: whether the method can consume data on-the-fly (Sec. 2.2)
    on_the_fly: bool = False
    #: whether a batch is solved by one launch set (device-resident batching)
    #: or serially per problem (the host-coordinated reference codes)
    batched_execution: bool = True
    #: whether results are guaranteed to equal the exact top-k; the
    #: approximate tier (repro.approx) sets this False and annotates every
    #: result with its analytic recall contract via :meth:`_finalize`
    exact: bool = True
    #: name of the analytic recall model backing non-exact results
    #: (``None`` for exact algorithms)
    recall_model: str | None = None

    def supports(self, n: int, k: int) -> str | None:
        """None if the problem is supported, else a human-readable reason."""
        if self.max_k is not None and k > self.max_k:
            return f"{self.name} supports k <= {self.max_k}, got k={k}"
        return None

    def select(
        self,
        data: np.ndarray,
        k: int,
        *,
        device: Device | None = None,
        spec: GPUSpec = A100,
        largest: bool = False,
        seed: int = 0,
        nominal_n: int | None = None,
        nominal_k: int | None = None,
    ) -> TopKResult:
        """Run the algorithm on ``data`` (shape ``(n,)`` or ``(batch, n)``).

        Returns the k smallest (or largest) values per problem together with
        their input positions, plus the simulated device carrying the run's
        timing, traffic counters and trace.
        """
        data = np.asarray(data)
        squeeze = data.ndim == 1
        if squeeze:
            data = data[None, :]
        if data.ndim != 2:
            raise InputError(
                f"data must be 1-d or 2-d (batch, n), got shape {data.shape}"
            )
        batch, n = data.shape
        if batch == 0:
            raise InputError("batch must contain at least one problem")
        if n == 0:
            raise InputError("cannot select from an empty list")
        if data.dtype not in KEY_DTYPES:
            raise InputError(f"unsupported radix key dtype {data.dtype}")
        k = check_problem(n, k)
        nominal_n = n if nominal_n is None else nominal_n
        nominal_k = k if nominal_k is None else nominal_k
        if nominal_n < n or nominal_k < 1:
            raise ValueError("nominal sizes cannot be below the actual sizes")
        reason = self.supports(nominal_n, nominal_k)
        if reason is not None:
            raise UnsupportedProblem(reason)

        if device is None:
            device = Device(spec)
        keys = priority_keys(
            np.ascontiguousarray(data, dtype=data.dtype.newbyteorder("=")),
            largest=largest,
        )
        ctx = RunContext(
            device=device,
            keys=keys,
            k=k,
            nominal_n=nominal_n,
            nominal_k=nominal_k,
            rng=np.random.default_rng(seed),
            seed=seed,
        )
        key_out, idx = self._run(ctx)
        # the benchmark stops its timer after draining the stream; every
        # algorithm pays this final synchronisation (100-run averages in the
        # paper include it)
        device.synchronize("sync_result")
        if idx.shape != (batch, k):
            raise AssertionError(
                f"{self.name} returned indices of shape {idx.shape}, "
                f"expected {(batch, k)}"
            )
        # present results best-first: ascending keys == priority order
        order = np.argsort(key_out, axis=1, kind="stable")
        rows = np.arange(batch)[:, None]
        idx = idx[rows, order]
        values = data[rows, idx]
        if squeeze:
            values = values[0]
            idx = idx[0]
        result = TopKResult(
            values=values, indices=idx, algo=self.name, device=device
        )
        return self._finalize(result, n=nominal_n, k=nominal_k)

    def _finalize(self, result: TopKResult, *, n: int, k: int) -> TopKResult:
        """Attach fidelity metadata before the result leaves :meth:`select`.

        The exact algorithms return the result untouched; the approximate
        tier overrides this to set ``exact=False`` and the analytic recall
        contract (``recall_bound``, ``meta['expected_recall']``).
        """
        return result

    def schedule(
        self, spec: GPUSpec, run: RunShape, counts=None
    ) -> list[Step] | None:
        """Everything a run charges the device, as :class:`~repro.device.Step`
        entries in order: kernel launches, syncs, PCIe copies and host
        compute.  :meth:`_run` charges it with :meth:`Device.charge`.  None
        only for ``auto``, which runs the method it picks.

        ``counts`` holds the data-dependent counts a schedule reads, where
        the number or size of its steps depends on the data (the queue
        family's :class:`~repro.algos.queue_common.QueueStats`, the
        partition family's per-iteration
        :class:`~repro.algos.partition_common.PartitionCounts`,
        RadixSelect's per-row :class:`~repro.algos.radix_select.RadixRow`
        records, AIR Top-K's per-launch
        :class:`~repro.core.air_topk.KernelTraffic` totals, the Dr. Top-K
        hybrid's per-row :class:`~repro.algos.hybrid.HybridRow` records):
        the run passes measured ones, the predictor expected ones
        (:mod:`repro.perf.costmodel`).  Sort, Bitonic Top-K and the
        approximate tier read none.
        """
        return None

    def _select(self, ctx: RunContext) -> tuple[np.ndarray, np.ndarray, object]:
        """The run's data work, charging nothing: ``(keys, indices,
        counts)``, where ``counts`` is what :meth:`schedule` reads of the
        run.  ``keys`` are the encoded keys of the selected elements
        (used only to order the output) and ``indices`` positions into
        the input rows, both of shape (batch, k), unsorted."""
        raise NotImplementedError(f"{type(self).__name__} has no schedule")

    def _run(self, ctx: RunContext) -> tuple[np.ndarray, np.ndarray]:
        """Produce ``(keys, indices)`` of shape (batch, k), unsorted, and
        charge the run's schedule: the one place a run charges the
        device."""
        keys, indices, counts = self._select(ctx)
        device = ctx.device
        device.charge(self.schedule(device.spec, ctx.shape, counts))
        return keys, indices
