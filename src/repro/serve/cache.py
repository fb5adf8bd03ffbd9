"""LRU result and dispatch-plan caches for the serving layer.

Two things are worth remembering between requests:

* **Dispatch plans** — the ``auto`` dispatcher's cost-model ranking is a
  pure function of (n, k, batch, GPU spec), so the ranking computed for
  one micro-batch can be reused for every later batch of the same shape.
  Plans are keyed on the problem shape with the batch size bucketed to a
  power of two (the cost model's batch sensitivity is coarse, and
  bucketing keeps the table small under jittery occupancy).
* **Results** — identical payloads recur in real serving traffic (hot
  queries, retries).  Served (values, indices) are keyed on the
  payload's identity plus (k, largest) — the hints that change the
  answer — plus the request's *quality class*: an approximate-tier
  answer and the exact answer for the same payload are different results
  and must never alias (an exact caller getting a cached approximate
  answer would be a silent correctness bug).  Entries carry a ``meta``
  dict (``exact``, ``recall_bound``, ``algo``) so a cache hit reproduces
  the original outcome's quality annotations.

The result cache hashes no payload.  A payload's identity is one of:

* **its bytes** — an insert pins a private, read-only copy of the
  payload to its entry, and a side index maps a cheap *probe* — dtype
  (byte order included), shape, 64 evenly strided payload elements and
  (k, largest, quality) — to the live entries under it.  A lookup is the
  probe followed by a bitwise compare against those entries' pins; a
  re-insert of a live payload finds its entry the same way and refreshes
  it.  A pin lives and dies with its entry, so the extra memory is at
  most capacity × payload bytes.
* **a content key** — a cluster node's sub-queries carry the router's
  frozen :func:`repro.cluster.placement.payload_key` of the whole
  request payload (plus the slice bounds for a partition), a strong
  hash the router has already paid for.  The entry is keyed by it
  directly: no probe and no pin.  Only
  :meth:`repro.cluster.ClusterNode.dispatch` attaches such a key.

Every hit hands out its own copy of the stored values, indices and
meta.  Both caches sit behind :class:`ServeCache`, a pair of bounded
:class:`LRUCache` maps with hit/miss counters the service exports as
``serve.cache`` metrics.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np


#: payload elements in a result probe, evenly strided over the payload
PROBE_SAMPLE = 64


def fingerprint(data: np.ndarray) -> str:
    """Content hash of an array: the first 16 bytes of SHA-256, as 32 hex
    characters, over its dtype (byte order included), shape and bytes.

    A standalone helper: the result cache does not call it (entries are
    found by a pinned copy or a cluster content key, see the module
    docstring), and cluster placement uses the frozen
    :func:`repro.cluster.placement.payload_key`.
    """
    arr = np.ascontiguousarray(data)
    digest = hashlib.sha256(f"{arr.dtype.str}{arr.shape}".encode())
    digest.update(arr)  # reads the buffer in place: no copy of the payload
    return digest.hexdigest()[:32]


def _bits(data: np.ndarray) -> np.ndarray:
    """``data`` viewed as unsigned integers of its item size, so ``==`` is
    bitwise: a NaN equals itself and -0.0 differs from +0.0."""
    return data.view(f"u{data.dtype.itemsize}")


def _pin(data: np.ndarray) -> np.ndarray:
    """A private, read-only copy of ``data``'s bits."""
    pinned = _bits(np.array(data, copy=True))
    pinned.flags.writeable = False
    return pinned


class LRUCache:
    """A bounded mapping with least-recently-used eviction.

    ``get`` refreshes recency and counts hits/misses; ``put`` evicts the
    stalest entries once ``capacity`` is exceeded and returns them as
    ``(key, value)`` pairs.  ``capacity <= 0`` disables the cache (every
    get is a miss, puts are dropped).
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._data: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key) -> bool:
        return key in self._data

    def get(self, key, default=None):
        if key in self._data:
            self.hits += 1
            self._data.move_to_end(key)
            return self._data[key]
        self.misses += 1
        return default

    def put(self, key, value) -> list[tuple]:
        if self.capacity <= 0:
            return []
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        evicted = []
        while len(self._data) > self.capacity:
            evicted.append(self._data.popitem(last=False))
            self.evictions += 1
        return evicted


@dataclass(frozen=True)
class DispatchPlan:
    """A cached ``auto`` decision for one problem-shape bucket."""

    #: concrete algorithm the cost model picked
    algo: str
    #: full (algo, predicted seconds) ranking behind the pick
    ranking: tuple[tuple[str, float], ...] = field(default_factory=tuple)
    #: algorithm tuning the plan runs with (approximate configs)
    params: tuple[tuple[str, object], ...] = ()
    #: analytic E[recall] of the plan (1.0 for exact plans)
    predicted_recall: float = 1.0
    #: whether the planned algorithm guarantees the exact top-k
    exact: bool = True
    #: the recall target the plan was made for (None = unconstrained)
    min_recall: float | None = None

    @property
    def predicted_time(self) -> float | None:
        return self.ranking[0][1] if self.ranking else None


def _batch_bucket(batch: int) -> int:
    """Round a batch size up to a power of two (plan-cache key bucket)."""
    return 1 << max(0, int(batch) - 1).bit_length()


class ServeCache:
    """Result + dispatch-plan LRU caches shared by a :class:`TopKService`."""

    def __init__(self, *, result_capacity: int = 256, plan_capacity: int = 64):
        self.results = LRUCache(result_capacity)
        self.plans = LRUCache(plan_capacity)
        #: probe -> {result key: pinned payload bits}, over the live
        #: result entries stored without a content key
        self._probes: dict[tuple, dict[int, np.ndarray]] = {}
        #: result keys of pinned entries
        self._serials = itertools.count()
        #: optional :class:`repro.perf.adaptive.CorrectionStore`; when set,
        #: plan keys carry the regime's correction epoch, so a folded-in
        #: correction invalidates exactly the plans whose cost-model
        #: inputs changed — untouched regimes keep hitting (the PR-10
        #: staleness fix, pinned by tests/test_adaptive.py)
        self.corrections = None
        #: entries that failed their integrity checksum on read (each one
        #: was evicted and re-fetched — see :meth:`get_result`)
        self.corruptions = 0
        #: optional ``on_event(event)`` callback fired per lookup with
        #: "result_hit" / "result_miss" / "result_corrupt" / "plan_hit" /
        #: "plan_miss" — the service routes these into its ``serve.cache``
        #: metrics and the windowed hit-rate series
        self.on_event = None

    def _fire(self, event: str) -> None:
        if self.on_event is not None:
            self.on_event(event)

    # -- dispatch plans ------------------------------------------------- #
    def plan_key(
        self,
        *,
        n: int,
        k: int,
        batch: int,
        spec_name: str,
        largest: bool,
        min_recall: float | None = None,
        dtype: str = "float32",
    ) -> tuple:
        epoch = 0
        if self.corrections is not None:
            epoch = self.corrections.regime_epoch(
                n=n, k=k, batch=batch, spec_name=spec_name, dtype=dtype
            )
        return (
            n, k, _batch_bucket(batch), spec_name, largest, min_recall,
            dtype, epoch,
        )

    def get_plan(self, **key_fields) -> DispatchPlan | None:
        return self.plans.get(self.plan_key(**key_fields))

    def put_plan(self, plan: DispatchPlan, **key_fields) -> None:
        self.plans.put(self.plan_key(**key_fields), plan)

    def make_plan(
        self,
        *,
        n: int,
        k: int,
        batch: int,
        spec,
        largest: bool,
        min_recall: float | None = None,
        dtype: str = "float32",
    ) -> tuple[DispatchPlan, bool]:
        """Fetch or compute the plan for a shape; returns (plan, was_hit).

        Without ``min_recall`` this goes through
        :func:`repro.perf.costmodel.rank_algorithms` — the same exact-only
        ranking the ``auto`` algorithm would derive.  With a recall
        target the quality-aware planner
        (:func:`repro.approx.choose_plan`) picks the cheapest plan —
        exact or approximate — clearing the target with its safety
        margin.  Either way the batch size is bucketed so nearby
        occupancies share one entry.
        """
        fields = dict(
            n=n,
            k=k,
            batch=batch,
            spec_name=spec.name,
            largest=largest,
            min_recall=min_recall,
            dtype=dtype,
        )
        plan = self.get_plan(**fields)
        if plan is not None:
            self._fire("plan_hit")
            return plan, True
        self._fire("plan_miss")
        bucket = _batch_bucket(batch)
        if min_recall is not None:
            from ..approx import choose_plan

            chosen = choose_plan(
                n=n, k=k, batch=bucket, spec=spec,
                min_recall=min_recall,
            )
            plan = DispatchPlan(
                algo=chosen.algo,
                ranking=((chosen.algo, chosen.predicted_time),),
                params=tuple(sorted(chosen.params.items())),
                predicted_recall=chosen.predicted_recall,
                exact=chosen.exact,
                min_recall=min_recall,
            )
        else:
            from ..perf.costmodel import rank_algorithms

            ranking = rank_algorithms(
                n=n, k=k, batch=bucket, spec=spec,
                corrections=self.corrections, dtype=dtype,
            )
            plan = DispatchPlan(
                algo=ranking[0].algo,
                ranking=tuple((p.algo, p.time) for p in ranking),
            )
        self.put_plan(plan, **fields)
        return plan, False

    # -- results -------------------------------------------------------- #
    @staticmethod
    def _probe(
        data: np.ndarray, k: int, largest: bool, quality: float | None
    ) -> tuple:
        """Side-index key of one lookup: dtype, shape, a fixed strided
        sample of the payload's bytes and (k, largest, quality class).

        ``quality`` is the request's quantised recall-target class
        (:func:`repro.serve.batcher.quality_class`); None for exact
        traffic.  It is in every key, so an exact request can never be
        served a cached approximate answer for the same payload, and vice
        versa.
        """
        step = data.size // PROBE_SAMPLE or 1
        return (
            data.dtype,  # compares byte order too: '<f4' != '>f4'
            data.shape,
            data.reshape(-1)[: PROBE_SAMPLE * step : step].tobytes(),
            int(k),
            bool(largest),
            quality,
        )

    def _locate(
        self,
        data: np.ndarray,
        k: int,
        largest: bool,
        quality: float | None,
        content_key,
    ) -> tuple:
        """``(key, probe)`` of this payload's entry.

        With a ``content_key`` the key is derived from it and ``probe`` is
        None: keyed entries are never indexed or pinned.  Otherwise
        ``key`` is the live entry under the payload's probe whose pinned
        copy is bitwise equal to ``data``, or None.
        """
        if content_key is not None:
            return (content_key, int(k), bool(largest), quality), None
        probe = self._probe(data, k, largest, quality)
        live = self._probes.get(probe)
        if live:
            bits = _bits(data)
            for key, pinned in live.items():
                # same shape: the probe holds it
                if (pinned == bits).all():
                    return key, probe
        return None, probe

    def _unindex(self, key, entry: tuple) -> None:
        """Drop an evicted or repaired entry's pin from the side index."""
        probe = entry[-1]
        if probe is None:
            return
        live = self._probes[probe]
        del live[key]
        if not live:
            del self._probes[probe]

    @staticmethod
    def _checksum(values: np.ndarray, indices: np.ndarray) -> str:
        digest = hashlib.blake2b(digest_size=8)
        digest.update(np.ascontiguousarray(values).tobytes())
        digest.update(np.ascontiguousarray(indices).tobytes())
        return digest.hexdigest()

    def get_result(
        self,
        data: np.ndarray,
        k: int,
        largest: bool,
        quality: float | None = None,
        *,
        corrupt=None,
        content_key=None,
    ):
        """The cached ``(values, indices, meta)``, or None on miss *or*
        when the stored entry fails its integrity checksum.

        ``meta`` reproduces the quality annotations of the originally
        served outcome (``exact``, ``recall_bound``, ``algo``).  The
        caller gets its own copies: changing them cannot touch the entry.
        ``corrupt()``, when given, is asked once whether to flip a byte of
        a live entry before it is read (the ``cache_corruption`` fault
        seam, see :meth:`corrupt_result`).  A corrupt entry (bit-rot or an
        injected fault) is counted, evicted (the *repair* half of the
        circuit-breaker policy) and reported as a miss, never served.
        ``content_key`` is the cluster node's payload identity (see the
        module docstring); the service passes the one
        :meth:`repro.cluster.ClusterNode.dispatch` attached, else None.
        """
        key, _ = self._locate(data, k, largest, quality, content_key)
        if key not in self.results:  # None is never a key
            self.results.misses += 1
            self._fire("result_miss")
            return None
        if corrupt is not None and corrupt():
            self._corrupt(key)
        values, indices, checksum, meta, _ = self.results.get(key)
        if self._checksum(values, indices) != checksum:
            self.corruptions += 1
            # repair: drop the bad entry
            self._unindex(key, self.results._data.pop(key))
            self._fire("result_corrupt")
            return None
        self._fire("result_hit")
        return values.copy(), indices.copy(), dict(meta)

    def put_result(
        self,
        data: np.ndarray,
        k: int,
        largest: bool,
        values: np.ndarray,
        indices: np.ndarray,
        quality: float | None = None,
        meta: dict | None = None,
        *,
        content_key=None,
    ) -> None:
        """Store one answer.  A payload without a ``content_key`` is
        pinned on its first insert; a re-insert while its entry is live
        refreshes that entry."""
        if self.results.capacity <= 0:
            return
        key, probe = self._locate(data, k, largest, quality, content_key)
        if key is None:
            key = next(self._serials)
            self._probes.setdefault(probe, {})[key] = _pin(data)
        values = np.array(values, copy=True)
        indices = np.array(indices, copy=True)
        evicted = self.results.put(
            key,
            (values, indices, self._checksum(values, indices),
             dict(meta or {}), probe),
        )
        for old_key, old_entry in evicted:
            self._unindex(old_key, old_entry)

    def _corrupt(self, key) -> None:
        values, *rest = self.results._data[key]
        corrupted = np.array(values, copy=True)
        corrupted.view(np.uint8).reshape(-1)[0] ^= 0xFF
        self.results._data[key] = (corrupted, *rest)

    def corrupt_result(
        self,
        data: np.ndarray,
        k: int,
        largest: bool,
        quality: float | None = None,
    ) -> bool:
        """Flip one byte of the cached values for this payload; returns
        True when an entry was there to corrupt.  The stored checksum is
        left intact, so the next :meth:`get_result` detects and repairs
        the damage."""
        key, _ = self._locate(data, k, largest, quality, None)
        if key is not None:
            self._corrupt(key)
        return key is not None

    def stats(self) -> dict[str, int]:
        return {
            "result_hits": self.results.hits,
            "result_misses": self.results.misses,
            "result_evictions": self.results.evictions,
            "result_corruptions": self.corruptions,
            "plan_hits": self.plans.hits,
            "plan_misses": self.plans.misses,
            "plan_evictions": self.plans.evictions,
        }
