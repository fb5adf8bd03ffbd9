"""GridSelect — shared-queue, multi-block queue select (paper Sec. 4).

GridSelect improves Faiss' WarpSelect/BlockSelect on three axes:

* **Shared queue.**  The 32 per-thread register queues become one
  shared-memory queue of capacity 32 per warp.  Register pressure drops
  and, crucially, a flush (bitonic sort + merge into the maintained top-k)
  happens only when the *total* number of qualified candidates fills the
  queue — not as soon as one unlucky thread's private queue fills.
* **Parallel two-step insertion (Fig. 5).**  Lanes compute unique storing
  positions with a warp ballot; positions below the capacity insert
  immediately, the rest insert after the flush, shifted down by the
  capacity.  Insertion stays fully parallel.
* **Multiple thread blocks.**  A grid of blocks covers the input, each
  block keeping its own top-k over a contiguous slice; a final kernel
  merges the per-block results.  This is what lets GridSelect use all of a
  GPU's SMs where BlockSelect uses one — the source of the up-to-882x
  speedup in Table 2.

Like WarpSelect, GridSelect processes data on-the-fly (it maintains the
top-k of everything seen so far); see :class:`GridSelectStream`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..algos.queue_common import QueueSelect, QueueStats, best_first, sentinel_for
from ..device import Device, GPUSpec, A100, ceil_div
from ..errors import check_k
from ..obs.metrics import get_metrics, metrics_enabled
from ..obs.spans import tracing_enabled
from ..perf import calibration as cal


class GridSelect(QueueSelect):
    """Multi-block shared-queue k-selection (this paper)."""

    name = "grid_select"
    library = "this paper"
    #: threads per block (4 warps, matching BlockSelect's block shape)
    lanes = block_threads = 32 * cal.BLOCK_SELECT_WARPS
    kernel_name = "GridSelectKernel"
    merge_name = "GridSelectMerge"

    def __init__(self, *, queue: str = "shared") -> None:
        """``queue='thread'`` is the per-thread-queue ablation of Fig. 11."""
        if queue not in ("shared", "thread"):
            raise ValueError(f"queue must be 'shared' or 'thread', got {queue!r}")
        self.queue = queue
        self.cost_record = f"grid_{queue}"

    def num_blocks(self, spec, nominal_n: int) -> int:
        """Blocks per problem: enough to cover N, capped at 2 waves."""
        per_thread = cal.STREAM_ITEMS_PER_THREAD * 16
        needed = ceil_div(nominal_n, self.block_threads * per_thread)
        return max(1, min(needed, 2 * spec.sm_count))

    def _telemetry(self, stats: QueueStats) -> dict | None:
        """The queue stats as span args (the emulation counts ``queue.*``)."""
        if tracing_enabled():
            return {"queue": self.queue, **dataclasses.asdict(stats)}
        return None


class GridSelectStream:
    """On-the-fly GridSelect: feed chunks as they arrive, read top-k anytime.

    WarpSelect's signature capability — kept by GridSelect (Sec. 4) — is
    consuming a stream without materialising it: the structure always holds
    the top-k of everything pushed so far.  Useful when the scored elements
    are produced incrementally (e.g. distance computations fused with
    selection in ANN search).

    Any radix key dtype can be streamed (see :mod:`repro.primitives.radix`);
    the first non-empty push fixes it, and a later push of another dtype
    raises ``ValueError``.
    """

    def __init__(
        self,
        k: int,
        *,
        device: Device | None = None,
        spec: GPUSpec = A100,
        largest: bool = False,
    ) -> None:
        k = check_k(k)
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        if k > GridSelect.max_k:
            raise ValueError(f"GridSelect supports k <= {GridSelect.max_k}")
        self.k = k
        self.largest = largest
        self.device = device if device is not None else Device(spec)
        self._seen = 0
        #: value dtype, and the maintained keys, fixed by the first push
        self._dtype: np.dtype | None = None
        self._keys: np.ndarray | None = None
        self._idx = np.full(k, -1, dtype=np.int64)

    @property
    def count_seen(self) -> int:
        """Total elements pushed so far."""
        return self._seen

    def push(self, chunk: np.ndarray) -> None:
        """Consume one chunk of values."""
        from ..primitives import priority_keys  # local: avoids cycle at import

        chunk = np.asarray(chunk)
        if chunk.ndim != 1:
            raise ValueError(f"push expects a 1-d chunk, got shape {chunk.shape}")
        if chunk.size == 0:
            return
        if self._dtype is not None and chunk.dtype != self._dtype:
            raise ValueError(
                f"stream holds {self._dtype} values, cannot push {chunk.dtype}"
            )
        keys = priority_keys(np.ascontiguousarray(chunk), largest=self.largest)
        if self._keys is None:
            self._dtype = chunk.dtype
            self._keys = np.full(self.k, sentinel_for(keys.dtype), dtype=keys.dtype)
        threshold = self._keys[-1]
        mask = keys < threshold
        # while padding remains, a real element whose key equals the
        # sentinel is admitted too, as in emulate_queue_select
        if self._idx[-1] < 0:
            mask |= keys == threshold
        qualified = int(mask.sum())

        if qualified:
            cand_idx = np.flatnonzero(mask) + self._seen
            merged_keys = np.concatenate([self._keys, keys[mask]])
            merged_idx = np.concatenate([self._idx, cand_idx])
            best_keys, best_idx = best_first(
                merged_keys[None], merged_idx[None], self.k
            )
            self._keys, self._idx = best_keys[0], best_idx[0]

        n = chunk.shape[0]
        span_args = None
        if tracing_enabled():
            span_args = {"chunk": n, "qualified": qualified, "seen": self._seen}
        if metrics_enabled():
            registry = get_metrics()
            registry.counter("gridselect.stream_chunks").inc()
            registry.counter("gridselect.stream_qualified").inc(qualified)
        blocks = GridSelect().num_blocks(self.device.spec, max(n, 1))
        self.device.launch_kernel(
            "GridSelectStreamChunk",
            grid_blocks=blocks,
            block_threads=GridSelect.block_threads,
            bytes_read=4.0 * n,
            bytes_written=8.0 * qualified,
            flops=cal.SHARED_QUEUE_OPS_PER_ELEM * n,
            warp_efficiency=cal.WARP_EFFICIENCY_SHARED_QUEUE,
            span_args=span_args,
        )
        self._seen += n

    def topk(self) -> tuple[np.ndarray, np.ndarray]:
        """Current top-k ``(values, indices)`` over everything pushed so far,
        best first, in the pushed dtype.  Raises if fewer than k elements
        were pushed.
        """
        from ..primitives import decode, invert

        if self._seen < self.k:
            raise ValueError(
                f"only {self._seen} elements pushed, need at least k={self.k}"
            )
        keys = self._keys
        if self.largest:
            keys = invert(keys)
        return decode(keys, self._dtype), self._idx.copy()
