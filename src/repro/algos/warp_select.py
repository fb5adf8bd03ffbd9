"""WarpSelect and BlockSelect — Faiss' queue-based partial sorting methods.

WarpSelect (Johnson et al.) runs one warp per problem; each of the 32 lanes
keeps a private thread queue in registers, and whenever any queue fills, the
warp bitonic-sorts all queues and merges them into the maintained top-k.
BlockSelect extends it to a thread block of 4 warps — still a single block,
so a hundred-SM GPU stays mostly idle (the motivation for GridSelect,
Sec. 4).

Cost shape: a single block is limited to a small slice of device bandwidth
(occupancy term), per-thread-queue bookkeeping further lowers the sustained
rate (``WARP_EFFICIENCY_THREAD_QUEUE``), and the lockstep rounds plus flush
sort/merge work form a serial dependency chain.
"""

from __future__ import annotations

from .queue_common import QueueSelect
from ..perf import calibration as cal


class WarpSelect(QueueSelect):
    """One warp per problem, 32 private thread queues (Faiss)."""

    name = "warp_select"
    library = "Faiss"
    lanes = 32
    cost_record = "faiss_thread"
    kernel_name = "warp_select_kernel"


class BlockSelect(QueueSelect):
    """One 4-warp block per problem — Faiss' extension of WarpSelect."""

    name = "block_select"
    library = "Faiss"
    lanes = 32 * cal.BLOCK_SELECT_WARPS
    cost_record = "faiss_thread"
    kernel_name = "block_select_kernel"
