"""Grid-configuration helpers shared by all simulated kernels.

These mirror the sizing rules a CUDA implementation would use: enough blocks
to cover the input with a fixed items-per-thread, clamped to a multiple of
what the device can keep resident.
"""

from __future__ import annotations

from dataclasses import dataclass

from .spec import GPUSpec


def ceil_div(a: int, b: int) -> int:
    """Ceiling integer division for non-negative ``a`` and positive ``b``."""
    if b <= 0:
        raise ValueError(f"divisor must be positive, got {b}")
    if a < 0:
        raise ValueError(f"dividend must be non-negative, got {a}")
    return -(-a // b)


def next_pow2(n: int) -> int:
    """Smallest power of two >= n (n >= 1)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class Occupancy:
    """Residency of a kernel configuration on one SM."""

    blocks_per_sm: int
    limited_by: str


def occupancy(
    spec: GPUSpec,
    *,
    block_threads: int,
    shared_mem_per_block: int = 0,
    registers_per_thread: int = 32,
) -> Occupancy:
    """How many blocks of this configuration fit on one SM, and why.

    Register pressure is the limit the paper calls out for WarpSelect's
    per-thread queues (Sec. 4); the shared-queue design trades registers for
    a small shared-memory footprint.
    """
    if block_threads <= 0 or block_threads > spec.max_threads_per_block:
        raise ValueError(
            f"block_threads must be in [1, {spec.max_threads_per_block}], "
            f"got {block_threads}"
        )
    if shared_mem_per_block < 0 or registers_per_thread <= 0:
        raise ValueError("invalid resource request")

    by_threads = spec.max_threads_per_sm // block_threads
    limits = {"threads": by_threads}
    if shared_mem_per_block > 0:
        limits["shared_mem"] = spec.shared_mem_per_sm // shared_mem_per_block
    limits["registers"] = spec.registers_per_sm // (
        registers_per_thread * block_threads
    )
    limiter = min(limits, key=lambda k: limits[k])
    return Occupancy(blocks_per_sm=max(0, limits[limiter]), limited_by=limiter)


#: residency caps :func:`streaming_grid` holds before it drops its oldest
GRID_CAP_ENTRIES = 256

#: ``(id(spec), block_threads, max_waves) -> (spec, cap)``.  Keying by id
#: skips hashing every field of the spec per call; the entry holds the spec,
#: so its id cannot be reused by another object while the entry lives.
_GRID_CAPS: dict = {}


def streaming_grid(
    spec: GPUSpec,
    n: int,
    *,
    block_threads: int = 256,
    items_per_thread: int = 8,
    max_waves: int = 32,
) -> int:
    """Number of blocks a streaming kernel launches over ``n`` items.

    Covers the input at ``items_per_thread`` granularity but never launches
    more than ``max_waves`` full waves of the device — large inputs are
    grid-stride looped, exactly as the RAFT implementation does.  The wave
    cap depends only on ``(spec, block_threads, max_waves)`` and is
    computed once per such triple (at most :data:`GRID_CAP_ENTRIES` kept).
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n == 0:
        return 1
    blocks_needed = ceil_div(n, block_threads * items_per_thread)
    key = (id(spec), block_threads, max_waves)
    entry = _GRID_CAPS.get(key)
    if entry is None:
        resident = occupancy(spec, block_threads=block_threads).blocks_per_sm
        entry = (spec, max(1, spec.sm_count * max(1, resident) * max_waves))
        if len(_GRID_CAPS) >= GRID_CAP_ENTRIES:
            del _GRID_CAPS[next(iter(_GRID_CAPS))]
        _GRID_CAPS[key] = entry
    return max(1, min(blocks_needed, entry[1]))
