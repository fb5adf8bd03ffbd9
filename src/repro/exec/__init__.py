"""Parallel sweep execution engine (see :mod:`repro.exec.engine`)."""

from .engine import (
    ProgressEvent,
    build_grid,
    default_chunk_size,
    fanout,
    sweep,
)
from .worker import (
    RETRIES,
    ChunkResult,
    PointSpec,
    PointTimeout,
    execute_chunk,
    execute_point,
)

__all__ = [
    "ProgressEvent",
    "build_grid",
    "default_chunk_size",
    "fanout",
    "sweep",
    "RETRIES",
    "ChunkResult",
    "PointSpec",
    "PointTimeout",
    "execute_chunk",
    "execute_point",
]
