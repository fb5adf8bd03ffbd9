"""Simulated GPU execution model (the substrate replacing real CUDA boards).

See DESIGN.md section 2 for why this substitution preserves the paper's
observable behaviour.
"""

from .spec import GPUSpec, A100, H100, A10, V100, PRESETS, get_spec
from .counters import DeviceCounters, KernelStats, aggregate_counters
from .timeline import Timeline, TraceEvent, STREAMS
from .device import Device, Step
from .launch import Occupancy, occupancy, streaming_grid, ceil_div, next_pow2
from .tracing import timeline_spans

__all__ = [
    "GPUSpec",
    "A100",
    "H100",
    "A10",
    "V100",
    "PRESETS",
    "get_spec",
    "Device",
    "Step",
    "DeviceCounters",
    "KernelStats",
    "Timeline",
    "TraceEvent",
    "STREAMS",
    "Occupancy",
    "occupancy",
    "streaming_grid",
    "ceil_div",
    "next_pow2",
    "aggregate_counters",
    "timeline_spans",
]
