"""Work accounting for simulated kernels.

Every kernel launch records the quantities the cost model prices and the
quantities the paper's Table 3 reports (per-kernel time share and "Speed of
Light" utilisation percentages).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass
class KernelStats:
    """Aggregated statistics for all launches of one kernel name."""

    name: str
    launches: int = 0
    #: bytes read from device memory across all launches
    bytes_read: float = 0.0
    #: bytes written to device memory across all launches
    bytes_written: float = 0.0
    #: FP32-equivalent operations executed
    flops: float = 0.0
    #: total simulated execution time, seconds
    time: float = 0.0

    @property
    def bytes_total(self) -> float:
        return self.bytes_read + self.bytes_written


@dataclass
class DeviceCounters:
    """Machine-wide counters for one simulated run."""

    kernel_launches: int = 0
    #: device-memory traffic, bytes
    bytes_read: float = 0.0
    bytes_written: float = 0.0
    #: FP32-equivalent operations
    flops: float = 0.0
    #: host<->device transfers
    h2d_transfers: int = 0
    d2h_transfers: int = 0
    h2d_bytes: float = 0.0
    d2h_bytes: float = 0.0
    #: explicit host/device synchronisation points
    syncs: int = 0
    #: peak extra device memory allocated beyond input/output, bytes
    peak_workspace_bytes: float = 0.0
    _current_workspace: float = field(default=0.0, repr=False)

    @property
    def bytes_total(self) -> float:
        return self.bytes_read + self.bytes_written

    @property
    def pcie_bytes(self) -> float:
        return self.h2d_bytes + self.d2h_bytes

    @property
    def pcie_transfers(self) -> int:
        return self.h2d_transfers + self.d2h_transfers

    def allocate_workspace(self, nbytes: float) -> None:
        """Track a device-memory workspace allocation.

        The adaptive strategy of AIR Top-K bounds the candidate buffer at
        ``N/alpha`` elements (Sec. 3.2); this counter lets tests assert that
        bound.
        """
        if not 0.0 <= nbytes < math.inf:
            raise ValueError(
                f"workspace size must be non-negative and finite, got {nbytes}"
            )
        self._current_workspace += nbytes
        self.peak_workspace_bytes = max(
            self.peak_workspace_bytes, self._current_workspace
        )

    def free_workspace(self, nbytes: float) -> None:
        if not 0.0 <= nbytes < math.inf:
            raise ValueError(
                f"workspace size must be non-negative and finite, got {nbytes}"
            )
        self._current_workspace = max(0.0, self._current_workspace - nbytes)

    def merge(self, other: "DeviceCounters") -> None:
        """Accumulate another run's counters into this one.

        Traffic and launch totals add; ``peak_workspace_bytes`` takes the
        max, since the runs never share an allocator.
        """
        self.kernel_launches += other.kernel_launches
        self.bytes_read += other.bytes_read
        self.bytes_written += other.bytes_written
        self.flops += other.flops
        self.h2d_transfers += other.h2d_transfers
        self.d2h_transfers += other.d2h_transfers
        self.h2d_bytes += other.h2d_bytes
        self.d2h_bytes += other.d2h_bytes
        self.syncs += other.syncs
        self.peak_workspace_bytes = max(
            self.peak_workspace_bytes, other.peak_workspace_bytes
        )


def aggregate_counters(points) -> DeviceCounters:
    """Sum the per-point :class:`DeviceCounters` of a sweep.

    ``points`` is any iterable of objects with an optional ``counters``
    attribute (e.g. :class:`repro.bench.BenchPoint`); points without one
    (failures, unsupported combinations) contribute nothing.  Used by run
    manifests and the ``workers=1 == workers=N`` invariant test.
    """
    total = DeviceCounters()
    for point in points:
        counters = getattr(point, "counters", None)
        if counters is not None:
            total.merge(counters)
    return total
