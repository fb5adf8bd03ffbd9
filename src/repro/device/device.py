"""The simulated machine: one GPU, one host thread, one PCIe link.

A :class:`Device` instance is the handle every algorithm runs against.  It
owns the work counters, the trace timeline and two time cursors:

* ``cpu_time`` — when the host thread is next free.  Kernel submission,
  host-side processing of intermediate data (as host-coordinated
  RadixSelect does) and synchronisation advance it.
* ``gpu_time`` — when the GPU stream is next free.  Kernels execute in
  submission order and back-to-back when the host keeps the stream fed,
  which is exactly the behaviour AIR Top-K's iteration-fused design buys
  (paper Fig. 8).

Scaled execution: benchmarks at the paper's largest sizes (N = 2^30 is
4 GiB of float32) execute the algorithm on a proportionally reduced problem
and register work with ``scale > 1``, so counters and kernel pricing reflect
the nominal size while the Python process only touches the reduced data.
Launch-count-type overheads (submission latency, PCIe setup, sync) are
intensive quantities and are never scaled.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .counters import DeviceCounters, KernelStats
from .spec import GPUSpec, A100
from .timeline import Timeline
from ..perf.costmodel import KernelCostModel


class Step(NamedTuple):
    """One entry of a schedule (:meth:`repro.algos.TopKAlgorithm.schedule`):
    what the device does and its keywords.  ``kind`` is ``"launch"`` (a
    kernel, :meth:`Device.launch_kernel`), ``"sync"``, ``"d2h"`` or
    ``"h2d"`` (a blocking PCIe copy) or ``"host"`` (host compute);
    :meth:`Device.charge` runs it."""

    kind: str
    args: dict

    @staticmethod
    def launch(name: str, **work) -> Step:
        # the keywords are already a fresh dict: no copy
        work["name"] = name
        return Step("launch", work)

    @staticmethod
    def sync(name: str) -> Step:
        return Step("sync", dict(name=name))

    @staticmethod
    def d2h(name: str, nbytes: float) -> Step:
        return Step("d2h", dict(name=name, nbytes=nbytes))

    @staticmethod
    def h2d(name: str, nbytes: float) -> Step:
        return Step("h2d", dict(name=name, nbytes=nbytes))

    @staticmethod
    def host(name: str, seconds: float) -> Step:
        return Step("host", dict(name=name, seconds=seconds))


class Device:
    """A simulated GPU attached to a host over PCIe."""

    def __init__(self, spec: GPUSpec = A100, *, scale: float = 1.0) -> None:
        if not 1.0 <= scale < math.inf:
            raise ValueError(f"scale must be finite and >= 1, got {scale}")
        self.spec = spec
        self.scale = scale
        self.cost_model = KernelCostModel(spec)
        self.counters = DeviceCounters()
        self.timeline = Timeline()
        self.kernel_stats: dict[str, KernelStats] = {}
        self.cpu_time = 0.0
        self.gpu_time = 0.0

    # ------------------------------------------------------------------ #
    # time accounting
    # ------------------------------------------------------------------ #
    @property
    def elapsed(self) -> float:
        """Simulated wall-clock time since the run began, seconds."""
        return max(self.cpu_time, self.gpu_time)

    def launch_kernel(
        self,
        name: str,
        *,
        grid_blocks: int,
        block_threads: int,
        bytes_read: float = 0.0,
        bytes_written: float = 0.0,
        flops: float = 0.0,
        dependent_cycles: float = 0.0,
        warp_efficiency: float = 1.0,
        scalable: bool = True,
        fixed_bytes_read: float = 0.0,
        fixed_bytes_written: float = 0.0,
        fixed_flops: float = 0.0,
        fixed_dependent_cycles: float = 0.0,
        span_args: dict | None = None,
    ) -> float:
        """Submit and execute one kernel; returns its device-side duration.

        ``scalable=True`` quantities are multiplied by the device's data
        scale (see module docstring); pass ``scalable=False`` for kernels
        whose work does not grow with N.  The ``fixed_*`` quantities are
        never scaled — use them for work that is constant in N even inside
        an otherwise data-proportional kernel (e.g. the 2^b-entry histogram
        writes and block scan fused into AIR's iteration kernel).
        ``span_args`` attaches behavioural annotations to the timeline
        event (shown as hover args in trace exports).
        """
        s = self.scale if scalable else 1.0
        bytes_read = bytes_read * s + fixed_bytes_read
        bytes_written = bytes_written * s + fixed_bytes_written
        flops = flops * s + fixed_flops
        # price() rejects negative and non-finite work and an invalid grid
        duration = self.cost_model.price(
            (grid_blocks, block_threads),
            bytes_read=bytes_read,
            bytes_written=bytes_written,
            flops=flops,
            dependent_cycles=dependent_cycles * s + fixed_dependent_cycles,
            warp_efficiency=warp_efficiency,
        ).duration

        # host submits the launch, then the stream runs it in order
        self.cpu_time += self.spec.kernel_launch_latency
        start = max(self.gpu_time, self.cpu_time)
        end = start + duration
        self.gpu_time = end
        self.timeline.record(name, "gpu", start, end, args=span_args)

        counters = self.counters
        counters.kernel_launches += 1
        counters.bytes_read += bytes_read
        counters.bytes_written += bytes_written
        counters.flops += flops
        stats = self.kernel_stats.get(name)
        if stats is None:
            stats = self.kernel_stats[name] = KernelStats(name)
        stats.launches += 1
        stats.bytes_read += bytes_read
        stats.bytes_written += bytes_written
        stats.flops += flops
        stats.time += duration
        return duration

    def charge(self, schedule) -> None:
        """Charge a schedule's :class:`Step` entries in order."""
        act = {
            "launch": self.launch_kernel,
            "sync": self.synchronize,
            "d2h": self.memcpy_d2h,
            "h2d": self.memcpy_h2d,
            "host": self.host_compute,
        }
        for kind, args in schedule:
            act[kind](**args)

    def memcpy_d2h(self, name: str, nbytes: float, *, scalable: bool = False) -> float:
        """Blocking device-to-host copy (how the baselines fetch histograms)."""
        return self._memcpy(name, nbytes, "pcie_d2h", scalable)

    def memcpy_h2d(self, name: str, nbytes: float, *, scalable: bool = False) -> float:
        """Blocking host-to-device copy."""
        return self._memcpy(name, nbytes, "pcie_h2d", scalable)

    def _memcpy(self, name: str, nbytes: float, stream: str, scalable: bool) -> float:
        if not 0.0 <= nbytes < math.inf:
            raise ValueError(
                f"transfer size must be non-negative and finite, got {nbytes}"
            )
        nbytes *= self.scale if scalable else 1.0
        duration = self.cost_model.pcie_time(nbytes)
        # a blocking copy waits for the stream to drain, then occupies both
        # the link and the host thread
        start = max(self.cpu_time, self.gpu_time)
        end = start + duration
        self.cpu_time = end
        self.gpu_time = end
        self.timeline.record(name, stream, start, end)
        if stream == "pcie_d2h":
            self.counters.d2h_transfers += 1
            self.counters.d2h_bytes += nbytes
        else:
            self.counters.h2d_transfers += 1
            self.counters.h2d_bytes += nbytes
        return duration

    def host_compute(self, name: str, seconds: float) -> float:
        """Host-side processing (e.g. the CPU scan in baseline RadixSelect)."""
        if not 0.0 <= seconds < math.inf:
            raise ValueError(f"duration must be non-negative and finite, got {seconds}")
        start = self.cpu_time
        self.cpu_time = start + seconds
        self.timeline.record(name, "cpu", start, self.cpu_time)
        return seconds

    def synchronize(self, name: str = "sync") -> None:
        """Host waits for the GPU stream to drain."""
        start = self.cpu_time
        self.cpu_time = max(self.cpu_time, self.gpu_time) + self.spec.sync_latency
        self.counters.syncs += 1
        self.timeline.record(name, "cpu", start, self.cpu_time)

    # ------------------------------------------------------------------ #
    # workspace accounting (scaled: buffers grow with the data)
    # ------------------------------------------------------------------ #
    def allocate_workspace(self, nbytes: float) -> None:
        self.counters.allocate_workspace(nbytes * self.scale)

    def free_workspace(self, nbytes: float) -> None:
        self.counters.free_workspace(nbytes * self.scale)
