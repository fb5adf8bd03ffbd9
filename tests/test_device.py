"""Tests for the simulated device: specs, scheduling, counters, timeline."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.device import (
    A10,
    A100,
    H100,
    V100,
    Device,
    GPUSpec,
    Step,
    Timeline,
    TraceEvent,
    ceil_div,
    get_spec,
    next_pow2,
    occupancy,
    streaming_grid,
)


class TestSpecs:
    def test_presets(self):
        assert A100.sm_count == 108
        assert H100.peak_bandwidth > 2 * A100.peak_bandwidth
        assert A10.peak_bandwidth < A100.peak_bandwidth
        assert V100.peak_bandwidth < A100.peak_bandwidth

    def test_get_spec(self):
        assert get_spec("a100") is A100
        assert get_spec("H100") is H100
        assert get_spec("v100") is V100
        with pytest.raises(KeyError):
            get_spec("B100")

    def test_validation(self):
        with pytest.raises(ValueError):
            GPUSpec(name="bad", sm_count=0, peak_bandwidth=1, peak_fp32=1, clock_hz=1)
        with pytest.raises(ValueError):
            GPUSpec(name="bad", sm_count=1, peak_bandwidth=-1, peak_fp32=1, clock_hz=1)

    def test_bandwidth_fraction_saturates(self):
        assert A100.bandwidth_fraction(0) == 0.0
        assert A100.bandwidth_fraction(A100.saturation_warps) == 1.0
        assert A100.bandwidth_fraction(10 * A100.saturation_warps) == 1.0
        half = A100.bandwidth_fraction(A100.saturation_warps / 2)
        assert half == pytest.approx(0.5)

    def test_with_overrides(self):
        fast = A100.with_overrides(peak_bandwidth=2e12)
        assert fast.peak_bandwidth == 2e12
        assert fast.sm_count == A100.sm_count
        assert A100.peak_bandwidth != 2e12  # original untouched


class TestLaunchHelpers:
    def test_ceil_div(self):
        assert ceil_div(10, 3) == 4
        assert ceil_div(9, 3) == 3
        assert ceil_div(0, 3) == 0
        with pytest.raises(ValueError):
            ceil_div(1, 0)
        with pytest.raises(ValueError):
            ceil_div(-1, 2)

    def test_next_pow2(self):
        assert next_pow2(1) == 1
        assert next_pow2(2) == 2
        assert next_pow2(3) == 4
        assert next_pow2(1025) == 2048
        with pytest.raises(ValueError):
            next_pow2(0)

    def test_occupancy_limited_by_threads(self):
        occ = occupancy(A100, block_threads=1024)
        assert occ.blocks_per_sm == 2
        assert occ.limited_by in ("threads", "registers")

    def test_occupancy_limited_by_shared_mem(self):
        occ = occupancy(A100, block_threads=128, shared_mem_per_block=100 * 1024)
        assert occ.limited_by == "shared_mem"
        assert occ.blocks_per_sm == 1

    def test_occupancy_limited_by_registers(self):
        occ = occupancy(A100, block_threads=256, registers_per_thread=128)
        assert occ.limited_by == "registers"
        assert occ.blocks_per_sm == 2

    def test_occupancy_validation(self):
        with pytest.raises(ValueError):
            occupancy(A100, block_threads=0)
        with pytest.raises(ValueError):
            occupancy(A100, block_threads=2048)

    def test_streaming_grid_covers_input(self):
        blocks = streaming_grid(A100, 1 << 20, block_threads=256, items_per_thread=8)
        assert blocks * 256 * 8 >= 1 << 20

    def test_streaming_grid_caps_waves(self):
        small = streaming_grid(A100, 1 << 20)
        huge = streaming_grid(A100, 1 << 34)
        assert huge >= small
        assert huge <= A100.sm_count * 8 * 32  # resident x max_waves bound

    def test_streaming_grid_tiny(self):
        assert streaming_grid(A100, 0) == 1
        assert streaming_grid(A100, 1) == 1


class TestTimeline:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            TraceEvent(name="x", stream="gpu", start=2.0, end=1.0)
        with pytest.raises(ValueError):
            TraceEvent(name="x", stream="nope", start=0.0, end=1.0)

    def test_busy_and_gaps(self):
        tl = Timeline()
        tl.record("a", "gpu", 0.0, 1.0)
        tl.record("b", "gpu", 3.0, 4.0)
        assert tl.busy_time("gpu") == pytest.approx(2.0)
        assert tl.idle_gaps("gpu") == [(1.0, 3.0)]
        assert tl.span == pytest.approx(4.0)

    def test_render_contains_streams_and_legend(self):
        tl = Timeline()
        tl.record("kern", "gpu", 0.0, 1e-6)
        tl.record("copy", "pcie_d2h", 1e-6, 3e-6)
        text = tl.render()
        assert "gpu" in text and "pcie_d2h" in text
        assert "K=kern" in text and "C=copy" in text

    def test_render_empty(self):
        assert "empty" in Timeline().render()


class TestDeviceScheduling:
    def test_kernels_execute_in_order(self, device):
        device.launch_kernel("k1", grid_blocks=4, block_threads=256, bytes_read=1e6)
        device.launch_kernel("k2", grid_blocks=4, block_threads=256, bytes_read=1e6)
        events = device.timeline.stream_events("gpu")
        assert [e.name for e in events] == ["k1", "k2"]
        assert events[1].start >= events[0].end

    def test_launch_overhead_occupies_cpu(self, device):
        for _ in range(10):
            device.launch_kernel("k", grid_blocks=1, block_threads=32)
        assert device.cpu_time == pytest.approx(
            10 * device.spec.kernel_launch_latency, rel=1e-9
        )

    def test_gpu_starves_without_submissions(self, device):
        """A tiny kernel ends before the CPU can submit the next one."""
        device.launch_kernel("k1", grid_blocks=1, block_threads=32)
        t_gap_start = device.gpu_time
        device.host_compute("busy", 1e-3)
        device.launch_kernel("k2", grid_blocks=1, block_threads=32)
        ev = device.timeline.stream_events("gpu")[-1]
        assert ev.start >= t_gap_start + 1e-3

    def test_blocking_copy_drains_stream(self, device):
        device.launch_kernel("k", grid_blocks=108, block_threads=256, bytes_read=1e9)
        kernel_end = device.gpu_time
        device.memcpy_d2h("hist", 1024)
        copy = device.timeline.stream_events("pcie_d2h")[0]
        assert copy.start >= kernel_end

    def test_synchronize_waits_for_gpu(self, device):
        device.launch_kernel("k", grid_blocks=108, block_threads=256, bytes_read=1e9)
        device.synchronize()
        assert device.cpu_time >= device.gpu_time

    def test_elapsed_monotone(self, device):
        previous = 0.0
        for action in range(20):
            if action % 3 == 0:
                device.launch_kernel("k", grid_blocks=2, block_threads=64, flops=1e6)
            elif action % 3 == 1:
                device.memcpy_h2d("h", 128)
            else:
                device.synchronize()
            assert device.elapsed >= previous
            previous = device.elapsed


class TestDeviceCounters:
    def test_kernel_accounting(self, device):
        device.launch_kernel(
            "k",
            grid_blocks=16,
            block_threads=256,
            bytes_read=1000.0,
            bytes_written=500.0,
            flops=250.0,
        )
        c = device.counters
        assert c.kernel_launches == 1
        assert c.bytes_read == 1000.0
        assert c.bytes_written == 500.0
        assert c.flops == 250.0
        stats = device.kernel_stats["k"]
        assert stats.launches == 1
        assert stats.bytes_total == 1500.0
        assert stats.time > 0

    def test_pcie_accounting(self, device):
        device.memcpy_d2h("d", 2048)
        device.memcpy_h2d("h", 64)
        c = device.counters
        assert c.d2h_transfers == 1 and c.h2d_transfers == 1
        assert c.pcie_bytes == 2048 + 64

    def test_workspace_peak(self, device):
        device.allocate_workspace(100)
        device.allocate_workspace(50)
        device.free_workspace(100)
        device.allocate_workspace(30)
        assert device.counters.peak_workspace_bytes == 150

    def test_negative_rejected(self, device):
        with pytest.raises(ValueError):
            device.launch_kernel("k", grid_blocks=1, block_threads=32, flops=-1.0)
        with pytest.raises(ValueError):
            device.memcpy_d2h("d", -1)
        with pytest.raises(ValueError):
            device.host_compute("h", -1)


class TestStepBuilders:
    """Each :class:`Step` builder, charged through :meth:`Device.charge`,
    does what the direct :class:`Device` call does."""

    LAUNCH = dict(grid_blocks=16, block_threads=256, bytes_read=1000.0,
                  bytes_written=500.0, flops=250.0)

    @pytest.mark.parametrize("step, direct", [
        (Step.launch("k", **LAUNCH), lambda d: d.launch_kernel("k", **TestStepBuilders.LAUNCH)),
        (Step.sync("s"), lambda d: d.synchronize("s")),
        (Step.d2h("d", 2048.0), lambda d: d.memcpy_d2h("d", 2048.0)),
        (Step.h2d("h", 64.0), lambda d: d.memcpy_h2d("h", 64.0)),
        (Step.host("c", 3e-6), lambda d: d.host_compute("c", 3e-6)),
    ], ids=["launch", "sync", "d2h", "h2d", "host"])
    def test_charged_step_matches_direct_call(self, step, direct):
        charged, called = Device(A100, scale=2.0), Device(A100, scale=2.0)
        # a kernel in flight first, so waits and overlap show
        for d in (charged, called):
            d.launch_kernel("warm", **self.LAUNCH)
        charged.charge([step])
        direct(called)
        assert charged.timeline.events == called.timeline.events
        assert charged.counters == called.counters
        assert charged.kernel_stats == called.kernel_stats
        assert (charged.cpu_time, charged.gpu_time) == (called.cpu_time, called.gpu_time)


NON_FINITE = [math.nan, math.inf, -math.inf]
WORK = ["bytes_read", "bytes_written", "flops", "dependent_cycles",
        "fixed_bytes_read", "fixed_bytes_written", "fixed_flops",
        "fixed_dependent_cycles"]


class TestNonFiniteRejected:
    """NaN slips past every ``x < 0`` guard; each check rejects it now."""

    @staticmethod
    def _untouched(device) -> None:
        assert device.counters == type(device.counters)()
        assert device.kernel_stats == {}
        assert len(device.timeline) == 0 and device.elapsed == 0.0

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", WORK)
    def test_launch_work(self, device, field, value):
        for _ in range(2):
            with pytest.raises(ValueError, match="finite"):
                device.launch_kernel("k", grid_blocks=4, block_threads=256,
                                     **{field: value})
        self._untouched(device)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_transfers_host_work_and_workspace(self, device, value):
        for call in (
            lambda: device.memcpy_d2h("d", value),
            lambda: device.memcpy_h2d("h", value),
            lambda: device.host_compute("c", value),
            lambda: device.allocate_workspace(value),
            lambda: device.free_workspace(value),
            lambda: device.cost_model.pcie_time(value),
        ):
            with pytest.raises(ValueError, match="finite"):
                call()
        self._untouched(device)
        assert device.counters.peak_workspace_bytes == 0.0

    @pytest.mark.parametrize("scale", [math.nan, math.inf, -math.inf])
    def test_scale(self, scale):
        with pytest.raises(ValueError, match="finite"):
            Device(A100, scale=scale)

    def test_finite_work_still_accepted(self, device):
        device.launch_kernel("k", grid_blocks=4, block_threads=256,
                             bytes_read=1e12, flops=1e15, dependent_cycles=1e9)
        device.memcpy_d2h("d", 0.0)
        device.host_compute("c", 0.0)
        device.allocate_workspace(0.0)
        assert device.counters.kernel_launches == 1
        assert math.isfinite(device.elapsed)


class TestScaledAccounting:
    def test_scalable_quantities_multiplied(self):
        dev = Device(A100, scale=4.0)
        dev.launch_kernel(
            "k", grid_blocks=16, block_threads=256, bytes_read=100.0, flops=10.0
        )
        assert dev.counters.bytes_read == 400.0
        assert dev.counters.flops == 40.0

    def test_fixed_quantities_not_scaled(self):
        dev = Device(A100, scale=4.0)
        dev.launch_kernel(
            "k",
            grid_blocks=16,
            block_threads=256,
            bytes_read=100.0,
            fixed_bytes_written=8.0,
            fixed_flops=2.0,
        )
        assert dev.counters.bytes_written == 8.0
        assert dev.counters.flops == 2.0

    def test_scalable_false(self):
        dev = Device(A100, scale=8.0)
        dev.launch_kernel(
            "k", grid_blocks=1, block_threads=32, bytes_read=64.0, scalable=False
        )
        assert dev.counters.bytes_read == 64.0

    def test_pcie_not_scaled_by_default(self):
        dev = Device(A100, scale=8.0)
        dev.memcpy_d2h("d", 100)
        assert dev.counters.d2h_bytes == 100

    def test_workspace_scaled(self):
        dev = Device(A100, scale=2.0)
        dev.allocate_workspace(100)
        assert dev.counters.peak_workspace_bytes == 200

    def test_scale_below_one_rejected(self):
        with pytest.raises(ValueError):
            Device(A100, scale=0.5)

    def test_scaled_time_close_to_exact(self):
        """A scaled launch prices the same as the equivalent full launch."""
        exact = Device(A100)
        exact.launch_kernel(
            "k", grid_blocks=432, block_threads=256, bytes_read=4e9
        )
        scaled = Device(A100, scale=1000.0)
        scaled.launch_kernel(
            "k", grid_blocks=432, block_threads=256, bytes_read=4e6
        )
        assert scaled.elapsed == pytest.approx(exact.elapsed, rel=1e-9)
