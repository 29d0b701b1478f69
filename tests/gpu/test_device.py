"""GPU device model: queueing, sensors, memory, host integration."""

import pytest

from repro.errors import GpuError
from repro.gpu import GpuDevice, KernelRequest
from repro.kernel import Call, Compute, SimKernel, Wait
from repro.topology import CpuSet, GpuInfo, generic_node


def make_device(**kw):
    return GpuDevice(GpuInfo(physical_index=0, numa=0, memory_bytes=8 * 1024**3), **kw)


class TestKernelRequest:
    def test_nonpositive_rejected(self):
        with pytest.raises(GpuError):
            KernelRequest(jiffies=0)

    def test_bad_memory_intensity(self):
        with pytest.raises(GpuError):
            KernelRequest(jiffies=1, memory_intensity=2.0)


class TestExecution:
    def test_kernel_completes_and_sets_event(self):
        kernel = SimKernel(generic_node(cores=1, gpus=1))
        dev = kernel.nodes[0].gpus[0]
        req = KernelRequest(jiffies=10)
        done = dev.submit(req)
        for _ in range(12):
            kernel.step()
        assert done.is_set()
        assert dev.kernels_completed == 1
        assert dev.busy_jiffies == pytest.approx(10)

    def test_fifo_queue(self):
        kernel = SimKernel(generic_node(cores=1, gpus=1))
        dev = kernel.nodes[0].gpus[0]
        first = dev.submit(KernelRequest(jiffies=5, name="a"))
        second = dev.submit(KernelRequest(jiffies=5, name="b"))
        for _ in range(7):
            kernel.step()
        assert first.is_set() and not second.is_set()
        for _ in range(5):
            kernel.step()
        assert second.is_set()

    def test_pending_kernels(self):
        dev = make_device()
        dev.submit(KernelRequest(jiffies=5))
        dev.submit(KernelRequest(jiffies=5))
        assert dev.pending_kernels == 2

    def test_host_thread_blocks_on_offload(self):
        kernel = SimKernel(generic_node(cores=1, gpus=1))
        dev = kernel.nodes[0].gpus[0]

        def gen():
            yield Compute(2, user_frac=0.5)
            done = yield Call(lambda k, l: dev.submit(KernelRequest(jiffies=20), k.now))
            yield Wait(done)
            yield Compute(2)

        proc = kernel.spawn_process(kernel.nodes[0], CpuSet([0]), gen())
        ticks = kernel.run()
        # host idles while device works: wall ~ 2 + 20 + 2
        assert 22 <= ticks <= 27
        hwt = kernel.nodes[0].hwt(0)
        assert hwt.idle_at(kernel.now) >= 18


class TestSensors:
    def test_clock_ramps_under_load(self):
        kernel = SimKernel(generic_node(cores=1, gpus=1))
        dev = kernel.nodes[0].gpus[0]
        idle_clock = dev.clock_gfx_mhz
        dev.submit(KernelRequest(jiffies=50))
        for _ in range(30):
            kernel.step()
        assert dev.clock_gfx_mhz > idle_clock
        assert dev.clock_gfx_mhz <= dev.max_clock_mhz + 1e-9

    def test_power_between_bounds(self):
        kernel = SimKernel(generic_node(cores=1, gpus=1))
        dev = kernel.nodes[0].gpus[0]
        dev.submit(KernelRequest(jiffies=100))
        for _ in range(100):
            kernel.step()
            assert dev.idle_power_w <= dev.power_w <= dev.max_power_w

    def test_temperature_rises_and_decays(self):
        kernel = SimKernel(generic_node(cores=1, gpus=1))
        dev = kernel.nodes[0].gpus[0]
        dev.submit(KernelRequest(jiffies=200))
        for _ in range(200):
            kernel.step()
        hot = dev.temperature_c
        assert hot > dev.idle_temp_c
        for _ in range(600):
            kernel.step()
        assert dev.temperature_c < hot

    def test_energy_accumulates(self):
        kernel = SimKernel(generic_node(cores=1, gpus=1))
        dev = kernel.nodes[0].gpus[0]
        for _ in range(100):
            kernel.step()
        # 1 s at >= 90 W -> >= 90 J
        assert dev.energy_j >= 0.9 * dev.idle_power_w

    def test_voltage_tracks_clock(self):
        dev = make_device()
        low = dev.voltage_mv
        dev.clock_gfx_mhz = dev.max_clock_mhz
        assert dev.voltage_mv > low
        assert 806.0 <= low <= 906.0

    def test_determinism(self):
        def run_one():
            kernel = SimKernel(generic_node(cores=1, gpus=1))
            dev = kernel.nodes[0].gpus[0]
            dev.submit(KernelRequest(jiffies=30))
            for _ in range(50):
                kernel.step()
            return (dev.power_w, dev.temperature_c, dev.energy_j)

        assert run_one() == run_one()


class TestVram:
    def test_alloc_free(self):
        dev = make_device()
        base = dev.vram_used
        dev.alloc_vram(1024)
        assert dev.vram_used == base + 1024
        dev.free_vram(1024)
        assert dev.vram_used == base
        assert dev.vram_peak == base + 1024

    def test_over_alloc_raises(self):
        dev = make_device()
        with pytest.raises(GpuError):
            dev.alloc_vram(64 * 1024**3)

    def test_negative_rejected(self):
        dev = make_device()
        with pytest.raises(GpuError):
            dev.alloc_vram(-1)
        with pytest.raises(GpuError):
            dev.free_vram(-1)
