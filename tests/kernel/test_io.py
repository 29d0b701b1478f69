"""Filesystem I/O subsystem tests: blocking, iowait, counters."""

import pytest

from repro.errors import SchedulerError
from repro.kernel import Compute, FileIo, IoSubsystem, SimKernel, ThreadState
from repro.procfs import ProcFS, parse_pid_io
from repro.topology import CpuSet, generic_node
from repro.units import MIB


def make_world(behavior, cores=2, bandwidth=1.0e7):
    kernel = SimKernel(generic_node(cores=cores))
    kernel.nodes[0].io = IoSubsystem(bandwidth_bytes_per_tick=bandwidth)
    proc = kernel.spawn_process(
        kernel.nodes[0], CpuSet(range(cores)), behavior, command="io-app"
    )
    return kernel, proc


class TestBlockingTransfer:
    def test_transfer_takes_bandwidth_time(self):
        def gen():
            yield Compute(2)
            yield FileIo(100 * MIB, write=True)  # 100 MiB at 10 MB/tick
            yield Compute(2)

        kernel, proc = make_world(gen())
        ticks = kernel.run()
        assert 13 <= ticks <= 18  # 2 + ~10.5 + 2 (+latency)

    def test_thread_in_d_state_while_waiting(self):
        def gen():
            yield FileIo(100 * MIB)

        kernel, proc = make_world(gen())
        kernel.run(max_ticks=3)
        assert proc.main_thread.state is ThreadState.DISK

    def test_counters_accumulate(self):
        def gen():
            yield FileIo(10 * MIB, write=True)
            yield FileIo(4 * MIB, write=False)
            yield Compute(1)

        kernel, proc = make_world(gen())
        kernel.run()
        assert proc.write_bytes == 10 * MIB
        assert proc.read_bytes == 4 * MIB
        assert proc.write_syscalls == 1
        assert proc.read_syscalls == 1

    def test_zero_transfer_rejected(self):
        with pytest.raises(ValueError):
            FileIo(0)

    def test_bandwidth_shared_between_transfers(self):
        def writer():
            yield FileIo(50 * MIB, write=True)

        kernel = SimKernel(generic_node(cores=2))
        kernel.nodes[0].io = IoSubsystem(bandwidth_bytes_per_tick=1.0e7)
        proc = kernel.spawn_process(kernel.nodes[0], CpuSet([0, 1]), writer())
        kernel.spawn_thread(proc, writer())
        ticks = kernel.run()
        # 100 MiB total at 10 MB/tick shared: ~11 ticks, not ~5
        assert ticks >= 10


class TestIowaitAccounting:
    def test_iowait_accrues_on_vacated_cpu(self):
        def gen():
            yield Compute(2)
            yield FileIo(200 * MIB)

        kernel, proc = make_world(gen(), cores=1)
        kernel.run()
        hwt = kernel.nodes[0].hwt(0)
        assert hwt.iowait >= 15  # ~21 ticks of transfer

    def test_iowait_not_charged_when_cpu_busy(self):
        def io_thread():
            yield FileIo(200 * MIB)

        def busy_thread():
            yield Compute(40)

        kernel = SimKernel(generic_node(cores=1))
        kernel.nodes[0].io = IoSubsystem(bandwidth_bytes_per_tick=1.0e7)
        proc = kernel.spawn_process(kernel.nodes[0], CpuSet([0]), io_thread())
        kernel.spawn_thread(proc, busy_thread())
        kernel.run()
        hwt = kernel.nodes[0].hwt(0)
        # the busy thread keeps the core out of iowait
        assert hwt.iowait <= 2

    def test_proc_stat_reports_iowait(self):
        def gen():
            yield FileIo(100 * MIB)

        kernel, proc = make_world(gen(), cores=1)
        kernel.run()
        fs = ProcFS(kernel, kernel.nodes[0])
        from repro.procfs import parse_proc_stat

        times = parse_proc_stat(fs.read("/proc/stat"))
        assert times[0].iowait >= 5

    def test_busy_iowait_idle_conserve(self):
        def gen():
            yield Compute(3)
            yield FileIo(60 * MIB)
            yield Compute(3)

        kernel, proc = make_world(gen(), cores=1)
        kernel.run()
        hwt = kernel.nodes[0].hwt(0)
        total = hwt.busy_jiffies + hwt.iowait + hwt.idle_at(kernel.now)
        assert total == pytest.approx(kernel.now, abs=1.0)


class TestProcIoFile:
    def test_render_and_parse(self):
        def gen():
            yield FileIo(8 * MIB, write=True)
            yield Compute(1)

        kernel, proc = make_world(gen())
        kernel.run()
        fs = ProcFS(kernel, kernel.nodes[0])
        io = parse_pid_io(fs.read(f"/proc/{proc.pid}/io"))
        assert io.write_bytes == 8 * MIB
        assert io.syscw == 1
        assert io.read_bytes == 0

    def test_io_in_dir_listing(self):
        def gen():
            yield Compute(1)

        kernel, proc = make_world(gen())
        fs = ProcFS(kernel, kernel.nodes[0])
        assert "io" in fs.listdir(f"/proc/{proc.pid}")


class TestSubsystemValidation:
    def test_bad_bandwidth(self):
        with pytest.raises(SchedulerError):
            IoSubsystem(bandwidth_bytes_per_tick=0)
