"""ProcFS facade: path resolution, aliases, errors, round-trips."""

import pytest

from repro.errors import ProcFSError
from repro.kernel import Compute, SimKernel, Sleep
from repro.procfs import ProcFS, parse_pid_stat, parse_pid_status
from repro.topology import CpuSet, generic_node


@pytest.fixture
def world():
    kernel = SimKernel(generic_node(cores=2))

    def gen():
        yield Compute(10, user_frac=0.9)
        yield Sleep(5)
        yield Compute(5)

    proc = kernel.spawn_process(kernel.nodes[0], CpuSet([0, 1]), gen(), command="demo")

    def worker():
        yield Compute(8)

    thread = kernel.spawn_thread(proc, worker(), name="w")
    kernel.run(max_ticks=4)  # stop mid-run so threads are alive
    fs = ProcFS(kernel, kernel.nodes[0], self_pid=proc.pid)
    return kernel, proc, thread, fs


class TestRead:
    def test_proc_stat(self, world):
        _, _, _, fs = world
        assert fs.read("/proc/stat").startswith("cpu  ")

    def test_meminfo(self, world):
        _, _, _, fs = world
        assert "MemTotal" in fs.read("/proc/meminfo")

    def test_uptime(self, world):
        kernel, _, _, fs = world
        up, _idle = fs.read("/proc/uptime").split()
        assert float(up) == pytest.approx(kernel.now / 100, abs=0.02)

    def test_pid_stat(self, world):
        _, proc, _, fs = world
        stat = parse_pid_stat(fs.read(f"/proc/{proc.pid}/stat"))
        assert stat.pid == proc.pid

    def test_self_alias(self, world):
        _, proc, _, fs = world
        stat = parse_pid_stat(fs.read("/proc/self/stat"))
        assert stat.pid == proc.pid

    def test_self_without_pid_rejected(self, world):
        kernel, _, _, _ = world
        fs = ProcFS(kernel, kernel.nodes[0])
        with pytest.raises(ProcFSError):
            fs.read("/proc/self/stat")

    def test_task_stat(self, world):
        _, proc, thread, fs = world
        stat = parse_pid_stat(
            fs.read(f"/proc/{proc.pid}/task/{thread.tid}/stat")
        )
        assert stat.pid == thread.tid

    def test_task_status(self, world):
        _, proc, thread, fs = world
        st = parse_pid_status(
            fs.read(f"/proc/{proc.pid}/task/{thread.tid}/status")
        )
        assert st.pid == thread.tid
        assert st.tgid == proc.pid

    def test_tid_addressable_directly(self, world):
        """Linux allows /proc/<tid> for any thread."""
        _, _, thread, fs = world
        stat = parse_pid_stat(fs.read(f"/proc/{thread.tid}/stat"))
        assert stat.pid == thread.tid

    def test_cmdline(self, world):
        _, proc, _, fs = world
        assert fs.read(f"/proc/{proc.pid}/cmdline") == "demo\x00"

    def test_unknown_paths(self, world):
        _, proc, _, fs = world
        for path in ("/proc/nothing", f"/proc/{proc.pid}/bogus",
                     "/proc/99999/stat", f"/proc/{proc.pid}/task/4/stat",
                     "/sys/devices"):
            with pytest.raises(ProcFSError):
                fs.read(path)

    def test_directory_read_rejected(self, world):
        _, proc, _, fs = world
        with pytest.raises(ProcFSError):
            fs.read(f"/proc/{proc.pid}/task")


class TestListdir:
    def test_task_listing(self, world):
        _, proc, thread, fs = world
        tids = fs.listdir(f"/proc/{proc.pid}/task")
        assert str(proc.pid) in tids
        assert str(thread.tid) in tids

    def test_task_listing_excludes_dead(self, world):
        kernel, proc, thread, fs = world
        kernel.run()  # run to completion; threads exit
        tids = fs.listdir(f"/proc/{proc.pid}/task")
        assert tids == []

    def test_proc_listing(self, world):
        _, proc, _, fs = world
        assert str(proc.pid) in fs.listdir("/proc")

    def test_proc_listing_live_only(self, world):
        """An exited process drops out of the /proc listing (like the
        real kernel) but its files stay addressable for late readers."""
        kernel, proc, _, fs = world
        kernel.run()  # run to completion; the process exits
        assert not proc.alive
        assert str(proc.pid) not in fs.listdir("/proc")
        assert fs.read(f"/proc/{proc.pid}/stat")  # still readable
        assert fs.read(f"/proc/{proc.pid}/cmdline") == "demo\x00"

    def test_not_a_directory(self, world):
        _, _, _, fs = world
        with pytest.raises(ProcFSError):
            fs.listdir("/proc/stat")

    def test_unknown_process(self, world):
        _, _, _, fs = world
        with pytest.raises(ProcFSError):
            fs.listdir("/proc/99999/task")


class TestNonNumericIds:
    """A pid/tid component that is not ASCII digits is ENOENT-shaped:
    a ``ProcFSError`` (transient, "missing"), never a bare ValueError."""

    BAD = ("abc", "12x", "-3", " 3", "\u0663", "\u00b2")  # ٣ and ² too

    @staticmethod
    def _assert_missing(exc: ProcFSError) -> None:
        from repro.collect.faults import TRANSIENT, classify_failure, is_missing

        assert is_missing(exc)
        assert classify_failure(exc) == TRANSIENT

    @pytest.mark.parametrize("bad", BAD)
    def test_read(self, world, bad):
        _, proc, _, fs = world
        for path in (f"/proc/{proc.pid}/task/{bad}/stat",
                     f"/proc/{proc.pid}/task/{bad}/status",
                     f"/proc/{bad}/stat"):
            with pytest.raises(ProcFSError) as info:
                fs.read(path)
            self._assert_missing(info.value)

    @pytest.mark.parametrize("bad", BAD)
    def test_listdir(self, world, bad):
        _, _, _, fs = world
        for path in (f"/proc/{bad}", f"/proc/{bad}/task"):
            with pytest.raises(ProcFSError) as info:
                fs.listdir(path)
            self._assert_missing(info.value)

    @pytest.mark.parametrize("bad", BAD)
    def test_read_tasks_raw(self, world, bad):
        _, _, _, fs = world
        with pytest.raises(ProcFSError) as info:
            fs.read_tasks_raw(bad)
        self._assert_missing(info.value)

    def test_read_cpu_times_raw_skips_what_is_not_a_cpu(self, world):
        _, _, _, fs = world
        assert fs.read_cpu_times_raw(["abc", "0", -1, None]) == {}

    def test_non_ascii_digit_is_not_an_alias(self, world):
        """``/proc/٣`` must not resolve to pid 3 (or any pid)."""
        kernel, proc, _, fs = world
        arabic = str(proc.pid).translate(
            {ord(d): 0x0660 + int(d) for d in "0123456789"}
        )
        assert arabic.isdecimal() and int(arabic) == proc.pid
        with pytest.raises(ProcFSError):
            fs.read(f"/proc/{arabic}/stat")
        with pytest.raises(ProcFSError):
            fs.read_tasks_raw(arabic)
