"""Parser tests, including against the host's real /proc."""

import pathlib

import pytest

from repro.errors import ProcFSError
from repro.procfs.parsers import (
    parse_meminfo,
    parse_pid_stat,
    parse_pid_status,
    parse_proc_stat,
)


SAMPLE_STAT = (
    "1234 (my app (x)) S 1 1234 1234 0 -1 0 55 0 2 0 140 37 0 0 20 0 3 0 "
    "100 1048576 256 18446744073709551615 " + "0 " * 13 + "5 0 0 0 0 0 "
    + "0 " * 7 + "0"
)


class TestPidStat:
    def test_comm_with_spaces_and_parens(self):
        stat = parse_pid_stat(SAMPLE_STAT)
        assert stat.comm == "my app (x)"
        assert stat.pid == 1234

    def test_numeric_fields(self):
        stat = parse_pid_stat(SAMPLE_STAT)
        assert stat.state == "S"
        assert stat.minflt == 55
        assert stat.majflt == 2
        assert stat.utime == 140
        assert stat.stime == 37
        assert stat.num_threads == 3
        assert stat.starttime == 100
        assert stat.vsize == 1048576
        assert stat.rss_pages == 256
        assert stat.processor == 5

    def test_malformed_rejected(self):
        with pytest.raises(ProcFSError):
            parse_pid_stat("not a stat line")
        with pytest.raises(ProcFSError):
            parse_pid_stat("1 (x) R 0 0")  # too few fields


class TestPidStatus:
    STATUS = (
        "Name:\tapp\nState:\tS (sleeping)\nTgid:\t10\nPid:\t11\n"
        "VmSize:\t2048 kB\nVmRSS:\t1024 kB\nThreads:\t4\n"
        "Cpus_allowed:\tff\nCpus_allowed_list:\t0-7\n"
        "voluntary_ctxt_switches:\t42\nnonvoluntary_ctxt_switches:\t7\n"
    )

    def test_fields(self):
        st = parse_pid_status(self.STATUS)
        assert st.name == "app"
        assert st.state == "S"
        assert st.tgid == 10 and st.pid == 11
        assert st.vm_rss_kib == 1024
        assert st.threads == 4
        assert list(st.cpus_allowed) == list(range(8))
        assert st.voluntary_ctxt_switches == 42
        assert st.nonvoluntary_ctxt_switches == 7

    def test_falls_back_to_mask(self):
        text = self.STATUS.replace("Cpus_allowed_list:\t0-7\n", "")
        st = parse_pid_status(text)
        assert list(st.cpus_allowed) == list(range(8))

    def test_missing_state_rejected(self):
        with pytest.raises(ProcFSError):
            parse_pid_status("Name:\tx\nPid:\t1\n")


class TestProcStat:
    TEXT = (
        "cpu  10 0 5 100 1 0 0 0 0 0\n"
        "cpu0 4 0 2 50 1 0 0 0 0 0\n"
        "cpu1 6 0 3 50 0 0 0 0 0 0\n"
        "intr 12345\nctxt 999\n"
    )

    def test_aggregate_and_per_cpu(self):
        times = parse_proc_stat(self.TEXT)
        assert times[-1].user == 10
        assert times[0].idle == 50
        assert times[1].system == 3

    def test_busy_total(self):
        times = parse_proc_stat(self.TEXT)
        assert times[0].busy == 6
        assert times[0].total == 57

    def test_no_cpu_lines_rejected(self):
        with pytest.raises(ProcFSError):
            parse_proc_stat("intr 1\n")


class TestMeminfo:
    def test_parse(self):
        text = "MemTotal:  1000 kB\nMemFree:   400 kB\nMemAvailable: 600 kB\n"
        mem = parse_meminfo(text)
        assert mem == {"MemTotal": 1000, "MemFree": 400, "MemAvailable": 600}

    def test_missing_total_rejected(self):
        with pytest.raises(ProcFSError):
            parse_meminfo("MemFree: 1 kB\n")


@pytest.mark.skipif(
    not pathlib.Path("/proc/self/stat").exists(), reason="needs Linux /proc"
)
class TestRealProc:
    """The same parsers must work against the host kernel."""

    def test_self_stat(self):
        stat = parse_pid_stat(pathlib.Path("/proc/self/stat").read_text())
        assert stat.pid > 0
        assert stat.state in "RSDZTtXxKWPI"

    def test_self_status(self):
        st = parse_pid_status(pathlib.Path("/proc/self/status").read_text())
        assert st.pid == st.tgid
        assert len(st.cpus_allowed) >= 1

    def test_proc_stat(self):
        times = parse_proc_stat(pathlib.Path("/proc/stat").read_text())
        assert -1 in times
        assert times[-1].total > 0

    def test_meminfo(self):
        mem = parse_meminfo(pathlib.Path("/proc/meminfo").read_text())
        assert mem["MemTotal"] > 0
