"""Log round-trip: render_log -> parse_log recovers the data (§3.6)."""

import pytest

from tests.helpers import run_miniqmc
from repro.analysis.logparse import parse_log
from repro.core import render_log
from repro.errors import MonitorError

T3_CMD = ("OMP_NUM_THREADS=7 OMP_PROC_BIND=spread OMP_PLACES=cores "
          "srun -n8 -c7 zerosum-mpi miniqmc")


@pytest.fixture(scope="module")
def logged_run():
    step = run_miniqmc(T3_CMD, blocks=8, block_jiffies=60)
    return step, render_log(step.monitors[0])[1]


class TestRoundTrip:
    def test_header_and_report(self, logged_run):
        """The banner and report are prose; the record section is the
        machine form of what they say, the duration verbatim."""
        step, log = logged_run
        record = parse_log(log).record
        monitor = step.monitors[0]
        assert record["record"] == monitor.journal_meta(banner=True)
        assert record["record"]["duration_seconds"] == monitor.duration_seconds
        assert record["record"]["banner"] == monitor.banner_lines()

    def test_lwp_table_recovered(self, logged_run):
        step, log = logged_run
        parsed = parse_log(log)
        assert parsed.lwp is not None
        tids = set(parsed.lwp.column("tid").astype(int))
        assert tids == set(step.processes[0].threads)
        # cumulative utime matches the monitor's last sample
        monitor = step.monitors[0]
        pid = step.processes[0].pid
        mask = parsed.lwp.column("tid").astype(int) == pid
        assert parsed.lwp.column("utime")[mask][-1] == pytest.approx(
            monitor.lwp_series[pid].last("utime")
        )

    def test_hwt_and_memory_tables(self, logged_run):
        _, log = logged_run
        parsed = parse_log(log)
        assert parsed.hwt is not None
        assert set(parsed.hwt.column("cpu").astype(int)) == set(range(1, 8))
        assert parsed.memory is not None
        assert parsed.memory.column("mem_total_kib")[0] > 0

    def test_unknown_column_rejected(self, logged_run):
        _, log = logged_run
        parsed = parse_log(log)
        with pytest.raises(MonitorError):
            parsed.lwp.column("nope")
