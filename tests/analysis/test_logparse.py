"""Log round-trip: write_log -> parse_log recovers the data (§3.6)."""

import numpy as np
import pytest

from tests.helpers import run_miniqmc
from repro.analysis.logparse import merge_p2p_logs, parse_log
from repro.apps import PicConfig, pic_app
from repro.core import MemorySink, ZeroSumConfig, write_log, zerosum_mpi
from repro.errors import MonitorError
from repro.launch import SrunOptions, launch_job
from repro.topology import generic_node

T3_CMD = ("OMP_NUM_THREADS=7 OMP_PROC_BIND=spread OMP_PLACES=cores "
          "srun -n8 -c7 zerosum-mpi miniqmc")


@pytest.fixture(scope="module")
def logged_run():
    step = run_miniqmc(T3_CMD, blocks=8, block_jiffies=60)
    sink = MemorySink()
    names = [write_log(m, sink) for m in step.monitors]
    return step, sink, names


class TestRoundTrip:
    def test_header_and_report(self, logged_run):
        step, sink, names = logged_run
        parsed = parse_log(sink.documents[names[0]])
        assert "ZeroSum attached to PID" in parsed.header
        assert "LWP (thread) Summary:" in parsed.report_text
        assert parsed.duration_seconds() == pytest.approx(
            step.duration_seconds, abs=0.01
        )

    def test_lwp_table_recovered(self, logged_run):
        step, sink, names = logged_run
        parsed = parse_log(sink.documents[names[0]])
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
        _, sink, names = logged_run
        parsed = parse_log(sink.documents[names[0]])
        assert parsed.hwt is not None
        assert set(parsed.hwt.column("cpu").astype(int)) == set(range(1, 8))
        assert parsed.memory is not None
        assert parsed.memory.column("mem_total_kib")[0] > 0

    def test_unknown_column_rejected(self, logged_run):
        _, sink, names = logged_run
        parsed = parse_log(sink.documents[names[0]])
        with pytest.raises(MonitorError):
            parsed.lwp.column("nope")


class TestP2PFromLogs:
    def test_heatmap_from_logs_offline(self):
        """The complete Figure 5 workflow driven only from log text."""
        step = launch_job(
            [generic_node(cores=8)],
            SrunOptions(ntasks=8, command="pic"),
            pic_app(PicConfig(steps=4)),
            monitor_factory=zerosum_mpi(
                ZeroSumConfig(collect_hwt=False, collect_gpu=False)
            ),
        )
        step.run()
        step.finalize()
        sink = MemorySink()
        names = [write_log(m, sink) for m in step.monitors]
        parsed = [parse_log(sink.documents[n]) for n in names]
        matrix = merge_p2p_logs(parsed, world_size=8)
        # matches the in-memory merge exactly
        from repro.core import merge_monitors

        reference = merge_monitors(step.monitors)
        assert np.array_equal(matrix.bytes, reference.bytes)
        assert np.array_equal(matrix.messages, reference.messages)
        assert matrix.diagonal_dominance(1) > 0.9

    def test_out_of_range_rank_rejected(self):
        from repro.analysis.logparse import ParsedLog

        # a negative rank too: numpy indexing would wrap -1 silently
        for row in [(0, 9, 100, 1), (-1, 2, 100, 1)]:
            log = ParsedLog(p2p_rows=[row])
            with pytest.raises(MonitorError, match="outside world"):
                log.p2p_matrix(world_size=4)
            with pytest.raises(MonitorError, match="outside world"):
                merge_p2p_logs([log], world_size=4)

    def test_empty_merge_rejected(self):
        with pytest.raises(MonitorError):
            merge_p2p_logs([], 4)
