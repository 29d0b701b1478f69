"""CommMatrix analytics, log/CSV export, crash backtraces."""

import numpy as np
import pytest

from tests.helpers import run_miniqmc
from repro.apps import PicConfig, crash_app, pic_app
from repro.core import (
    CommMatrix,
    MemorySink,
    FileSink,
    ZeroSumConfig,
    lwp_csv,
    hwt_csv,
    memory_csv,
    merge_monitors,
    write_log,
    zerosum_mpi,
)
from repro.errors import MonitorError
from repro.launch import SrunOptions, launch_job
from repro.topology import generic_node

T3_CMD = ("OMP_NUM_THREADS=7 OMP_PROC_BIND=spread OMP_PLACES=cores "
          "srun -n8 -c7 zerosum-mpi miniqmc")


def run_pic(ranks=16, steps=4):
    step = launch_job(
        [generic_node(cores=ranks)],
        SrunOptions(ntasks=ranks, command="pic"),
        pic_app(PicConfig(steps=steps)),
        monitor_factory=zerosum_mpi(
            ZeroSumConfig(collect_hwt=False, collect_gpu=False)
        ),
    )
    step.run()
    step.finalize()
    return step


class TestCommMatrix:
    def test_merge_monitors(self):
        step = run_pic()
        matrix = merge_monitors(step.monitors)
        assert matrix.size == 16
        assert matrix.total_bytes() > 0

    def test_nearest_neighbor_dominance(self):
        step = run_pic()
        matrix = merge_monitors(step.monitors)
        assert matrix.diagonal_dominance(band=1) > 0.9

    def test_binned(self):
        step = run_pic()
        matrix = merge_monitors(step.monitors)
        binned = matrix.binned(4)
        assert binned.shape == (4, 4)
        assert binned.sum() == matrix.total_bytes()

    def test_binned_validation(self):
        m = CommMatrix.zeros(4)
        with pytest.raises(MonitorError):
            m.binned(0)
        with pytest.raises(MonitorError):
            m.binned(9)

    def test_top_talkers(self):
        step = run_pic()
        matrix = merge_monitors(step.monitors)
        top = matrix.top_talkers(3)
        assert len(top) == 3
        (src, dst, b) = top[0]
        assert abs(src - dst) in (1, 15)  # ring neighbours dominate

    def test_render_shapes(self):
        step = run_pic()
        text = merge_monitors(step.monitors).render(bins=16)
        lines = text.splitlines()
        assert "heatmap (16 ranks" in lines[0]
        assert len(lines) == 17

    def test_render_empty(self):
        assert "no point-to-point traffic" in CommMatrix.zeros(4).render()

    def test_to_csv(self):
        step = run_pic()
        csv = merge_monitors(step.monitors).to_csv()
        assert csv.splitlines()[0] == "src,dst,bytes,messages"
        assert len(csv.splitlines()) > 16

    def test_square_required(self):
        with pytest.raises(MonitorError):
            CommMatrix(bytes=np.zeros((2, 3)), messages=np.zeros((2, 3)))

    def test_no_mpi_monitors_rejected(self):
        with pytest.raises(MonitorError):
            merge_monitors([])


class TestExport:
    @pytest.fixture(scope="class")
    def monitor(self):
        step = run_miniqmc(T3_CMD, blocks=5, block_jiffies=50)
        return step.monitors[0]

    def test_lwp_csv(self, monitor):
        csv = lwp_csv(monitor)
        header = csv.splitlines()[0]
        assert header == "tid,tick,state,utime,stime,nv_ctx,ctx,minflt,majflt,processor"
        assert len(csv.splitlines()) > 9  # several samples x 9 threads

    def test_hwt_csv(self, monitor):
        csv = hwt_csv(monitor)
        assert csv.splitlines()[0] == "cpu,tick,user,system,idle,iowait"

    def test_memory_csv(self, monitor):
        csv = memory_csv(monitor)
        assert "mem_total_kib" in csv.splitlines()[0]

    def test_write_log_memory_sink(self, monitor):
        sink = MemorySink()
        name = write_log(monitor, sink)
        assert name == "zerosum.0.log"
        doc = sink.documents[name]
        assert "Duration of execution" in doc
        assert "== LWP samples (CSV) ==" in doc
        assert "HWLOC Node topology:" in doc

    def test_write_log_file_sink(self, monitor, tmp_path):
        sink = FileSink(tmp_path)
        name = write_log(monitor, sink)
        assert (tmp_path / name).exists()
        assert "LWP (thread) Summary" in (tmp_path / name).read_text()


class TestCrashBacktrace:
    def test_backtrace_captured(self):
        step = launch_job(
            [generic_node(cores=2)],
            SrunOptions(ntasks=1),
            crash_app(crash_after_jiffies=10),
            monitor_factory=zerosum_mpi(ZeroSumConfig()),
        )
        step.run(raise_on_stall=False)
        step.finalize()
        zs = step.monitors[0]
        assert zs.crash_reports
        report = zs.crash_reports[0]
        assert "abnormal-exit handler" in report
        assert "simulated segmentation fault" in report
        assert "Traceback" in report

    def test_signal_handler_can_be_disabled(self):
        step = launch_job(
            [generic_node(cores=2)],
            SrunOptions(ntasks=1),
            crash_app(crash_after_jiffies=10),
            monitor_factory=zerosum_mpi(ZeroSumConfig(signal_handler=False)),
        )
        step.run(raise_on_stall=False)
        step.finalize()
        assert not step.monitors[0].crash_reports
