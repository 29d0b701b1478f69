"""Trace replay: the report rebuilt from an exported log's raw CSV.

The proof that the store/report seam is real: feed a written log back
through :class:`~repro.collect.ReplayZeroSum` and the recomputed
Listing 2 report matches the one the original monitor produced.
"""

import pytest

from repro.collect import ReplayZeroSum
from repro.core import build_report
from repro.core.export import MemorySink, write_log
from repro.core.records import PeriodBlock
from repro.errors import MonitorError
from tests.helpers import run_miniqmc

T1_CMD = "OMP_NUM_THREADS=3 srun -n2 zerosum-mpi miniqmc"


@pytest.fixture(scope="module")
def sim_pair():
    step = run_miniqmc(T1_CMD, blocks=4)
    monitor = step.monitors[0]
    sink = MemorySink()
    name = write_log(monitor, sink)
    replay = ReplayZeroSum(
        sink.documents[name], hz=monitor.kernel.clock.hz
    )
    return monitor, build_report(monitor), replay


class TestSimRoundTrip:
    def test_header_recovered(self, sim_pair):
        monitor, report, replay = sim_pair
        assert replay.pid == monitor.process.pid
        assert replay.driver == "sim"
        assert replay.rank == monitor.process.rank
        assert replay.duration_seconds == pytest.approx(
            report.duration_seconds, abs=0.001
        )

    def test_same_threads_and_kinds(self, sim_pair):
        monitor, report, replay = sim_pair
        assert replay.observed_tids() == monitor.observed_tids()
        for row in report.lwp_rows:
            assert replay.classify(row.tid) == row.kind

    def test_series_round_trip(self, sim_pair):
        monitor, _, replay = sim_pair
        for tid in monitor.observed_tids():
            original = monitor.lwp_series[tid]
            replayed = replay.lwp_series[tid]
            assert len(replayed) == len(original)
            assert list(replayed.column("utime")) == pytest.approx(
                list(original.column("utime"))
            )
        assert sorted(replay.hwt_series) == sorted(monitor.hwt_series)

    def test_ingest_is_closed_and_holds_no_second_copy(self, sim_pair):
        store = sim_pair[2].store
        assert store.period == PeriodBlock()
        store.commit(store.prev_tick, [])  # nothing was left open either
        assert store.period == PeriodBlock()

    def test_report_rows_match(self, sim_pair):
        _, report, replay = sim_pair
        rebuilt = replay.report()
        assert len(rebuilt.lwp_rows) == len(report.lwp_rows)
        by_tid = {r.tid: r for r in rebuilt.lwp_rows}
        for row in report.lwp_rows:
            again = by_tid[row.tid]
            assert again.kind == row.kind
            assert list(again.cpus) == list(row.cpus)
            # windows are re-derived from the samples alone, so allow a
            # small tolerance for the attach-tick offset
            assert again.utime_pct == pytest.approx(row.utime_pct, abs=2.0)
            assert again.stime_pct == pytest.approx(row.stime_pct, abs=2.0)
            assert again.nv_ctx == row.nv_ctx
            assert again.ctx == row.ctx
        hwt_by_cpu = {r.cpu: r for r in rebuilt.hwt_rows}
        for row in report.hwt_rows:
            assert hwt_by_cpu[row.cpu].idle_pct == pytest.approx(
                row.idle_pct, abs=2.0
            )

    def test_render_shape(self, sim_pair):
        _, _, replay = sim_pair
        text = replay.report().render()
        assert "LWP (thread) Summary:" in text
        assert "Duration of execution:" in text


class TestGpuRoundTrip:
    def test_gpu_stats_recomputed(self):
        step = run_miniqmc(
            "OMP_NUM_THREADS=3 srun -n2 --gpus-per-task=1 "
            "zerosum-mpi miniqmc",
            blocks=4,
            offload=True,
        )
        monitor = step.monitors[0]
        sink = MemorySink()
        name = write_log(monitor, sink)
        replay = ReplayZeroSum(
            sink.documents[name], hz=monitor.kernel.clock.hz
        )
        report = build_report(monitor)
        rebuilt = replay.report()
        assert len(rebuilt.gpu_stats) == len(report.gpu_stats)
        for original, again in zip(report.gpu_stats[0], rebuilt.gpu_stats[0]):
            assert again.label == original.label
            assert again.average == pytest.approx(original.average, rel=0.01)


class TestRejects:
    def test_log_without_duration(self):
        with pytest.raises(MonitorError):
            ReplayZeroSum("ZeroSum attached to PID 7 on nid001\n")

    def test_bad_csv_columns(self, sim_pair):
        monitor, _, _ = sim_pair
        sink = MemorySink()
        name = write_log(monitor, sink)
        text = sink.documents[name].replace("tid,tick,", "tid,wrong,")
        with pytest.raises(MonitorError):
            ReplayZeroSum(text)
