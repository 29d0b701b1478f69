"""Trace replay: the report rebuilt from an exported log's raw CSV.

The proof that the store/report seam is real: feed a written log back
through :class:`~repro.collect.ReplayZeroSum` and the recomputed
Listing 2 report matches the one the original monitor produced.
"""

import pytest

from repro.collect import ReplayZeroSum
from repro.core import ZeroSumConfig, build_report
from repro.core.export import render_log
from repro.core.records import PeriodBlock
from repro.errors import MonitorError
from repro.topology import aurora_node, frontier_node, perlmutter_node
from tests.helpers import run_miniqmc

T1_CMD = "OMP_NUM_THREADS=3 srun -n2 zerosum-mpi miniqmc"


@pytest.fixture(scope="module")
def sim_pair():
    step = run_miniqmc(T1_CMD, blocks=4)
    monitor = step.monitors[0]
    _, log = render_log(monitor)
    replay = ReplayZeroSum(log, hz=monitor.kernel.clock.hz)
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
        # the replay is exact: every window is re-derived from the very
        # samples the original report was built from
        assert replay.report().render() == report.render()

    def test_render_shape(self, sim_pair):
        _, _, replay = sim_pair
        text = replay.report().render()
        assert "LWP (thread) Summary:" in text
        assert "Duration of execution:" in text


def _round_trip(step):
    monitor = step.monitors[0]
    _, log = render_log(monitor)
    replay = ReplayZeroSum(log, hz=monitor.kernel.clock.hz)
    return monitor.report(), replay.report()


class TestDetectRoundTrip:
    def test_alerts_replay_byte_equal(self):
        """A ``--detect`` run's log carries its Alerts: section into the
        replayed report, as it carries the degradation ledger."""
        step = run_miniqmc(
            T1_CMD, blocks=4, zs_config=ZeroSumConfig(detect_online=True)
        )
        report, rebuilt = _round_trip(step)
        assert report.alert_notes
        assert rebuilt.render() == report.render()


class TestGpuRoundTrip:
    @pytest.mark.parametrize(
        "machine", [frontier_node, perlmutter_node, aurora_node]
    )
    def test_offload_log_replays_byte_equal(self, machine):
        """Every vendor's devices are read through the one SMI session,
        and the GPU sensor table replays byte for byte."""
        step = run_miniqmc(
            "OMP_NUM_THREADS=2 srun -n2 -c8 --gpus-per-task=1 "
            "zerosum-mpi miniqmc",
            blocks=4,
            offload=True,
            machine=machine(),
        )
        report, rebuilt = _round_trip(step)
        assert report.gpu_stats
        assert rebuilt.render() == report.render()


class TestRejects:
    def test_log_without_duration(self):
        with pytest.raises(MonitorError):
            ReplayZeroSum("ZeroSum attached to PID 7 on nid001\n")

    def test_bad_csv_columns(self, sim_pair):
        monitor, _, _ = sim_pair
        _, log = render_log(monitor)
        text = log.replace("tid,tick,", "tid,wrong,")
        with pytest.raises(MonitorError):
            ReplayZeroSum(text)
