"""Log replay: the run rebuilt from an exported log's CSV and record.

The proof that the store/report seam is real: feed a written log back
through :func:`~repro.collect.replay_log` and the recomputed Listing 2
report matches the one the original monitor produced.
"""

import json

import pytest

from repro.collect import RecoveredRun, replay_log
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
    return monitor, build_report(monitor), replay_log(log)


class TestSimRoundTrip:
    def test_header_recovered(self, sim_pair):
        monitor, report, replay = sim_pair
        assert isinstance(replay, RecoveredRun)
        assert replay.pid == monitor.process.pid
        assert replay.driver == "sim"
        assert replay.rank == monitor.process.rank
        # the record's, verbatim: not re-read from the printed report
        assert replay.hz == monitor.kernel.clock.hz
        assert replay.duration_ticks == monitor.duration_ticks
        assert replay.duration_seconds == report.duration_seconds
        assert replay.banner_lines() == monitor.banner_lines()
        assert replay.journal_meta() == monitor.journal_meta()

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
    return monitor.report(), replay_log(log).report()


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


def _without_record(log: str) -> str:
    """A log as rendered before the run-record section existed."""
    lines = log.split("\n")
    at = lines.index("== run record (JSON) ==")
    return "\n".join(lines[:at] + lines[at + 2:])


class TestRejects:
    def test_log_without_duration(self, sim_pair):
        """Banner, report and CSV without a record: the printed
        duration is prose, and nothing is read back from it."""
        _, log = render_log(sim_pair[0])
        text = _without_record(log)
        assert "Duration of execution:" in text
        with pytest.raises(MonitorError, match="log carries no run record"):
            replay_log(text)

    @pytest.mark.parametrize("body", [
        "{not json", '["a", "list"]', '{"record": {"pid": 7}}',
    ], ids=["bad-json", "not-an-object", "no-store-state"])
    def test_malformed_record(self, sim_pair, body):
        _, log = render_log(sim_pair[0])
        lines = log.split("\n")
        lines[lines.index("== run record (JSON) ==") + 1] = body
        with pytest.raises(MonitorError, match="malformed run record"):
            replay_log("\n".join(lines))

    @pytest.mark.parametrize("field, value", [
        ("duration_ticks", "long"), ("hz", None), ("banner", "one line"),
    ])
    def test_record_field_of_the_wrong_type(self, sim_pair, field, value):
        _, log = render_log(sim_pair[0])
        lines = log.split("\n")
        at = lines.index("== run record (JSON) ==") + 1
        state = json.loads(lines[at])
        state["record"][field] = value
        lines[at] = json.dumps(state)
        with pytest.raises(MonitorError, match=field):
            replay_log("\n".join(lines))

    def test_bad_csv_columns(self, sim_pair):
        monitor, _, _ = sim_pair
        _, log = render_log(monitor)
        text = log.replace("tid,tick,", "tid,wrong,")
        with pytest.raises(MonitorError):
            replay_log(text)
