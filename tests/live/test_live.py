"""Live monitor on the real host /proc (Linux container)."""

import os
import pathlib
import time

import pytest

from repro.collect import (
    RealProc,
    read_cpu_times,
    read_meminfo,
    read_task,
    recover_journal,
)
from repro.core import ZeroSumConfig, analyze
from repro.errors import MonitorError, ProcFSError
from repro.kernel import Compute, SimKernel
from repro.live import LiveZeroSum
from repro.procfs import ProcFS
from repro.topology import CpuSet, generic_node
from tests.helpers import materialize_proc

needs_proc = pytest.mark.skipif(
    not pathlib.Path("/proc/self/stat").exists(), reason="needs Linux /proc"
)


@needs_proc
class TestSampler:
    """The collect readers over a ``RealProc()`` on the host /proc."""

    def test_list_tasks_includes_self(self):
        import os

        tids = RealProc().listdir("/proc/self/task")
        assert str(os.getpid()) in tids

    def test_read_task(self):
        import os

        pid = os.getpid()
        stat, status = read_task(RealProc(), pid, pid)
        assert stat.pid == pid
        assert status.tgid == pid

    def test_unknown_process(self):
        bogus = 2**22 + 12345
        with pytest.raises(ProcFSError):
            read_task(RealProc(), bogus, bogus)

    def test_cpu_times(self):
        times = read_cpu_times(RealProc())
        assert -1 in times and 0 in times

    def test_meminfo(self):
        assert read_meminfo(RealProc())["MemTotal"] > 0

    def test_uptime(self):
        assert float(RealProc().read("/proc/uptime").split()[0]) > 0


@needs_proc
class TestLiveMonitor:
    def _burn(self, seconds):
        deadline = time.monotonic() + seconds
        x = 0
        while time.monotonic() < deadline:
            x += sum(i for i in range(500))
        return x

    def test_full_cycle(self):
        zs = LiveZeroSum(ZeroSumConfig(period_seconds=0.1))
        zs.start()
        self._burn(0.5)
        zs.stop()
        assert zs.samples_taken >= 3
        report = zs.report()
        main = [r for r in report.lwp_rows if r.kind == "Main"]
        assert main and main[0].utime_pct > 30.0
        assert report.pid == zs.pid

    def test_monitor_thread_classified(self):
        zs = LiveZeroSum(ZeroSumConfig(period_seconds=0.05))
        zs.start()
        self._burn(0.25)
        zs.stop()
        kinds = {r.kind for r in zs.report().lwp_rows}
        assert "ZeroSum" in kinds

    def test_double_start_rejected(self):
        zs = LiveZeroSum(ZeroSumConfig(period_seconds=0.5))
        zs.start()
        try:
            with pytest.raises(MonitorError):
                zs.start()
        finally:
            zs.stop()

    def test_restart_reopens_the_window(self, tmp_path):
        """A restarted run has not ended: the journal it reopens must not
        carry the first stop's duration into a later crash's recovery."""
        journal = tmp_path / "live.zsj"
        zs = LiveZeroSum(ZeroSumConfig(period_seconds=0.05,
                                       journal_path=str(journal)))
        zs.start()
        zs.stop()
        assert "duration_seconds" in zs.journal_meta()
        zs.start()
        try:
            assert "duration_seconds" not in zs.journal_meta()
            assert "duration_seconds" not in recover_journal(journal).record
        finally:
            zs.stop()

    def test_sample_once_without_thread(self):
        zs = LiveZeroSum()
        zs.sample_once()
        assert zs.samples_taken == 1
        assert zs.pid in zs.lwp_series

    def test_hwt_series_collected(self):
        zs = LiveZeroSum(ZeroSumConfig(period_seconds=0.05))
        zs.start()
        self._burn(0.3)
        zs.stop()
        assert zs.hwt_series
        report = zs.report()
        assert report.hwt_rows
        row = report.hwt_rows[0]
        assert row.idle_pct + row.system_pct + row.user_pct == pytest.approx(
            100.0, abs=25.0
        )

    def test_memory_series(self):
        zs = LiveZeroSum()
        zs.sample_once()
        assert zs.mem_series.last("mem_total_kib") > 0
        assert zs.mem_series.last("rss_kib") > 0

    def test_render(self):
        zs = LiveZeroSum()
        zs.sample_once()
        zs.end_time = time.monotonic()
        text = zs.report().render()
        assert "LWP (thread) Summary:" in text


class TestOneSampleReport:
    """Under the ``first`` baseline a lone row is no delta: its counters
    predate the monitor, unless the thread was born after the run's
    first sample."""

    @needs_proc
    def test_one_sample_run_has_no_lwp_row_above_100_percent(self):
        zs = LiveZeroSum(ZeroSumConfig(period_seconds=0.05))
        zs.sample_once()  # `live --seconds` too short for the sampler
        report = zs.report()
        assert all(r.utime_pct + r.stime_pct <= 100.0
                   for r in report.lwp_rows)
        # every thread's only row is the first sample: none is reported,
        # as no HWT with fewer than two rows is
        assert report.lwp_rows == [] and report.hwt_rows == []

    def test_a_thread_born_after_the_first_sample_keeps_its_row(self):
        from repro.collect import ReportBuilder, SampleStore

        store = SampleStore()
        # (tick, state, utime, stime, nv_ctx, ctx, minflt, majflt, cpu)
        for tick, rows in ((10.0, {1: 500.0, 2: 900.0}),
                           (20.0, {1: 505.0, 3: 4.0})):
            for tid, utime in rows.items():
                store.add_row("lwp", tid, (tick, 0, utime, 0, 0, 0, 0, 0, 0))
            store.commit(tick, ())
        report = ReportBuilder(store, baseline="first").build(
            duration_seconds=0.2, rank=None, pid=1, hostname="n",
            cpus_allowed=CpuSet([0]),
        )
        rows = {r.tid: r.utime_pct for r in report.lwp_rows}
        # tid 2 only in the first sample: 900 jiffies of its past, no row
        assert rows == {1: 50.0, 3: 20.0}


class TestNodeFacts:
    def test_pinned_process_on_a_bigger_node_is_oversubscribed(self, tmp_path):
        """The node is /proc/stat's cpuN rows, not the allowed set.

        Five busy tasks pinned to CPU 1 of an 8-CPU node: "bound" means
        under half of the *node*, so a detector told the node is just
        CPU 1 could never raise Table 1's finding.
        """
        kernel = SimKernel(generic_node(cores=8))

        def spin():
            yield Compute(10_000)

        proc = kernel.spawn_process(
            kernel.nodes[0], CpuSet([1]), spin(), command="spin"
        )
        for _ in range(4):
            kernel.spawn_thread(proc, spin())
        fs = ProcFS(kernel, kernel.nodes[0], self_pid=proc.pid)
        kernel.run(max_ticks=2)
        materialize_proc(fs, proc.pid, tmp_path, as_pid=os.getpid())

        zs = LiveZeroSum(
            ZeroSumConfig(detect_online=True), proc_root=str(tmp_path)
        )
        assert zs.cpus_allowed == CpuSet([1])
        assert zs.detector.facts is zs.facts
        assert zs.facts.node_cpus == frozenset(range(8))
        for _ in range(3):
            kernel.run(max_ticks=50, raise_on_stall=False)
            materialize_proc(fs, proc.pid, tmp_path, as_pid=os.getpid())
            zs.sample_once()
        assert zs.store.alerts.by_code("oversubscription")
        assert analyze(zs).by_code("oversubscription")


@needs_proc
class TestHeartbeatFile:
    @pytest.mark.parametrize("fsync", [True, False])
    def test_heartbeat_fsync_syncs_every_line(
        self, tmp_path, monkeypatch, fsync
    ):
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        path = tmp_path / "hb"
        zs = LiveZeroSum(
            ZeroSumConfig(
                heartbeat_every=1,
                heartbeat_path=str(path),
                heartbeat_fsync=fsync,
            )
        )
        fd = zs._heartbeat._file.fileno()
        zs.sample_once()
        zs.sample_once()
        assert path.read_text().splitlines() == zs.heartbeats
        assert len(zs.heartbeats) == 2
        assert synced.count(fd) == (2 if fsync else 0)
        zs.stop()


@needs_proc
class TestLiveReplayRoundTrip:
    def test_live_log_replays_to_matching_report(self, capsys, tmp_path):
        from repro.cli import main
        from repro.collect import replay_log
        from repro.core.export import render_log

        zs = LiveZeroSum(ZeroSumConfig(period_seconds=0.05))
        zs.start()
        deadline = time.monotonic() + 0.4
        x = 0
        while time.monotonic() < deadline:
            x += sum(i for i in range(500))
        zs.stop()

        name, log = render_log(zs)
        replay = replay_log(log)
        assert replay.driver == "live"
        assert replay.pid == zs.pid
        assert replay.observed_tids() == sorted(zs.lwp_series)

        # the series survive the CSV dump exactly (values are written as
        # their shortest round-trip repr), so the report is rebuilt whole,
        # in process and by `zerosum-sim recover LOG`
        assert replay.report().render() == zs.report().render()
        (tmp_path / name).write_text(log)
        assert main(["recover", str(tmp_path / name)]) == 0
        assert capsys.readouterr().out.startswith(zs.report().render() + "\n")
