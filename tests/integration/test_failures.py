"""Failure-injection integration: deadlock, OOM, crash, noisy neighbour."""

from repro.apps import crash_app, deadlock_app, oom_app
from repro.collect import recover_journal, replay_log
from repro.core import (
    ZeroSumConfig,
    analyze,
    build_report,
    render_log,
    zerosum_mpi,
)
from repro.kernel import Compute, Sleep
from repro.launch import SrunOptions, launch_job
from repro.topology import generic_node


class TestDeadlockScenario:
    def test_monitor_survives_and_diagnoses(self):
        step = launch_job(
            [generic_node(cores=2)],
            SrunOptions(ntasks=1, command="hang"),
            deadlock_app(deadlock_after_jiffies=30),
            monitor_factory=zerosum_mpi(
                ZeroSumConfig(period_seconds=0.25, deadlock_after=4,
                              heartbeat_every=1)
            ),
        )
        step.run(max_ticks=400, raise_on_stall=False)
        step.finalize()
        zs = step.monitors[0]
        assert zs.deadlock_suspected()
        assert zs.heartbeats  # heartbeat kept flowing while app hung
        report = build_report(zs)
        assert "deadlock" in report.render()

    def test_log_contains_diagnosis(self):
        step = launch_job(
            [generic_node(cores=2)],
            SrunOptions(ntasks=1, command="hang"),
            deadlock_app(deadlock_after_jiffies=10),
            monitor_factory=zerosum_mpi(
                ZeroSumConfig(period_seconds=0.2, deadlock_after=2)
            ),
        )
        step.run(max_ticks=300, raise_on_stall=False)
        step.finalize()
        _, log = render_log(step.monitors[0])
        assert "deadlock" in log

    def test_recovered_and_replayed_runs_keep_the_diagnosis(self, tmp_path):
        """The deadlock note is part of the run record: the journal's
        closing amendment and the log's record section carry it."""
        journal = tmp_path / "hang.zsj"
        step = launch_job(
            [generic_node(cores=2)],
            SrunOptions(ntasks=1, command="hang"),
            deadlock_app(deadlock_after_jiffies=10),
            monitor_factory=zerosum_mpi(ZeroSumConfig(
                period_seconds=0.2, deadlock_after=2, journal_path=str(journal),
            )),
        )
        step.run(max_ticks=300, raise_on_stall=False)
        step.finalize()
        zs = step.monitors[0]
        printed = zs.report().render()
        assert zs.deadlock_note() and zs.deadlock_note() in printed
        recovered = recover_journal(journal)
        assert recovered.report().render() == printed
        assert replay_log(render_log(zs)[1]).report().render() == printed


class TestOomScenario:
    def test_oom_kill_diagnosed_as_self_inflicted(self):
        machine = generic_node(cores=2, memory_bytes=2 * 1024**3)
        step = launch_job(
            [machine],
            SrunOptions(ntasks=1, command="leaky"),
            oom_app(chunk_bytes=64 * 1024**2, chunks=64),
            monitor_factory=zerosum_mpi(ZeroSumConfig(period_seconds=0.05)),
        )
        step.run(raise_on_stall=False)
        step.finalize()
        zs = step.monitors[0]
        report = analyze(zs)
        oom = report.by_code("oom")
        assert oom and str(step.processes[0].pid) in oom[0].message
        pressure = report.by_code("memory-pressure")
        assert pressure
        assert "this process's RSS" in pressure[0].message

    def test_external_memory_hog_blamed_correctly(self):
        """§3.5: distinguish 'my fault' from 'another system process'."""
        machine = generic_node(cores=2, memory_bytes=2 * 1024**3)

        def quiet_app(ctx):
            def main():
                for _ in range(30):
                    yield Compute(2)
                    yield Sleep(1)

            return main()

        step = launch_job(
            [machine],
            SrunOptions(ntasks=1, command="quiet"),
            quiet_app,
            monitor_factory=zerosum_mpi(ZeroSumConfig(period_seconds=0.05)),
        )
        # someone else eats the node while our app behaves
        hog = {"done": False}

        def eat_memory(kernel):
            if not hog["done"] and kernel.now == 20:
                machine_mem = step.kernel.nodes[0].memory
                machine_mem.grow_system(int(1.9 * 1024**3))
                hog["done"] = True

        step.kernel.on_tick.append(eat_memory)
        step.run(raise_on_stall=False)
        step.finalize()
        report = analyze(step.monitors[0])
        pressure = report.by_code("memory-pressure")
        assert pressure
        assert "another consumer" in pressure[0].message


class TestCrashScenario:
    def test_rank_crash_reported_with_backtrace(self):
        step = launch_job(
            [generic_node(cores=4)],
            SrunOptions(ntasks=2, command="crashy"),
            crash_app(crash_after_jiffies=15),
            monitor_factory=zerosum_mpi(ZeroSumConfig(period_seconds=0.1)),
        )
        step.run(raise_on_stall=False)
        step.finalize()
        for monitor, proc in zip(step.monitors, step.processes):
            assert proc.exit_code == 139
            assert monitor.crash_reports
            assert "RuntimeError" in monitor.crash_reports[0]

    def test_crash_log_export(self):
        step = launch_job(
            [generic_node(cores=2)],
            SrunOptions(ntasks=1, command="crashy"),
            crash_app(crash_after_jiffies=5),
            monitor_factory=zerosum_mpi(ZeroSumConfig()),
        )
        step.run(raise_on_stall=False)
        step.finalize()
        _, log = render_log(step.monitors[0])
        assert "abnormal-exit handler" in log

    def test_monitor_only_reports_own_process(self):
        step = launch_job(
            [generic_node(cores=4)],
            SrunOptions(ntasks=2, command="mixed"),
            crash_app(crash_after_jiffies=10),
            monitor_factory=zerosum_mpi(ZeroSumConfig()),
        )
        step.run(raise_on_stall=False)
        step.finalize()
        # each monitor saw exactly one crash: its own rank's
        assert all(len(m.crash_reports) == 1 for m in step.monitors)
