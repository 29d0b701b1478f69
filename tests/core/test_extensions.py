"""Extension features: probe detection, deadlock termination."""

import pytest

from tests.helpers import run_miniqmc
from repro.apps import deadlock_app
from repro.core import ZeroSumConfig, build_report, zerosum_mpi
from repro.errors import MonitorError
from repro.launch import SrunOptions, launch_job
from repro.topology import generic_node

T3_CMD = ("OMP_NUM_THREADS=7 OMP_PROC_BIND=spread OMP_PLACES=cores "
          "srun -n8 -c7 zerosum-mpi miniqmc")


class TestLegacyOpenmpDetection:
    def test_probe_classifies_team(self):
        """The pre-5.1 fallback finds the same OpenMP threads OMPT does."""
        step = run_miniqmc(
            T3_CMD, blocks=6,
            zs_config=ZeroSumConfig(openmp_detection="probe"),
        )
        zs = step.monitors[0]
        report = build_report(zs)
        kinds = [r.kind for r in report.lwp_rows]
        assert kinds.count("OpenMP") == 6
        assert kinds.count("Main, OpenMP") == 1

    def test_probe_matches_ompt(self):
        probe = run_miniqmc(
            T3_CMD, blocks=6,
            zs_config=ZeroSumConfig(openmp_detection="probe"),
        )
        ompt = run_miniqmc(
            T3_CMD, blocks=6,
            zs_config=ZeroSumConfig(openmp_detection="ompt"),
        )
        probe_kinds = sorted(
            r.kind for r in build_report(probe.monitors[0]).lwp_rows
        )
        ompt_kinds = sorted(
            r.kind for r in build_report(ompt.monitors[0]).lwp_rows
        )
        assert probe_kinds == ompt_kinds

    def test_bad_detection_mode_rejected(self):
        with pytest.raises(MonitorError):
            ZeroSumConfig(openmp_detection="psychic")


class TestDeadlockTermination:
    def test_hung_process_terminated(self):
        """§3.3: 'possibly terminate the application to prevent wasting
        of allocation resources' — implemented behind deadlock_action."""
        step = launch_job(
            [generic_node(cores=2)],
            SrunOptions(ntasks=1, command="hang"),
            deadlock_app(deadlock_after_jiffies=20),
            monitor_factory=zerosum_mpi(
                ZeroSumConfig(period_seconds=0.25, deadlock_after=2,
                              deadlock_action="terminate")
            ),
        )
        ticks = step.run(max_ticks=5000, raise_on_stall=False)
        step.finalize()
        proc = step.processes[0]
        assert proc.exit_code == 124
        assert not proc.alive
        # the kill happened shortly after detection, not at max_ticks
        assert ticks < 200
        assert any("TERMINATING" in h for h in step.monitors[0].heartbeats)

    def test_report_mode_leaves_process_alone(self):
        step = launch_job(
            [generic_node(cores=2)],
            SrunOptions(ntasks=1, command="hang"),
            deadlock_app(deadlock_after_jiffies=20),
            monitor_factory=zerosum_mpi(
                ZeroSumConfig(period_seconds=0.25, deadlock_after=2,
                              deadlock_action="report")
            ),
        )
        step.run(max_ticks=300, raise_on_stall=False)
        step.finalize()
        assert step.processes[0].alive
        assert step.monitors[0].deadlock_suspected()

    def test_bad_action_rejected(self):
        with pytest.raises(MonitorError):
            ZeroSumConfig(deadlock_action="panic")
