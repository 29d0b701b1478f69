"""Cross-machine generality: the same tooling on Summit and Perlmutter.

The paper tested ZeroSum on Summit, Frontier, Perlmutter and an Intel
test system; the monitor must cope with POWER9's linear SMT4 PU
numbering, different reserved-core schemes, and different GPU counts.
"""

from repro.apps import MiniQmcConfig, miniqmc_app
from repro.core import ZeroSumConfig, advise, analyze, build_report, zerosum_mpi
from repro.launch import SrunOptions, launch_job
from repro.topology import CpuSet, perlmutter_node, summit_node, testnode_i7


def run_on(machine, cmdline, blocks=6, offload=False, **cfg):
    step = launch_job(
        [machine],
        SrunOptions.parse(cmdline),
        miniqmc_app(MiniQmcConfig(blocks=blocks, block_jiffies=40,
                                  offload=offload, **cfg)),
        monitor_factory=zerosum_mpi(ZeroSumConfig()),
    )
    step.run()
    step.finalize()
    return step


class TestSummit:
    """POWER9: SMT4, linear PU numbering, last socket core reserved."""

    def test_default_assignment_skips_reserved(self):
        step = run_on(summit_node(), "OMP_NUM_THREADS=4 srun -n6 miniqmc")
        # core 0 is NOT reserved on Summit (the last of each socket is)
        assert step.processes[0].cpuset == CpuSet([0])

    def test_smt4_core_places(self):
        """OMP_PLACES=cores groups four linear-numbered PUs."""
        step = run_on(
            summit_node(),
            "OMP_NUM_THREADS=2 OMP_PROC_BIND=spread OMP_PLACES=cores "
            "srun -n2 -c2 --threads-per-core=4 miniqmc",
        )
        report = build_report(step.monitors[0])
        main = report.lwp_by_kind("Main")[0]
        assert list(main.cpus) == [0, 1, 2, 3]  # one full SMT4 core

    def test_report_clean_when_bound(self):
        step = run_on(
            summit_node(),
            "OMP_NUM_THREADS=4 OMP_PROC_BIND=spread OMP_PLACES=cores "
            "srun -n4 -c4 miniqmc",
        )
        assert analyze(step.monitors[0]).findings == []

    def test_oversubscription_detected_on_summit_too(self):
        step = run_on(
            summit_node(), "OMP_NUM_THREADS=8 srun -n4 miniqmc", blocks=8
        )
        codes = {f.code for f in analyze(step.monitors[0]).findings}
        assert "oversubscription" in codes
        advice = advise(step.monitors[0], step.options)
        assert advice.by_code("request-more-cpus")


class TestPerlmutter:
    def test_gpu_per_rank_closest(self):
        step = run_on(
            perlmutter_node(),
            "OMP_NUM_THREADS=4 OMP_PROC_BIND=spread OMP_PLACES=cores "
            "srun -n4 -c16 --gpus-per-task=1 --gpu-bind=closest miniqmc",
            offload=True,
        )
        # each rank gets the A100 local to its NUMA domain
        physical = [ctx.gpus[0].info.physical_index for ctx in step.contexts]
        assert sorted(physical) == [0, 1, 2, 3]
        for ctx in step.contexts:
            numas = {
                ctx.process.node.machine.numa_of(c).os_index
                for c in ctx.process.cpuset
            }
            assert ctx.gpus[0].info.numa in numas

    def test_gpu_table_in_report(self):
        step = run_on(
            perlmutter_node(),
            "OMP_NUM_THREADS=2 srun -n2 -c8 --gpus-per-task=1 "
            "--gpu-bind=closest miniqmc",
            offload=True,
        )
        report = build_report(step.monitors[0])
        assert 0 in report.gpu_stats
        busy = [s for s in report.gpu_stats[0] if s.label == "Device Busy %"][0]
        assert busy.maximum > 0.0


class TestWorkstation:
    def test_monitoring_on_the_listing1_testnode(self):
        """Even the 4C/8T i7 workstation runs the full pipeline."""
        step = run_on(
            testnode_i7(),
            "OMP_NUM_THREADS=4 OMP_PROC_BIND=spread OMP_PLACES=cores "
            "srun -n1 -c4 --threads-per-core=2 miniqmc",
        )
        report = build_report(step.monitors[0])
        omp_rows = [r for r in report.lwp_rows if "OpenMP" in r.kind]
        assert len(omp_rows) == 4
        # cores places on the i7 pair P#c with P#c+4
        assert all(len(r.cpus) == 2 for r in omp_rows)
