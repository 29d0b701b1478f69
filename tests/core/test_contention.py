"""Misconfiguration/contention detection across scenarios."""

from tests.helpers import run_miniqmc
from repro.apps import oom_app
from repro.core import Severity, ZeroSumConfig, analyze, zerosum_mpi
from repro.launch import SrunOptions, launch_job
from repro.topology import generic_node

T1_CMD = "OMP_NUM_THREADS=7 srun -n8 zerosum-mpi miniqmc"
T2_CMD = "OMP_NUM_THREADS=7 srun -n8 -c7 zerosum-mpi miniqmc"
T3_CMD = ("OMP_NUM_THREADS=7 OMP_PROC_BIND=spread OMP_PLACES=cores "
          "srun -n8 -c7 zerosum-mpi miniqmc")
GPU_CMD = ("OMP_PROC_BIND=spread OMP_PLACES=cores OMP_NUM_THREADS=4 "
           "srun -n8 --gpus-per-task=1 --cpus-per-task=7 "
           "--gpu-bind=closest zerosum-mpi miniqmc")


class TestOversubscription:
    def test_table1_flags_oversubscription(self):
        step = run_miniqmc(T1_CMD, blocks=8, block_jiffies=60)
        report = analyze(step.monitors[0])
        codes = {f.code for f in report.findings}
        assert "oversubscription" in codes
        assert "time-slicing" in codes
        assert "affinity-overlap" in codes
        assert report.worst() is Severity.CRITICAL

    def test_table2_clean(self):
        step = run_miniqmc(T2_CMD, blocks=8, block_jiffies=60)
        report = analyze(step.monitors[0])
        assert {f.code for f in report.findings} <= {"numa-span"}

    def test_table3_clean(self):
        step = run_miniqmc(T3_CMD, blocks=8, block_jiffies=60)
        report = analyze(step.monitors[0])
        assert report.findings == []
        assert report.worst() is Severity.INFO

    def test_render_mentions_findings(self):
        step = run_miniqmc(T1_CMD, blocks=6, block_jiffies=50)
        text = analyze(step.monitors[0]).render()
        assert "oversubscription" in text
        assert "CRITICAL" in text

    def test_render_clean(self):
        step = run_miniqmc(T3_CMD, blocks=4)
        assert "no issues detected" in analyze(step.monitors[0]).render()


class TestUndersubscription:
    def test_gpu_offload_idles_host_cores(self):
        """Listing 2 observation: half the allowed cores stayed idle."""
        step = run_miniqmc(GPU_CMD, blocks=8, offload=True)
        report = analyze(step.monitors[0])
        assert report.by_code("undersubscription")


class TestGpuLocality:
    def test_closest_binding_is_clean(self):
        step = run_miniqmc(GPU_CMD, blocks=4, offload=True)
        report = analyze(step.monitors[0])
        assert not report.by_code("gpu-locality")

    def test_wrong_binding_flagged(self):
        """Without --gpu-bind=closest rank 0 (NUMA 0) drives GCD 0
        (NUMA 3): the classic Frontier misconfiguration of Figure 2."""
        cmd = ("OMP_PROC_BIND=spread OMP_PLACES=cores OMP_NUM_THREADS=4 "
               "srun -n8 --gpus-per-task=1 --cpus-per-task=7 "
               "zerosum-mpi miniqmc")
        step = run_miniqmc(cmd, blocks=4, offload=True)
        report = analyze(step.monitors[0])
        findings = report.by_code("gpu-locality")
        assert findings
        assert "NUMA" in findings[0].message


class TestMemoryFindings:
    def test_oom_flagged(self):
        machine = generic_node(cores=2, memory_bytes=4 * 1024**3)
        step = launch_job(
            [machine],
            SrunOptions(ntasks=1),
            oom_app(chunk_bytes=32 * 1024**2, chunks=256),
            monitor_factory=zerosum_mpi(
                ZeroSumConfig(period_seconds=0.03)  # catch the climb
            ),
        )
        step.run(raise_on_stall=False)
        step.finalize()
        report = analyze(step.monitors[0])
        codes = {f.code for f in report.findings}
        assert "oom" in codes
        assert "memory-pressure" in codes

    def test_finding_by_code_empty(self):
        step = run_miniqmc(T3_CMD, blocks=3)
        assert analyze(step.monitors[0]).by_code("oom") == []
