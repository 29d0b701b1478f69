"""Report format golden tests (the Listing 2 text layout) and fabric
traffic accounting."""

import re

import pytest

from tests.helpers import run_miniqmc
from repro.core import ZeroSumConfig, build_report
from repro.mpi import Fabric

T3_CMD = ("OMP_NUM_THREADS=7 OMP_PROC_BIND=spread OMP_PLACES=cores "
          "srun -n8 -c7 zerosum-mpi miniqmc")


class TestReportGoldenFormat:
    """Lock the Listing 2 text layout against regressions."""

    @pytest.fixture(scope="class")
    def text(self):
        step = run_miniqmc(T3_CMD, blocks=6, block_jiffies=50)
        return build_report(step.monitors[0]).render()

    def test_section_order(self, text):
        sections = [
            "Duration of execution:",
            "Process Summary:",
            "LWP (thread) Summary:",
            "Hardware Summary:",
        ]
        positions = [text.index(s) for s in sections]
        assert positions == sorted(positions)

    def test_duration_line_format(self, text):
        assert re.match(r"^Duration of execution: \d+\.\d{3} s$",
                        text.splitlines()[0])

    def test_process_line_format(self, text):
        line = [l for l in text.splitlines() if l.startswith("MPI")][0]
        assert re.match(
            r"^MPI \d{3} - PID \d+ - Node \S+ - CPUs allowed: \[[\d,\-]+\]$",
            line,
        )

    def test_lwp_line_format(self, text):
        lwp_lines = [l for l in text.splitlines()
                     if re.match(r"^LWP \d", l)]
        assert len(lwp_lines) == 9
        pattern = (r"^LWP \d+: [\w, ]+ - stime: \d+\.\d{2}, "
                   r"utime: \d+\.\d{2}, nv_ctx: \d+, ctx: \d+, "
                   r"CPUs: \[[\d,\-]*\]$")
        for line in lwp_lines:
            assert re.match(pattern, line), line

    def test_cpu_line_format(self, text):
        cpu_lines = [l for l in text.splitlines() if l.startswith("CPU")]
        assert len(cpu_lines) == 7
        pattern = (r"^CPU \d{3} - idle: \d+\.\d{2}, system: \d+\.\d{2}, "
                   r"user: \d+\.\d{2}$")
        for line in cpu_lines:
            assert re.match(pattern, line), line


class TestFabricTrafficAccounting:
    def test_internode_traffic_recorded(self):
        from repro.apps import PicConfig, pic_app
        from repro.core import zerosum_mpi
        from repro.launch import SrunOptions, launch_job
        from repro.topology import generic_node

        fabric = Fabric()
        nodes = [generic_node(cores=4, name="n0"),
                 generic_node(cores=4, name="n1")]
        step = launch_job(
            nodes,
            SrunOptions(ntasks=8, command="pic"),
            pic_app(PicConfig(steps=3)),
            fabric=fabric,
            monitor_factory=zerosum_mpi(
                ZeroSumConfig(collect_hwt=False, collect_gpu=False)),
        )
        step.run()
        step.finalize()
        # ranks 3<->4 cross the node boundary every step (ring)
        assert fabric.traffic.get((0, 1), 0) > 0
        assert fabric.traffic.get((1, 0), 0) > 0
        intra = fabric.traffic.get((0, 0), 0)
        assert intra > fabric.traffic[(0, 1)]  # most traffic stays local
