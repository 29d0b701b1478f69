"""Allocation-wide cluster view tests."""

import pytest

from tests.helpers import run_miniqmc
from repro.analysis import build_cluster_view
from repro.core import ZeroSumConfig, zerosum_mpi
from repro.errors import MonitorError
from repro.launch import SrunOptions, launch_job
from repro.topology import frontier_node, generic_node

T3_CMD = ("OMP_NUM_THREADS=7 OMP_PROC_BIND=spread OMP_PLACES=cores "
          "srun -n8 -c7 zerosum-mpi miniqmc")
GPU_CMD = ("OMP_PROC_BIND=spread OMP_PLACES=cores OMP_NUM_THREADS=4 "
           "srun -n8 --gpus-per-task=1 --cpus-per-task=7 "
           "--gpu-bind=closest zerosum-mpi miniqmc")


class TestBalancedJob:
    @pytest.fixture(scope="class")
    def view(self):
        step = run_miniqmc(T3_CMD, blocks=8, block_jiffies=60)
        return build_cluster_view(step.monitors)

    def test_all_ranks_present(self, view):
        assert [r.rank for r in view.ranks] == list(range(8))

    def test_single_node_rollup(self, view):
        assert len(view.nodes) == 1
        node = view.nodes[0]
        assert node.ranks == 8
        assert node.mean_busy_pct > 60.0

    def test_balanced(self, view):
        assert view.imbalance() < 0.1
        assert view.laggards() == []

    def test_no_gpu_shows_dash(self, view):
        assert view.nodes[0].gpu_busy_pct == -1.0
        assert "--" in view.render()

    def test_render_contains_rows(self, view):
        text = view.render()
        assert "Allocation overview:" in text
        assert "frontier00001" in text
        assert "load imbalance" in text


class TestGpuJob:
    def test_gpu_busy_aggregated(self):
        step = run_miniqmc(GPU_CMD, blocks=6, offload=True)
        view = build_cluster_view(step.monitors)
        assert view.nodes[0].gpu_busy_pct >= 0.0
        assert all(r.gpu_busy_pct >= 0.0 for r in view.ranks)


class TestImbalance:
    def test_imbalanced_ranks_detected(self):
        """Rank-level imbalance: rank i computes (1 + i) units."""

        def skewed_app(ctx):
            from repro.kernel import Compute

            def main():
                yield Compute(30.0 * (1 + ctx.rank), user_frac=0.95)

            return main()

        step = launch_job(
            [generic_node(cores=8)],
            SrunOptions(ntasks=4, command="skewed"),
            skewed_app,
            monitor_factory=zerosum_mpi(ZeroSumConfig(period_seconds=0.25)),
        )
        step.run()
        step.finalize()
        view = build_cluster_view(step.monitors)
        assert view.imbalance() > 0.3
        lag = view.laggards()
        assert lag and lag[0].rank == 0  # the least-loaded rank idles most


class TestMultiNode:
    def test_two_node_rollup(self):
        nodes = [frontier_node(name=f"frontier{i:05d}") for i in range(2)]
        from repro.apps import MiniQmcConfig, miniqmc_app

        step = launch_job(
            nodes,
            SrunOptions.parse("OMP_NUM_THREADS=7 srun -n16 -c7 miniqmc"),
            miniqmc_app(MiniQmcConfig(blocks=4, block_jiffies=40)),
            monitor_factory=zerosum_mpi(ZeroSumConfig()),
        )
        step.run()
        step.finalize()
        view = build_cluster_view(step.monitors)
        assert len(view.nodes) == 2
        assert sum(n.ranks for n in view.nodes) == 16


class TestValidation:
    def test_empty_rejected(self):
        with pytest.raises(MonitorError):
            build_cluster_view([])
