"""Workload application tests."""

import pytest

from tests.helpers import omp_team_app
from repro.apps import (
    MiniQmcConfig,
    PicConfig,
    jitter_factor,
    miniqmc_app,
    pic_app,
)
from repro.core import ZeroSumConfig, build_report, zerosum_mpi
from repro.errors import LaunchError
from repro.kernel import Alloc, Compute, Free, Sleep
from repro.launch import SrunOptions, launch_job
from repro.topology import frontier_node, generic_node
from repro.units import MIB


class TestJitter:
    def test_deterministic(self):
        assert jitter_factor(1, 2, 3, 4, 0.05) == jitter_factor(1, 2, 3, 4, 0.05)

    def test_varies_with_seed(self):
        values = {jitter_factor(s, 0, 0, 0, 0.05) for s in range(10)}
        assert len(values) > 5

    def test_zero_sigma_is_one(self):
        assert jitter_factor(1, 2, 3, 4, 0.0) == 1.0

    def test_clamped(self):
        for s in range(50):
            assert 0.5 <= jitter_factor(s, 0, 0, 0, 0.5) <= 1.5


class TestMiniQmcConfig:
    def test_validation(self):
        with pytest.raises(LaunchError):
            MiniQmcConfig(blocks=0)
        with pytest.raises(LaunchError):
            MiniQmcConfig(block_jiffies=0)


class TestMiniQmcCpu:
    def test_work_conservation(self):
        """Total LWP jiffies == team x blocks x block_jiffies (+eps)."""
        opts = SrunOptions(ntasks=1, cpus_per_task=4,
                           env={"OMP_NUM_THREADS": "4"})
        step = launch_job(
            [generic_node(cores=4)], opts,
            miniqmc_app(MiniQmcConfig(blocks=5, block_jiffies=20)),
            helper_thread=False, use_mpi=False,
        )
        step.run()
        total = sum(t.total_jiffies for t in step.processes[0].threads.values())
        assert total == pytest.approx(5 * 20 * 4, rel=0.02)

    def test_seed_changes_runtime_with_jitter(self):
        def run(seed):
            opts = SrunOptions(ntasks=1, cpus_per_task=2,
                               env={"OMP_NUM_THREADS": "2"})
            step = launch_job(
                [generic_node(cores=2)], opts,
                miniqmc_app(MiniQmcConfig(blocks=4, block_jiffies=30,
                                          jitter=0.05, seed=seed)),
                helper_thread=False, use_mpi=False,
            )
            return step.run()

        assert len({run(s) for s in range(6)}) > 1

    def test_offload_without_gpu_crashes_process(self):
        opts = SrunOptions(ntasks=1, cpus_per_task=2)
        step = launch_job(
            [generic_node(cores=2)], opts,
            miniqmc_app(MiniQmcConfig(blocks=1, offload=True)),
            use_mpi=False, helper_thread=False,
        )
        step.run(raise_on_stall=False)
        assert step.processes[0].exit_code == 139


class TestMiniQmcOffload:
    def test_gpu_used_and_host_idles(self):
        opts = SrunOptions.parse(
            "OMP_NUM_THREADS=4 OMP_PROC_BIND=spread OMP_PLACES=cores "
            "srun -n1 -c7 --gpus-per-task=1 --gpu-bind=closest miniqmc")
        step = launch_job(
            [frontier_node()], opts,
            miniqmc_app(MiniQmcConfig(blocks=4, offload=True)),
        )
        step.run()
        dev = step.contexts[0].gpus[0]
        assert dev.kernels_completed == 4 * 4  # blocks x team
        assert dev.busy_jiffies > 0

    def test_vram_freed_at_exit(self):
        opts = SrunOptions.parse(
            "OMP_NUM_THREADS=2 srun -n1 -c7 --gpus-per-task=1 miniqmc")
        step = launch_job(
            [frontier_node()], opts,
            miniqmc_app(MiniQmcConfig(blocks=2, offload=True)),
        )
        dev = step.contexts[0].gpus[0]
        baseline = dev.vram_used
        step.run()
        assert dev.vram_used == baseline
        assert dev.vram_peak > baseline


class TestPic:
    def test_validation(self):
        with pytest.raises(LaunchError):
            PicConfig(steps=0)
        with pytest.raises(LaunchError):
            PicConfig(shift_distance=0)

    def test_requires_mpi(self):
        step = launch_job(
            [generic_node(cores=2)], SrunOptions(ntasks=1),
            pic_app(PicConfig(steps=1)), use_mpi=False, helper_thread=False,
        )
        step.run(raise_on_stall=False)
        assert step.processes[0].exit_code == 139

    def test_traffic_structure(self):
        from repro.core import merge_monitors

        step = launch_job(
            [generic_node(cores=8)],
            SrunOptions(ntasks=8, command="pic"),
            pic_app(PicConfig(steps=4)),
            monitor_factory=zerosum_mpi(
                ZeroSumConfig(collect_hwt=False, collect_gpu=False)),
        )
        step.run()
        step.finalize()
        mat = merge_monitors(step.monitors)
        cfg = PicConfig(steps=4)
        expected_halo = 8 * 4 * 2 * cfg.halo_bytes
        assert mat.total_bytes() >= expected_halo
        assert mat.diagonal_dominance(1) > 0.9


class TestSynthetics:
    def test_cpu_bound(self):
        step = launch_job(
            [generic_node(cores=4)], SrunOptions(ntasks=1, cpus_per_task=4),
            omp_team_app(40, threads=4),
            use_mpi=False, helper_thread=False,
        )
        ticks = step.run()
        assert ticks < 70

    def test_memory_bound_rss_returns_to_zero(self):
        def memory_bound(ctx):
            """Allocate / compute (paging: system time) / free, twice."""
            for _ in range(2):
                yield Alloc(64 * MIB)
                yield Compute(10, user_frac=0.6)
                yield Free(64 * MIB)
            yield Sleep(1)

        step = launch_job(
            [generic_node(cores=2)], SrunOptions(ntasks=1),
            memory_bound,
            use_mpi=False, helper_thread=False,
        )
        step.run()
        assert step.processes[0].rss_bytes == 0
        assert step.processes[0].peak_rss_bytes > 0

    def test_imbalanced_utilization_spread(self):
        opts = SrunOptions(ntasks=1, cpus_per_task=4,
                           env={"OMP_NUM_THREADS": "4",
                                "OMP_PROC_BIND": "spread",
                                "OMP_PLACES": "threads"})
        step = launch_job(
            [generic_node(cores=4)], opts,
            omp_team_app(30, skew=3.0),
            monitor_factory=zerosum_mpi(ZeroSumConfig()),
            use_mpi=False, helper_thread=False,
        )
        step.run()
        step.finalize()
        report = build_report(step.monitors[0])
        utils = sorted(r.utime_pct for r in report.lwp_rows
                       if "OpenMP" in r.kind or "Main" in r.kind)
        assert utils[-1] > 2.5 * utils[0]  # visible imbalance
