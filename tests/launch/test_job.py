"""launch_job orchestration: processes, MPI wiring, helpers, monitors."""

import pytest

from repro.apps import MiniQmcConfig, miniqmc_app
from repro.core import ZeroSumConfig, zerosum_mpi
from repro.kernel import Compute, ThreadRole
from repro.launch import SrunOptions, launch_job
from repro.topology import frontier_node, generic_node


def tiny_app(ctx):
    def main():
        yield Compute(5)

    return main()


class TestLaunch:
    def test_processes_created_with_cpusets(self):
        step = launch_job(
            [frontier_node()], SrunOptions(ntasks=2, cpus_per_task=7), tiny_app
        )
        assert len(step.processes) == 2
        assert step.processes[0].cpuset.to_list() == "1-7"

    def test_mpi_ranks_wired(self):
        step = launch_job([generic_node(cores=4)], SrunOptions(ntasks=4), tiny_app)
        assert step.mpi is not None
        assert step.mpi.size == 4
        assert step.contexts[2].comm.Get_rank() == 2
        assert step.processes[3].world_size == 4

    def test_no_mpi_mode(self):
        step = launch_job(
            [generic_node(cores=2)], SrunOptions(ntasks=1), tiny_app, use_mpi=False
        )
        assert step.mpi is None
        assert step.processes[0].rank is None

    def test_helper_thread_spawned_unbound(self):
        machine = frontier_node()
        step = launch_job([machine], SrunOptions(ntasks=1), tiny_app)
        proc = step.processes[0]
        helpers = [
            t for t in proc.threads.values() if ThreadRole.OTHER in t.roles
        ]
        assert len(helpers) == 1
        assert helpers[0].affinity == machine.usable_cpuset()
        assert helpers[0].daemon

    def test_helper_thread_optional(self):
        step = launch_job(
            [generic_node(cores=2)], SrunOptions(ntasks=1), tiny_app,
            helper_thread=False,
        )
        assert len(step.processes[0].threads) == 1

    def test_gpus_visible_per_rank(self):
        step = launch_job(
            [frontier_node()],
            SrunOptions(ntasks=2, cpus_per_task=7, gpus_per_task=1,
                        gpu_bind="closest"),
            tiny_app,
        )
        assert len(step.contexts[0].gpus) == 1
        assert step.contexts[0].gpus[0].info.visible_index == 0

    def test_env_propagated(self):
        opts = SrunOptions(ntasks=1, env={"OMP_NUM_THREADS": "3"})
        step = launch_job([generic_node(cores=4)], opts, tiny_app)
        assert step.contexts[0].omp.num_threads == 3
        assert step.processes[0].env["OMP_NUM_THREADS"] == "3"

    def test_run_and_duration(self):
        step = launch_job([generic_node(cores=2)], SrunOptions(ntasks=1), tiny_app)
        ticks = step.run()
        assert ticks == 5
        assert step.duration_seconds == pytest.approx(0.05)

    def test_monitor_factory_attaches_per_rank(self):
        step = launch_job(
            [generic_node(cores=4)],
            SrunOptions(ntasks=2),
            miniqmc_app(MiniQmcConfig(blocks=1, block_jiffies=5)),
            monitor_factory=zerosum_mpi(ZeroSumConfig()),
        )
        assert len(step.monitors) == 2
        step.run()
        step.finalize()
        assert all(m.end_tick is not None for m in step.monitors)

    def test_single_machine_accepted(self):
        step = launch_job(generic_node(cores=2), SrunOptions(ntasks=1), tiny_app)
        assert len(step.processes) == 1

    def test_rank_context_node_property(self):
        step = launch_job([generic_node(cores=2)], SrunOptions(ntasks=1), tiny_app)
        assert step.contexts[0].node is step.kernel.nodes[0]
