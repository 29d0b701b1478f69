"""OpenMP runtime tests: teams, binding, reuse, OMPT."""

import pytest

from repro.errors import LaunchError
from repro.kernel import Compute, SimKernel, ThreadRole
from repro.openmp import OmptEvent, OmptThreadType, OpenMPRuntime
from repro.topology import CpuSet, frontier_node, generic_node


def make_world(cpus="0-3", env=None, machine=None, behavior=None):
    kernel = SimKernel(machine or generic_node(cores=4))
    holder = {}

    def default_main():
        omp = holder["omp"]
        yield from omp.parallel(lambda tn, team: iter([Compute(10)]))
        yield from omp.shutdown()

    proc = kernel.spawn_process(
        kernel.nodes[0],
        CpuSet.from_list(cpus),
        behavior() if behavior else default_main(),
        env=env or {},
    )
    holder["omp"] = OpenMPRuntime(kernel, proc)
    return kernel, proc, holder["omp"]


def region_of(jiffies, user_frac=1.0):
    def region(tn, team):
        yield Compute(jiffies, user_frac=user_frac)

    return region


class TestTeamSize:
    def test_default_team_equals_cpuset(self):
        kernel, proc, omp = make_world("0-3")
        assert omp.num_threads == 4

    def test_env_overrides(self):
        kernel, proc, omp = make_world("0-3", env={"OMP_NUM_THREADS": "2"})
        assert omp.num_threads == 2

    def test_bad_env_rejected(self):
        with pytest.raises(LaunchError):
            make_world("0-3", env={"OMP_NUM_THREADS": "lots"})
        with pytest.raises(LaunchError):
            make_world("0-3", env={"OMP_NUM_THREADS": "0"})

    def test_workers_spawned_once_and_reused(self):
        kernel, proc, omp = make_world("0-3", env={"OMP_NUM_THREADS": "3"})
        kernel.run()
        assert len(omp.workers) == 2
        # main + 2 workers + nothing else
        assert len(proc.threads) == 3

    def test_explicit_num_threads_grows_pool(self):
        holder = {}
        kernel = SimKernel(generic_node(cores=4))

        def main():
            omp = holder["omp"]
            yield from omp.parallel(region_of(5), num_threads=2)
            yield from omp.parallel(region_of(5), num_threads=4)
            yield from omp.shutdown()

        proc = kernel.spawn_process(kernel.nodes[0], CpuSet.from_list("0-3"), main())
        holder["omp"] = OpenMPRuntime(kernel, proc)
        kernel.run()
        assert len(holder["omp"].workers) == 3


class TestExecutionSemantics:
    def test_work_actually_parallel(self):
        kernel, proc, omp = make_world("0-3")
        ticks = kernel.run()
        # 4 threads x 10 jiffies on 4 cores: near 10, not 40
        assert ticks < 25

    def test_join_barrier_waits_for_slowest(self):
        holder = {}
        kernel = SimKernel(generic_node(cores=4))
        after = []

        def uneven(tn, team):
            yield Compute(5 + 20 * tn)

        def main():
            omp = holder["omp"]
            yield from omp.parallel(uneven, num_threads=3)
            from repro.kernel import Call
            after.append((yield Call(lambda k, l: k.now)))
            yield from omp.shutdown()

        proc = kernel.spawn_process(kernel.nodes[0], CpuSet.from_list("0-3"), main())
        holder["omp"] = OpenMPRuntime(kernel, proc)
        kernel.run()
        assert after[0] >= 45  # slowest thread: 5 + 40

    def test_roles_assigned(self):
        kernel, proc, omp = make_world("0-3")
        kernel.run()
        main = proc.main_thread
        assert ThreadRole.MAIN in main.roles and ThreadRole.OPENMP in main.roles
        assert main.role_label() == "Main, OpenMP"
        for w in omp.workers:
            assert w.role_label() == "OpenMP"

    def test_sequential_regions(self):
        holder = {}
        kernel = SimKernel(generic_node(cores=2))
        counter = []

        def region(tn, team):
            counter.append(tn)
            yield Compute(2)

        def main():
            omp = holder["omp"]
            for _ in range(3):
                yield from omp.parallel(region, num_threads=2)
            yield from omp.shutdown()

        proc = kernel.spawn_process(kernel.nodes[0], CpuSet([0, 1]), main())
        holder["omp"] = OpenMPRuntime(kernel, proc)
        kernel.run()
        assert len(counter) == 6


class TestBinding:
    def test_spread_cores_binds_one_per_core(self):
        env = {"OMP_NUM_THREADS": "7", "OMP_PROC_BIND": "spread",
               "OMP_PLACES": "cores"}
        holder = {}
        kernel = SimKernel(frontier_node())

        def main():
            omp = holder["omp"]
            yield from omp.parallel(region_of(20))
            yield from omp.shutdown()

        proc = kernel.spawn_process(
            kernel.nodes[0], CpuSet.from_list("1-7"), main(), env=env
        )
        holder["omp"] = OpenMPRuntime(kernel, proc)
        kernel.run()
        affs = [proc.main_thread.affinity] + [w.affinity for w in holder["omp"].workers]
        assert sorted(a.to_list() for a in affs) == [str(c) for c in range(1, 8)]

    def test_default_places_cores_when_bound(self):
        env = {"OMP_NUM_THREADS": "2", "OMP_PROC_BIND": "close"}
        kernel, proc, omp = make_world("0-3", env=env)
        kernel.run()
        assert len(proc.main_thread.affinity) == 1

    def test_unbound_by_default(self):
        kernel, proc, omp = make_world("0-3")
        kernel.run()
        assert proc.main_thread.affinity == CpuSet.from_list("0-3")


class TestOmpt:
    def test_thread_begin_callbacks(self):
        kernel, proc, omp = make_world("0-3", env={"OMP_NUM_THREADS": "3"})
        seen = []
        omp.ompt.set_callback(
            OmptEvent.THREAD_BEGIN, lambda tt, lwp: seen.append((tt, lwp.tid))
        )
        kernel.run()
        types = [tt for tt, _ in seen]
        assert types.count(OmptThreadType.INITIAL) == 1
        assert types.count(OmptThreadType.WORKER) == 2

    def test_parallel_begin_end(self):
        kernel, proc, omp = make_world("0-3")
        events = []
        omp.ompt.set_callback(
            OmptEvent.PARALLEL_BEGIN, lambda team, master: events.append(("b", team))
        )
        omp.ompt.set_callback(
            OmptEvent.PARALLEL_END, lambda master: events.append(("e", None))
        )
        kernel.run()
        assert events[0] == ("b", 4)
        assert events[-1][0] == "e"

    def test_thread_end_on_shutdown(self):
        kernel, proc, omp = make_world("0-3", env={"OMP_NUM_THREADS": "2"})
        ended = []
        omp.ompt.set_callback(OmptEvent.THREAD_END, lambda lwp: ended.append(lwp.tid))
        kernel.run()
        assert len(ended) == 1

    def test_clear(self):
        kernel, proc, omp = make_world("0-3")
        omp.ompt.set_callback(OmptEvent.THREAD_BEGIN, lambda *a: None)
        omp.ompt.clear()
        kernel.run()  # no callbacks fire, nothing raises
