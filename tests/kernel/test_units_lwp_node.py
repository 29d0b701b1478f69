"""Unit tests for units, LWP bookkeeping, SimNode, and the balancer."""

import pytest

from repro import units
from repro.errors import SchedulerError
from repro.kernel import Compute, SimKernel, SimNode, ThreadRole, ThreadState
from repro.topology import CpuSet, frontier_node, generic_node


class TestUnits:
    def test_pages_rounds_up(self):
        assert units.pages(1) == 1
        assert units.pages(4096) == 1
        assert units.pages(4097) == 2
        assert units.pages(0) == 0

    def test_constants(self):
        assert units.USER_HZ == 100
        assert units.JIFFY_SECONDS == pytest.approx(0.01)
        assert units.MIB == 1024 * units.KIB


class TestLwpRoles:
    def make_lwp(self, roles=None):
        kernel = SimKernel(generic_node(cores=2))

        def gen():
            yield Compute(1)

        proc = kernel.spawn_process(kernel.nodes[0], CpuSet([0]), gen())
        return kernel.spawn_thread(proc, gen(), roles=roles)

    def test_default_role_other(self):
        assert self.make_lwp().role_label() == "Other"

    def test_role_ordering(self):
        lwp = self.make_lwp({ThreadRole.OPENMP, ThreadRole.MAIN})
        assert lwp.role_label() == "Main, OpenMP"

    def test_add_role_clears_other(self):
        lwp = self.make_lwp()
        lwp.add_role(ThreadRole.OPENMP)
        assert lwp.role_label() == "OpenMP"

    def test_state_predicates(self):
        lwp = self.make_lwp()
        assert lwp.alive and lwp.runnable and not lwp.blocked
        lwp.state = ThreadState.SLEEPING
        assert lwp.blocked
        lwp.state = ThreadState.DEAD
        assert not lwp.alive

    def test_distinct_cpus_used(self):
        lwp = self.make_lwp()
        lwp.charge(0, 1.0, 1.0)
        lwp.charge(1, 1.0, 1.0)
        assert sorted(lwp.cpu_jiffies) == [0, 1]
        assert lwp.migrations == 1


class TestSimNode:
    def test_hwt_lookup(self):
        node = SimNode(generic_node(cores=2))
        assert node.hwt(0).os_index == 0
        with pytest.raises(SchedulerError):
            node.hwt(9)

    def test_gpu_lookup(self):
        node = SimNode(frontier_node())
        assert node.gpu(3).info.physical_index == 3
        with pytest.raises(SchedulerError):
            node.gpu(42)

    def test_smt_siblings_map(self):
        node = SimNode(frontier_node())
        assert node.smt_siblings[1] == (65,)
        assert node.smt_siblings[65] == (1,)

    def test_memory_matches_machine(self):
        machine = generic_node(cores=2, memory_bytes=8 * 1024**3)
        node = SimNode(machine)
        assert node.memory.total_bytes == 8 * 1024**3


class TestBalancer:
    def test_steal_respects_affinity(self):
        """A queued thread pinned away from the idle CPU is not stolen."""
        kernel = SimKernel(generic_node(cores=2))

        def gen(j):
            def g():
                yield Compute(j)

            return g()

        proc = kernel.spawn_process(kernel.nodes[0], CpuSet([0, 1]), gen(40))
        pinned = kernel.spawn_thread(proc, gen(40), affinity=CpuSet([0]))
        kernel.run()
        assert set(pinned.cpu_jiffies) == {0}

    def test_no_balancing_when_disabled(self):
        kernel = SimKernel(generic_node(cores=2), lb_interval=0)

        def gen(j):
            def g():
                yield Compute(j)

            return g()

        proc = kernel.spawn_process(kernel.nodes[0], CpuSet([0, 1]), gen(20))
        w = kernel.spawn_thread(proc, gen(20))
        kernel.run()
        # without idle balancing both threads stay serialized on cpu 0
        assert set(w.cpu_jiffies) | set(proc.main_thread.cpu_jiffies) == {0}

    def test_cross_node_stealing_never_happens(self):
        kernel = SimKernel([generic_node(cores=1, name="a"),
                            generic_node(cores=1, name="b")])

        def gen(j):
            def g():
                yield Compute(j)

            return g()

        proc = kernel.spawn_process(kernel.nodes[0], CpuSet([0]), gen(20))
        kernel.spawn_thread(proc, gen(20))
        kernel.run()
        # node b stays idle: threads of node-a processes cannot move there
        assert kernel.nodes[1].hwt(0).busy_jiffies == 0
