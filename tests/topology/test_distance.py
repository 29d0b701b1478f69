"""Unit tests for NUMA/GPU distance and closest-GPU selection."""

import numpy as np
import pytest

from repro.errors import TopologyError
from repro.topology import (
    CpuSet,
    closest_gpu,
    cpu_gpu_distance,
    frontier_node,
    generic_node,
    gpu_affinity_cpuset,
    numa_distance_matrix,
    summit_node,
    testnode_i7,
)


class TestNumaDistance:
    def test_diagonal_local(self):
        mat = numa_distance_matrix(frontier_node())
        assert (np.diag(mat) == 10).all()

    def test_same_package(self):
        mat = numa_distance_matrix(frontier_node())
        assert mat[0, 1] == 12  # all four domains share the one package

    def test_cross_package(self):
        mat = numa_distance_matrix(summit_node())
        assert mat[0, 1] == 32

    def test_symmetric(self):
        mat = numa_distance_matrix(frontier_node())
        assert (mat == mat.T).all()


class TestCpuGpuDistance:
    def test_local(self):
        m = frontier_node()
        gcd0 = m.gpu_by_physical(0)  # NUMA 3
        assert cpu_gpu_distance(m, 49, gcd0) == 10

    def test_remote_same_package(self):
        m = frontier_node()
        gcd0 = m.gpu_by_physical(0)
        assert cpu_gpu_distance(m, 1, gcd0) == 12

    def test_cross_package(self):
        m = summit_node()
        gpu5 = m.gpu_by_physical(5)  # socket 1
        assert cpu_gpu_distance(m, 0, gpu5) == 32


class TestClosestGpu:
    def test_frontier_closest_for_numa3_cores(self):
        """--gpu-bind=closest from cores 49-55 must pick GCD 0 or 1."""
        m = frontier_node()
        g = closest_gpu(m, CpuSet.from_list("49-55"))
        assert g.physical_index in (0, 1)

    def test_tie_breaks_on_lower_index(self):
        m = frontier_node()
        g = closest_gpu(m, CpuSet.from_list("49-55"))
        assert g.physical_index == 0

    def test_exclusion_gives_distinct_devices(self):
        m = frontier_node()
        first = closest_gpu(m, CpuSet.from_list("49-55"))
        second = closest_gpu(m, CpuSet.from_list("49-55"),
                             exclude={first.physical_index})
        assert second.physical_index != first.physical_index
        assert second.physical_index == 1

    def test_no_gpus_raises(self):
        with pytest.raises(TopologyError):
            closest_gpu(testnode_i7(), CpuSet([0]))

    def test_all_excluded_raises(self):
        m = generic_node(cores=4, gpus=1)
        with pytest.raises(TopologyError):
            closest_gpu(m, CpuSet([0]), exclude={0})


def _per_pair_closest(machine, cpuset, exclude=()):
    """``closest_gpu`` the slow way: one ``cpu_gpu_distance`` per pair."""
    return min(
        (g for g in machine.gpus if g.physical_index not in exclude),
        key=lambda g: (
            sum(cpu_gpu_distance(machine, cpu, g) for cpu in cpuset),
            g.physical_index,
        ),
    )


class TestClosestGpuHoist:
    """The topology is walked once per call, with the per-pair answer."""

    @pytest.mark.parametrize(
        "machine",
        [frontier_node(), summit_node(), generic_node(cores=4, gpus=2)],
        ids=["frontier", "summit", "single-numa"],
    )
    def test_same_assignment_as_per_pair_distance(self, machine):
        cpus = sorted(machine.cpuset())
        cpusets = [CpuSet(cpus[i : i + 7]) for i in range(0, len(cpus), 7)]
        cpusets.append(CpuSet(cpus[::9]))  # straddles every NUMA domain
        for cpuset in cpusets:
            taken: set[int] = set()
            for _ in machine.gpus:  # drain, as the launcher does per node
                got = closest_gpu(machine, cpuset, exclude=taken)
                assert got is _per_pair_closest(machine, cpuset, taken)
                taken.add(got.physical_index)

    def test_walks_per_launch_drop_tenfold(self, monkeypatch):
        from repro.launch import SrunOptions, assign_tasks
        from repro.topology.objects import TopoObject

        walks = []
        walk = TopoObject.walk
        monkeypatch.setattr(
            TopoObject, "walk", lambda self: walks.append(1) or walk(self)
        )
        opts = SrunOptions.parse(
            "srun -n8 --gpus-per-task=1 --cpus-per-task=7 "
            "--gpu-bind=closest --threads-per-core=1 miniqmc"
        )
        assignments = assign_tasks([frontier_node()], opts)
        assert len({a.gpu_physical for a in assignments}) == 8
        # measured before the hoist: 112 918 walk() calls for this
        # assignment (252 cpu x gpu pairs, up to two tree walks each)
        assert len(walks) * 10 <= 112_918


class TestGpuAffinity:
    def test_affinity_is_numa_cpuset(self):
        m = frontier_node()
        gcd0 = m.gpu_by_physical(0)
        assert gpu_affinity_cpuset(m, gcd0) == m.numa_cpuset(3)

    def test_single_domain_fallback(self):
        m = generic_node(cores=4, gpus=1)
        g = m.gpus[0]
        assert gpu_affinity_cpuset(m, g) == m.cpuset()
