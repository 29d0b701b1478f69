"""Locality distances: NUMA-to-NUMA and CPU-to-GPU.

The misconfiguration detector needs a notion of "how far" a CPU is from
the GPU a rank drives, and launchers need "the closest GPU" for
``--gpu-bind=closest``.  We derive a simple, hwloc-consistent distance
from the tree:

* same NUMA domain: 10 (local, matching the ACPI SLIT convention)
* same package, different NUMA: 12
* different package: 32
"""

from __future__ import annotations

import numpy as np

from repro.errors import TopologyError
from repro.topology.cpuset import CpuSet
from repro.topology.objects import GpuInfo, Machine, ObjType

__all__ = [
    "numa_distance_matrix",
    "cpu_gpu_distance",
    "closest_gpu",
    "gpu_affinity_cpuset",
]

_LOCAL = 10
_SAME_PACKAGE = 12
_REMOTE = 32


def numa_distance_matrix(machine: Machine) -> np.ndarray:
    """SLIT-style symmetric distance matrix between NUMA domains."""
    domains = machine.numa_domains()
    n = len(domains)
    mat = np.full((n, n), _REMOTE, dtype=np.int64)
    for i, a in enumerate(domains):
        pkg_a = a.ancestor(ObjType.PACKAGE)
        for j, b in enumerate(domains):
            if i == j:
                mat[i, j] = _LOCAL
            elif pkg_a is not None and pkg_a is b.ancestor(ObjType.PACKAGE):
                mat[i, j] = _SAME_PACKAGE
    return mat


def _numa_tables(machine: Machine) -> tuple[dict, np.ndarray]:
    """NUMA ``os_index`` → matrix row, and :func:`numa_distance_matrix`."""
    rows = {d.os_index: i for i, d in enumerate(machine.numa_domains())}
    return rows, numa_distance_matrix(machine)


def _numa_gpu_distance(dom, gpu: GpuInfo, rows: dict, mat: np.ndarray) -> int:
    """Distance from a CPU's NUMA domain to one GPU."""
    if dom is None or dom.os_index is None or dom.os_index == gpu.numa:
        return _LOCAL  # single-NUMA machines: everything is local
    if gpu.numa not in rows:
        raise TopologyError(f"GPU NUMA {gpu.numa} not present on machine")
    return int(mat[rows[dom.os_index], rows[gpu.numa]])


def cpu_gpu_distance(machine: Machine, cpu: int, gpu: GpuInfo) -> int:
    """Distance between one CPU and one GPU via their NUMA domains."""
    return _numa_gpu_distance(machine.numa_of(cpu), gpu, *_numa_tables(machine))


def closest_gpu(machine: Machine, cpuset: CpuSet, exclude: set[int] | None = None) -> GpuInfo:
    """The GPU with minimal total distance to the given cpuset.

    Ties break on the lower physical index, matching Slurm's
    deterministic assignment.  ``exclude`` removes already-assigned
    physical indexes so each rank gets a distinct device.
    """
    if not machine.gpus:
        raise TopologyError("machine has no GPUs")
    exclude = exclude or set()
    candidates = [g for g in machine.gpus if g.physical_index not in exclude]
    if not candidates:
        raise TopologyError("all GPUs excluded")

    # the topology is walked once per call, not once per (cpu, gpu)
    tables = _numa_tables(machine)
    doms = [machine.numa_of(cpu) for cpu in cpuset]

    def total(gpu: GpuInfo) -> tuple[int, int]:
        dist = sum(_numa_gpu_distance(dom, gpu, *tables) for dom in doms)
        return (dist, gpu.physical_index)

    return min(candidates, key=total)


def gpu_affinity_cpuset(machine: Machine, gpu: GpuInfo) -> CpuSet:
    """CPUs local to the GPU (its NUMA domain's cpuset)."""
    for dom in machine.numa_domains():
        if dom.os_index == gpu.numa:
            return dom.cpuset()
    # single-domain node: everything is local
    return machine.cpuset()
