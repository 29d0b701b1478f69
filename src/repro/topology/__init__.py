"""Hardware topology model (hwloc substitute).

Public surface::

    from repro.topology import (
        CpuSet, Machine, ObjType, TopoObject, GpuInfo,
        NodeSpec, build_machine,
        frontier_node, summit_node, perlmutter_node, aurora_node,
        testnode_i7, generic_node,
        render_lstopo, closest_gpu,
    )
"""

from repro.topology.builder import NodeSpec, build_machine
from repro.topology.cpuset import CpuSet
from repro.topology.distance import (
    closest_gpu,
    cpu_gpu_distance,
    numa_distance_matrix,
)
from repro.topology.lstopo import format_cache_size, render_lstopo
from repro.topology.machines import (
    MACHINE_FACTORIES,
    aurora_node,
    frontier_node,
    generic_node,
    perlmutter_node,
    summit_node,
    testnode_i7,
)
from repro.topology.objects import GpuInfo, Machine, ObjType, TopoObject

__all__ = [
    "CpuSet",
    "Machine",
    "ObjType",
    "TopoObject",
    "GpuInfo",
    "NodeSpec",
    "build_machine",
    "frontier_node",
    "summit_node",
    "perlmutter_node",
    "aurora_node",
    "testnode_i7",
    "generic_node",
    "MACHINE_FACTORIES",
    "render_lstopo",
    "format_cache_size",
    "closest_gpu",
    "cpu_gpu_distance",
    "numa_distance_matrix",
]
