"""Builders for symmetric node topologies.

Real HPC nodes are overwhelmingly symmetric: *packages* × *NUMA domains
per package* × *L3 regions per NUMA* × *cores per L3* × *SMT*.  The
builder constructs the full hwloc-like tree from those counts plus a PU
numbering scheme.

Two OS-index numbering schemes cover every machine in the paper:

``interleaved``
    PU ``P#`` = core_os_index + smt_level * total_cores.  This is what
    Linux does on x86 (Frontier: HWT pairs are ``(c, c+64)``; the
    i7-1165G7 of Listing 1: ``(c, c+4)``).

``linear``
    PU ``P#`` = core_os_index * smt + smt_level.  This is the POWER9
    scheme on Summit, where core 0 owns HWTs 0-3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Optional

from repro.errors import TopologyError
from repro.topology.cpuset import CpuSet
from repro.topology.objects import GpuInfo, Machine, ObjType, TopoObject

__all__ = ["NodeSpec", "build_machine"]


@dataclass
class NodeSpec:
    """Counts and sizes describing a symmetric compute node."""

    name: str = "node"
    packages: int = 1
    numa_per_package: int = 1
    l3_per_numa: int = 1
    cores_per_l3: int = 4
    smt: int = 2
    numbering: Literal["interleaved", "linear"] = "interleaved"
    l3_size: int = 32 * 1024**2
    l2_size: int = 512 * 1024
    l1_size: int = 32 * 1024
    #: cores per shared L2; 1 means private L2 (every machine here).
    cores_per_l2: int = 1
    memory_bytes: int = 512 * 1024**3
    #: physical core OS indexes reserved for system processes
    reserved_cores: tuple[int, ...] = ()
    #: (physical_index, numa_os_index, name, memory_bytes) per GPU
    gpus: tuple[tuple[int, int, str, int], ...] = ()
    attrs: dict = field(default_factory=dict)

    @property
    def total_cores(self) -> int:
        return self.packages * self.numa_per_package * self.l3_per_numa * self.cores_per_l3

    def validate(self) -> None:
        """Sanity-check the counts; raises TopologyError."""
        for fname in ("packages", "numa_per_package", "l3_per_numa", "cores_per_l3", "smt"):
            if getattr(self, fname) < 1:
                raise TopologyError(f"NodeSpec.{fname} must be >= 1")
        for core in self.reserved_cores:
            if not 0 <= core < self.total_cores:
                raise TopologyError(f"reserved core {core} out of range")


def _pu_os_index(spec: NodeSpec, core_os: int, smt_level: int) -> int:
    if spec.numbering == "interleaved":
        return core_os + smt_level * spec.total_cores
    if spec.numbering == "linear":
        return core_os * spec.smt + smt_level
    raise TopologyError(f"unknown numbering scheme {spec.numbering!r}")


def build_machine(spec: NodeSpec) -> Machine:
    """Construct the full topology tree for a symmetric node spec."""
    spec.validate()
    root = TopoObject(ObjType.MACHINE, 0)
    counters = {t: 0 for t in ObjType}

    def new(parent: TopoObject, type: ObjType, os_index: Optional[int] = None,
            attrs: Optional[dict] = None) -> TopoObject:
        obj = TopoObject(type, counters[type], os_index, attrs)
        counters[type] += 1
        parent.add_child(obj)
        return obj

    core_os = 0
    for _pkg in range(spec.packages):
        pkg = new(root, ObjType.PACKAGE, os_index=_pkg)
        for _ in range(spec.numa_per_package):
            numa = new(pkg, ObjType.NUMA, os_index=counters[ObjType.NUMA] - 0)
            numa.os_index = numa.logical_index  # NUMA OS index == logical
            for _ in range(spec.l3_per_numa):
                l3 = new(numa, ObjType.L3, attrs={"size": spec.l3_size})
                l2: Optional[TopoObject] = None
                for core_in_l3 in range(spec.cores_per_l3):
                    if l2 is None or core_in_l3 % spec.cores_per_l2 == 0:
                        l2 = new(l3, ObjType.L2, attrs={"size": spec.l2_size})
                    l1 = new(l2, ObjType.L1, attrs={"size": spec.l1_size})
                    core = new(l1, ObjType.CORE, os_index=core_os)
                    for s in range(spec.smt):
                        new(core, ObjType.PU, os_index=_pu_os_index(spec, core_os, s))
                    core_os += 1

    reserved = CpuSet()
    for core_idx in spec.reserved_cores:
        for s in range(spec.smt):
            reserved = reserved | CpuSet([_pu_os_index(spec, core_idx, s)])

    gpus = [
        GpuInfo(physical_index=p, numa=n, name=name, memory_bytes=mem)
        for (p, n, name, mem) in spec.gpus
    ]
    machine = Machine(
        root,
        gpus=gpus,
        memory_bytes=spec.memory_bytes,
        name=spec.name,
        reserved_cpus=reserved,
    )
    machine.spec = spec  # type: ignore[attr-defined]
    return machine
