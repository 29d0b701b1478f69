"""hwloc-like hardware topology object tree.

The model mirrors what ZeroSum obtains from hwloc: a tree of typed
objects (Machine → Package → NUMA domain → L3 → L2 → L1 → Core → PU)
where every object has a *logical* index (``L#``, assigned in discovery
order per type) and, where meaningful, an *OS* index (``P#``, the index
the kernel uses).  The distinction matters in practice: on the paper's
i7-1165G7 test node the two PUs of core 0 are ``P#0`` and ``P#4``
(Listing 1), and on Frontier GPU/GCD 0 is attached to NUMA domain 3
(Figure 2).

GPUs hang off the machine with a NUMA affinity and both a *physical*
index and a *visible* (runtime enumeration, e.g. HIP) index.

A :class:`Machine` freezes the tree it is given: it indexes every object
by type in one walk and serves its lookups from that index, so the tree
can no longer change shape under it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Optional

from repro.errors import TopologyError
from repro.topology.cpuset import CpuSet

__all__ = ["ObjType", "TopoObject", "GpuInfo", "Machine"]


class ObjType(enum.Enum):
    """Topology object types, ordered from outermost to innermost."""

    MACHINE = "Machine"
    PACKAGE = "Package"
    NUMA = "NUMANode"
    L3 = "L3Cache"
    L2 = "L2Cache"
    L1 = "L1Cache"
    CORE = "Core"
    PU = "PU"


#: Containment order used for validation: children must be deeper.
_DEPTH = {t: i for i, t in enumerate(ObjType)}


class TopoObject:
    """One node of the topology tree."""

    __slots__ = (
        "type",
        "logical_index",
        "os_index",
        "attrs",
        "parent",
        "children",
        "frozen",
    )

    def __init__(
        self,
        type: ObjType,
        logical_index: int = 0,
        os_index: Optional[int] = None,
        attrs: Optional[dict] = None,
    ):
        self.type = type
        self.logical_index = logical_index
        self.os_index = os_index
        self.attrs: dict = attrs or {}
        self.parent: Optional[TopoObject] = None
        self.children: list[TopoObject] = []
        #: set once a Machine owns the tree: its shape may not change
        self.frozen = False

    def add_child(self, child: "TopoObject") -> "TopoObject":
        """Attach a child object (containment order enforced)."""
        if self.frozen or child.frozen:
            raise TopologyError(
                f"cannot add {child!r} under {self!r}: the tree belongs "
                "to a Machine"
            )
        if _DEPTH[child.type] <= _DEPTH[self.type]:
            raise TopologyError(
                f"cannot nest {child.type.value} under {self.type.value}"
            )
        child.parent = self
        self.children.append(child)
        return child

    def walk(self) -> Iterator["TopoObject"]:
        """Depth-first pre-order traversal of this subtree."""
        yield self
        for child in self.children:
            yield from child.walk()

    def by_type(self, type: ObjType) -> list["TopoObject"]:
        """All descendants (incl. self) of the given type, in tree order."""
        return [o for o in self.walk() if o.type is type]

    def ancestor(self, type: ObjType) -> Optional["TopoObject"]:
        """Nearest ancestor (incl. self) of the given type, if any."""
        obj: Optional[TopoObject] = self
        while obj is not None:
            if obj.type is type:
                return obj
            obj = obj.parent
        return None

    def cpuset(self) -> CpuSet:
        """OS indexes of all PUs contained in this subtree."""
        return CpuSet(
            pu.os_index for pu in self.by_type(ObjType.PU) if pu.os_index is not None
        )

    def __repr__(self) -> str:
        os_part = "" if self.os_index is None else f" P#{self.os_index}"
        return f"<{self.type.value} L#{self.logical_index}{os_part}>"


@dataclass
class GpuInfo:
    """A GPU (or GCD) attached to the node.

    ``physical_index`` is the hardware index (what ``rocm-smi`` shows for
    the full node); ``visible_index`` is what the runtime enumerates for
    the job (HIP/CUDA device 0..n-1 after ``*_VISIBLE_DEVICES``
    filtering).  ``numa`` is the NUMA domain OS index the device is
    locally attached to.
    """

    physical_index: int
    numa: int
    visible_index: Optional[int] = None
    name: str = "GPU"
    memory_bytes: int = 64 * 1024**3
    attrs: dict = field(default_factory=dict)


class Machine:
    """A compute node: the topology tree plus GPUs and memory."""

    def __init__(
        self,
        root: TopoObject,
        gpus: Optional[list[GpuInfo]] = None,
        memory_bytes: int = 512 * 1024**3,
        name: str = "node",
        reserved_cpus: Optional[CpuSet] = None,
    ):
        if root.type is not ObjType.MACHINE:
            raise TopologyError("Machine root object must have type MACHINE")
        self.root = root
        self.gpus: list[GpuInfo] = list(gpus or [])
        self.memory_bytes = memory_bytes
        self.name = name
        #: CPUs the scheduler reserves for system processes (e.g. the
        #: first core of each L3 region on Frontier's low-noise mode).
        self.reserved_cpus = reserved_cpus or CpuSet()
        #: every object of the tree by type, tree order (one walk)
        self._by_type: dict[ObjType, list[TopoObject]] = {t: [] for t in ObjType}
        for obj in root.walk():
            self._by_type[obj.type].append(obj)
        self._pu_by_os: dict[int, TopoObject] = {}
        for pu in self._by_type[ObjType.PU]:
            if pu.os_index is None:
                raise TopologyError(f"PU without OS index: {pu!r}")
            if pu.os_index in self._pu_by_os:
                raise TopologyError(f"duplicate PU OS index {pu.os_index}")
            self._pu_by_os[pu.os_index] = pu
        self._cpuset = CpuSet(self._pu_by_os)
        # freeze only a tree that passed the checks above
        for objs in self._by_type.values():
            for obj in objs:
                obj.frozen = True
        #: render_lstopo's tree text per (header, show_numa); valid for
        #: good because the tree is frozen
        self._lstopo_text: dict[tuple, str] = {}

    # -- lookups ---------------------------------------------------------
    def pus(self) -> list[TopoObject]:
        """All hardware threads, tree order."""
        return list(self._by_type[ObjType.PU])

    def cores(self) -> list[TopoObject]:
        """All physical cores, tree order."""
        return list(self._by_type[ObjType.CORE])

    def numa_domains(self) -> list[TopoObject]:
        """All NUMA domains, tree order."""
        return list(self._by_type[ObjType.NUMA])

    def packages(self) -> list[TopoObject]:
        """All sockets/packages, tree order."""
        return list(self._by_type[ObjType.PACKAGE])

    def cpuset(self) -> CpuSet:
        """All PUs on the node."""
        return self._cpuset

    def usable_cpuset(self) -> CpuSet:
        """PUs available to user jobs (node minus reserved CPUs)."""
        return self._cpuset - self.reserved_cpus

    def pu(self, os_index: int) -> TopoObject:
        """Hardware thread by OS index."""
        try:
            return self._pu_by_os[os_index]
        except KeyError:
            raise TopologyError(f"no PU with OS index {os_index}") from None

    def core_of(self, cpu: int) -> TopoObject:
        """The physical core owning a hardware thread."""
        core = self.pu(cpu).ancestor(ObjType.CORE)
        if core is None:
            raise TopologyError(f"PU {cpu} has no Core ancestor")
        return core

    def numa_of(self, cpu: int) -> Optional[TopoObject]:
        """The NUMA domain of a hardware thread, if any."""
        return self.pu(cpu).ancestor(ObjType.NUMA)

    def smt_siblings(self, cpu: int) -> CpuSet:
        """All PUs sharing a core with ``cpu`` (including itself)."""
        return self.core_of(cpu).cpuset()

    @cached_property
    def node_cpus(self) -> frozenset[int]:
        """All PUs on the node, as one set every rank on it shares."""
        return frozenset(self._cpuset)

    @cached_property
    def cpu_numa(self) -> dict[int, int]:
        """CPU -> OS index of its NUMA domain (one map per node, shared
        by every rank on it: do not mutate)."""
        return {
            cpu: dom.os_index
            for dom in self._by_type[ObjType.NUMA]
            for cpu in dom.cpuset()
        }

    @cached_property
    def l3_cores(self) -> int:
        """Cores the largest L3 region offers outside the reserved CPUs,
        the most a rank can ask for and stay cache-local (0: no L3)."""
        return max(
            (
                len(region.cpuset() - self.reserved_cpus)
                // max(1, len(self.smt_siblings(region.cpuset().first())))
                for region in self._by_type[ObjType.L3]
            ),
            default=0,
        )

    def numa_cpuset(self, numa_os_index: int) -> CpuSet:
        """All hardware threads of one NUMA domain."""
        for dom in self._by_type[ObjType.NUMA]:
            if dom.os_index == numa_os_index:
                return dom.cpuset()
        raise TopologyError(f"no NUMA domain with OS index {numa_os_index}")

    # -- GPUs -------------------------------------------------------------
    def gpu_by_physical(self, physical_index: int) -> GpuInfo:
        """GPU by hardware (physical) index."""
        for g in self.gpus:
            if g.physical_index == physical_index:
                return g
        raise TopologyError(f"no GPU with physical index {physical_index}")

    def __repr__(self) -> str:
        return (
            f"Machine({self.name!r}, cores={len(self.cores())}, "
            f"pus={len(self.pus())}, gpus={len(self.gpus)})"
        )
