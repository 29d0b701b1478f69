"""A simulated compute node: topology + scheduler state + devices.

The node instantiates one :class:`HWTState` per PU of its topology and
one simulated GPU device per :class:`~repro.topology.objects.GpuInfo`.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Optional

from repro.errors import SchedulerError
from repro.kernel.hwt import HWTState
from repro.kernel.io import IoSubsystem
from repro.kernel.memory import MemoryAccounting
from repro.topology.objects import Machine

if TYPE_CHECKING:
    from repro.gpu.device import GpuDevice
    from repro.kernel.process import SimProcess

__all__ = ["SimNode"]


class SimNode:
    """One node participating in a simulation."""

    def __init__(self, machine: Machine, node_index: int = 0):
        from repro.gpu.device import GpuDevice  # local import, avoids cycle

        self.machine = machine
        self.node_index = node_index
        self.hostname = machine.name
        #: CPUs with a current occupant or a non-empty runqueue; the
        #: scheduler's per-tick loop walks only these (event-driven
        #: fast path — idle CPUs are never visited)
        self.active_cpus: set[int] = set()
        #: while the scheduler is mid-pass over the active set, CPUs
        #: activated by wakeups during the pass are also pushed here so
        #: the pass can pick them up in ascending-CPU order
        self._activation_watch: Optional[list[int]] = None
        #: active CPUs the per-tick pass must actually visit — the
        #: active set minus CPUs enrolled in the batched accounting
        #: arrays (see repro.kernel.soa)
        self.scan_cpus: set[int] = set()
        #: the CPU the scheduling pass is currently visiting (-1 before
        #: the first visit, None outside a pass); reads through and
        #: evictions from the batch path consult it to replicate
        #: ascending visit order
        self._pass_cursor: Optional[int] = None
        #: batched accounting arrays, attached by the kernel when
        #: vectorized accounting is enabled
        self._acct = None
        #: bumped whenever the set of occupied/queued CPUs changes;
        #: part of the iowait attribution cache key
        self._occ_epoch: int = 0
        #: (epoch key, [HWTState]) — CPUs currently accruing iowait,
        #: reused across ticks while the key holds
        self._iowait_cache: Optional[tuple] = None
        #: the machine's full PU set, computed once (the topology is
        #: immutable after construction; spawn/affinity validation is
        #: against this cached copy)
        self.machine_cpuset = machine.cpuset()
        self.hwts: dict[int, HWTState] = {
            cpu: HWTState(cpu, self) for cpu in self.machine_cpuset
        }
        self.memory = MemoryAccounting(machine.memory_bytes)
        #: SMT sibling lanes per CPU (excluding the CPU itself)
        self.smt_siblings: dict[int, tuple[int, ...]] = {}
        for core in machine.cores():
            lanes = tuple(core.cpuset())
            for cpu in lanes:
                self.smt_siblings[cpu] = tuple(c for c in lanes if c != cpu)
        self.gpus: list[GpuDevice] = [GpuDevice(info) for info in machine.gpus]
        self.io = IoSubsystem()
        self.processes: dict[int, "SimProcess"] = {}

    def _cpu_activated(self, cpu: int) -> None:
        """Active-set registration hook (called by HWTState)."""
        self.active_cpus.add(cpu)
        self.scan_cpus.add(cpu)
        self._occ_epoch += 1
        if self._activation_watch is not None:
            heapq.heappush(self._activation_watch, cpu)

    def _cpu_deactivated(self, cpu: int) -> None:
        """Active-set removal hook (called by HWTState)."""
        self.active_cpus.discard(cpu)
        self.scan_cpus.discard(cpu)
        self._occ_epoch += 1

    def hwt(self, os_index: int) -> HWTState:
        """Scheduler state for one CPU."""
        try:
            return self.hwts[os_index]
        except KeyError:
            raise SchedulerError(
                f"node {self.hostname} has no CPU {os_index}"
            ) from None

    def gpu(self, physical_index: int) -> "GpuDevice":
        """Device by hardware index."""
        for dev in self.gpus:
            if dev.info.physical_index == physical_index:
                return dev
        raise SchedulerError(
            f"node {self.hostname} has no GPU {physical_index}"
        )

    def __repr__(self) -> str:
        return (
            f"<SimNode {self.hostname} cpus={len(self.hwts)} "
            f"gpus={len(self.gpus)} procs={len(self.processes)}>"
        )
