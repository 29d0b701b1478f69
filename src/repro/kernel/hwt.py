"""Per-hardware-thread scheduler state and jiffy accounting.

Each :class:`HWTState` mirrors one ``cpuN`` line of ``/proc/stat``:
user / nice / system / idle / iowait counters in jiffies, plus the
runqueue the simulated scheduler maintains for it.

The HWT is also the unit of the kernel's *active set*: a CPU is active
exactly while it has a current occupant or a non-empty runqueue, and it
registers itself with its owning :class:`~repro.kernel.node.SimNode` on
every transition.  The scheduler's per-tick loop walks only active CPUs
(a Frontier node has 128 hardware threads, most of them idle in any
given tick), so fully idle CPUs cost the simulation nothing — their
idle jiffies are derived, not stored (see :meth:`idle_at`).
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    from repro.kernel.lwp import LWP
    from repro.kernel.node import SimNode

__all__ = ["HWTState"]


class HWTState:
    """Runqueue + accounting for one hardware thread (logical CPU)."""

    __slots__ = (
        "os_index",
        "runqueue",
        "_current",
        "_user",
        "nice",
        "_system",
        "iowait",
        "irq",
        "softirq",
        "preempt_pending",
        "busy_prev",
        "node",
        "_active",
        "_acct",
        "_acct_slot",
    )

    def __init__(self, os_index: int, node: Optional["SimNode"] = None):
        self.os_index = os_index
        #: owning node, for active-set registration (None in unit tests)
        self.node = node
        #: whether this CPU currently sits in the node's active set
        self._active: bool = False
        #: set when a wakeup placed a thread here that should preempt
        self.preempt_pending: bool = False
        #: whether this lane executed work last tick (SMT throughput model)
        self.busy_prev: bool = False
        #: runnable LWPs waiting for this CPU (excludes ``current``)
        self.runqueue: deque["LWP"] = deque()
        self._current: Optional["LWP"] = None
        self._user: float = 0.0
        self.nice: float = 0.0
        self._system: float = 0.0
        self.iowait: float = 0.0
        self.irq: float = 0.0
        self.softirq: float = 0.0
        #: batched-accounting enrollment (see repro.kernel.soa); while
        #: set, ``_user``/``_system`` live in the arrays: the getters
        #: read through them, the setters evict this CPU first
        self._acct = None
        self._acct_slot: int = -1

    # -- active-set bookkeeping -------------------------------------------
    def _activate(self) -> None:
        if not self._active:
            self._active = True
            if self.node is not None:
                self.node._cpu_activated(self.os_index)

    def _deactivate_if_idle(self) -> None:
        if self._active and self._current is None and not self.runqueue:
            self._active = False
            if self.node is not None:
                self.node._cpu_deactivated(self.os_index)

    @property
    def current(self) -> Optional["LWP"]:
        """The LWP occupying this CPU this tick, if any."""
        return self._current

    @current.setter
    def current(self, lwp: Optional["LWP"]) -> None:
        if self._acct is not None:
            self._acct.evict_hwt(self)
        self._current = lwp
        if lwp is not None:
            self._activate()
        else:
            self._deactivate_if_idle()

    @property
    def user(self) -> float:
        """User jiffies (read through the batch arrays while enrolled)."""
        acct = self._acct
        if acct is None:
            return self._user
        return acct.read(acct._hus, acct._uf, self._acct_slot)

    @user.setter
    def user(self, value: float) -> None:
        if self._acct is not None:
            self._acct.evict_hwt(self)
        self._user = value

    @property
    def system(self) -> float:
        """System jiffies (read through the batch arrays while enrolled)."""
        acct = self._acct
        if acct is None:
            return self._system
        return acct.read(acct._hsy, acct._sf, self._acct_slot)

    @system.setter
    def system(self, value: float) -> None:
        if self._acct is not None:
            self._acct.evict_hwt(self)
        self._system = value

    @property
    def nr_running(self) -> int:
        """Runqueue depth including the currently running LWP."""
        return len(self.runqueue) + (1 if self._current is not None else 0)

    @property
    def busy_jiffies(self) -> float:
        return self.user + self.nice + self.system + self.irq + self.softirq

    def idle_at(self, now: int) -> float:
        """Idle jiffies are derived, not stored: every elapsed tick the
        CPU was not busy, it was idle — so fully idle CPUs cost the
        simulation loop nothing."""
        return max(0.0, now - self.busy_jiffies - self.iowait)

    def enqueue(self, lwp: "LWP", front: bool = False) -> None:
        """Queue a runnable thread on this CPU."""
        if self._acct is not None:
            self._acct.evict_hwt(self)
        if front:
            self.runqueue.appendleft(lwp)
        else:
            self.runqueue.append(lwp)
        lwp.cur_cpu = self.os_index
        self._activate()

    def dequeue(self, lwp: "LWP") -> None:
        """Remove a thread from the runqueue if queued."""
        try:
            self.runqueue.remove(lwp)
        except ValueError:
            pass
        self._deactivate_if_idle()

    def __repr__(self) -> str:
        cur = self._current.tid if self._current else None
        return f"<HWT {self.os_index} running={cur} queued={len(self.runqueue)}>"
