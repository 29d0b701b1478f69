"""Light-weight processes (threads) and their accounting state.

An LWP carries exactly the counters that ``/proc/<pid>/task/<tid>/stat``
and ``status`` expose and that ZeroSum samples: user/system jiffies,
voluntary and non-voluntary context switches, minor/major page faults,
current state letter, the CPU last executed on, and the affinity mask.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Generator, Optional

from repro.kernel.directives import Directive
from repro.topology.cpuset import CpuSet

if TYPE_CHECKING:
    from repro.kernel.process import SimProcess

__all__ = ["ThreadState", "ThreadRole", "LWP", "Behavior"]

#: The generator type applications provide for each thread.
Behavior = Generator[Directive, object, None]


class ThreadState(enum.Enum):
    """Subset of Linux task states as shown in /proc."""

    RUNNING = "R"  # running or runnable
    SLEEPING = "S"  # interruptible sleep
    DISK = "D"  # uninterruptible sleep
    STOPPED = "T"
    ZOMBIE = "Z"
    DEAD = "X"


class ThreadRole(enum.Enum):
    """Thread classification used in ZeroSum's LWP report."""

    MAIN = "Main"
    ZEROSUM = "ZeroSum"
    OPENMP = "OpenMP"
    GPU = "GPU"
    MPI = "MPI"
    OTHER = "Other"


_ROLE_ORDER = [
    ThreadRole.MAIN,
    ThreadRole.ZEROSUM,
    ThreadRole.OPENMP,
    ThreadRole.GPU,
    ThreadRole.MPI,
    ThreadRole.OTHER,
]


class LWP:
    """One simulated thread."""

    def __init__(
        self,
        tid: int,
        process: "SimProcess",
        behavior: Behavior,
        name: str = "",
        affinity: Optional[CpuSet] = None,
        roles: Optional[set[ThreadRole]] = None,
        daemon: bool = False,
        start_tick: int = 0,
    ):
        self.tid = tid
        self.process = process
        self.behavior = behavior
        self.name = name or f"lwp-{tid}"
        #: allowed CPUs; defaults to the owning process's cpuset
        self.affinity: CpuSet = affinity if affinity is not None else process.cpuset
        self.roles: set[ThreadRole] = roles or {ThreadRole.OTHER}
        #: daemon threads (monitors, helpers) do not keep the sim alive
        self.daemon = daemon
        self.start_tick = start_tick
        self.exit_tick: Optional[int] = None

        # -- scheduling state --
        #: registered owner notified on every state transition; the
        #: kernel uses it to keep O(1) alive/runnable counts so the run
        #: loop never rescans ``kernel.lwps``
        self._state_watcher = None
        self._state = ThreadState.RUNNING  # runnable
        self.cur_cpu: Optional[int] = None  # runqueue assignment
        self.last_cpu: int = self.affinity.first() if self.affinity else 0
        self.current_directive: Optional[Directive] = None
        self.slice_left: int = 0
        self.pending_send: object = None  # value to send() into behavior
        self.wake_tick: Optional[int] = None  # timer deadline while sleeping

        # -- accounting (float jiffies; floored at the procfs boundary) --
        self._utime: float = 0.0
        self._stime: float = 0.0
        self.vcsw: int = 0  # voluntary context switches
        self.nvcsw: int = 0  # non-voluntary context switches
        self.minflt: int = 0
        self.majflt: int = 0
        self.migrations: int = 0
        #: per-CPU jiffy histogram (for contention analysis)
        self._cpu_jiffies: dict[int, float] = {}
        #: batched-accounting enrollment (see repro.kernel.soa); while
        #: set, the jiffy counters live in the node arrays: the
        #: utime/stime getters read through them, any other access
        #: through the public properties evicts this thread
        self._acct = None
        self._acct_slot: int = -1

    # -- classification ---------------------------------------------------
    def role_label(self) -> str:
        """Report label like ``"Main, OpenMP"`` (Listing 2 order)."""
        names = [r.value for r in _ROLE_ORDER if r in self.roles]
        return ", ".join(names) if names else ThreadRole.OTHER.value

    def add_role(self, role: ThreadRole) -> None:
        """Tag the thread (clears the default Other role)."""
        self.roles.add(role)
        if role is not ThreadRole.OTHER:
            self.roles.discard(ThreadRole.OTHER)

    # -- state helpers ----------------------------------------------------
    @property
    def state(self) -> ThreadState:
        return self._state

    @state.setter
    def state(self, new: ThreadState) -> None:
        old = self._state
        self._state = new
        if self._state_watcher is not None and new is not old:
            self._state_watcher.on_state_change(self, old, new)

    @property
    def alive(self) -> bool:
        return self.state not in (ThreadState.ZOMBIE, ThreadState.DEAD)

    @property
    def runnable(self) -> bool:
        return self.state is ThreadState.RUNNING

    @property
    def blocked(self) -> bool:
        return self.state in (ThreadState.SLEEPING, ThreadState.DISK)

    @property
    def utime(self) -> float:
        """User jiffies (read through the batch arrays while enrolled)."""
        acct = self._acct
        if acct is None:
            return self._utime
        return acct.read(acct._lut, acct._uf, self._acct_slot)

    @utime.setter
    def utime(self, value: float) -> None:
        if self._acct is not None:
            self._acct.evict_lwp(self)
        self._utime = value

    @property
    def stime(self) -> float:
        """System jiffies (read through the batch arrays while enrolled)."""
        acct = self._acct
        if acct is None:
            return self._stime
        return acct.read(acct._lst, acct._sf, self._acct_slot)

    @stime.setter
    def stime(self, value: float) -> None:
        if self._acct is not None:
            self._acct.evict_lwp(self)
        self._stime = value

    @property
    def cpu_jiffies(self) -> dict[int, float]:
        """Per-CPU jiffy histogram (evicts from the batch path first)."""
        if self._acct is not None:
            self._acct.evict_lwp(self)
        return self._cpu_jiffies

    @cpu_jiffies.setter
    def cpu_jiffies(self, value: dict[int, float]) -> None:
        if self._acct is not None:
            self._acct.evict_lwp(self)
        self._cpu_jiffies = value

    def charge(self, cpu: int, jiffies: float, user_frac: float) -> None:
        """Account one executed slice on ``cpu``."""
        if self._acct is not None:
            self._acct.evict_lwp(self)
        if cpu != self.last_cpu:
            self.migrations += 1
        self._utime += jiffies * user_frac
        self._stime += jiffies * (1.0 - user_frac)
        self.last_cpu = cpu
        self._cpu_jiffies[cpu] = self._cpu_jiffies.get(cpu, 0.0) + jiffies

    @property
    def total_jiffies(self) -> float:
        return self.utime + self.stime

    def __repr__(self) -> str:
        return (
            f"<LWP {self.tid} {self.role_label()} state={self.state.value} "
            f"cpu={self.last_cpu} affinity={self.affinity.to_list()!r}>"
        )
