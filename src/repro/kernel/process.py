"""Simulated processes.

A :class:`SimProcess` owns threads, a cpuset (what the launcher allowed
via cgroups/sched_setaffinity), an environment block (OpenMP reads it),
memory accounting, and optional MPI identity.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.topology.cpuset import CpuSet
from repro.units import pages

if TYPE_CHECKING:
    from repro.kernel.lwp import LWP
    from repro.kernel.node import SimNode

__all__ = ["SimProcess"]


class SimProcess:
    """One simulated OS process on one node."""

    def __init__(
        self,
        pid: int,
        node: "SimNode",
        cpuset: CpuSet,
        command: str = "a.out",
        env: Optional[dict[str, str]] = None,
        rank: Optional[int] = None,
    ):
        self.pid = pid
        self.node = node
        self.cpuset = cpuset
        self.command = command
        self.env: dict[str, str] = dict(env or {})
        #: MPI world rank, if this process is part of an MPI job
        self.rank: Optional[int] = rank
        self.world_size: Optional[int] = None

        self.threads: dict[int, "LWP"] = {}
        self.rss_bytes: int = 0
        self.vm_bytes: int = 0
        self.peak_rss_bytes: int = 0
        self.exit_code: Optional[int] = None
        self.oom_killed: bool = False
        # filesystem counters (/proc/<pid>/io)
        self.read_bytes: int = 0
        self.write_bytes: int = 0
        self.read_syscalls: int = 0
        self.write_syscalls: int = 0

    # -- threads -----------------------------------------------------------
    def add_thread(self, lwp: "LWP") -> None:
        """Register a thread with the process."""
        self.threads[lwp.tid] = lwp

    @property
    def main_thread(self) -> "LWP":
        # the main thread's TID equals the PID, like on Linux
        return self.threads[self.pid]

    def live_threads(self) -> list["LWP"]:
        """Threads that have not exited."""
        return [t for t in self.threads.values() if t.alive]

    @property
    def num_threads(self) -> int:
        return len(self.live_threads())

    @property
    def alive(self) -> bool:
        return self.exit_code is None and any(t.alive for t in self.threads.values())

    # -- memory -----------------------------------------------------------
    def allocate(self, nbytes: int) -> int:
        """Grow RSS; returns the number of minor faults incurred."""
        self.rss_bytes += nbytes
        self.vm_bytes += nbytes
        self.peak_rss_bytes = max(self.peak_rss_bytes, self.rss_bytes)
        return pages(nbytes)

    def free(self, nbytes: int) -> None:
        """Shrink RSS (clamped at zero)."""
        self.rss_bytes = max(0, self.rss_bytes - nbytes)

    def __repr__(self) -> str:
        rank = f" rank={self.rank}" if self.rank is not None else ""
        return (
            f"<SimProcess pid={self.pid}{rank} threads={self.num_threads} "
            f"cpus={self.cpuset.to_list()!r}>"
        )
