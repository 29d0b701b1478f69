"""The simulated ``/proc`` virtual filesystem facade.

ZeroSum's collector is written against *paths*: it reads
``/proc/stat``, ``/proc/meminfo``, lists ``/proc/<pid>/task`` and reads
each task's ``stat``/``status``.  :class:`ProcFS` answers those reads
from simulator state, rendering real kernel text formats on the fly,
so the monitor code is substrate-agnostic (see :mod:`repro.live` for
the real-/proc twin).

Two performance-minded design points:

* **Path router.**  Reads are routed by splitting the path once and
  dispatching top-level files through a dict built at construction —
  no regex engine runs on the per-sample hot path.
* **Snapshot fast path.**  Beyond the textual ``ProcReader`` protocol,
  :class:`ProcFS` offers :meth:`read_tasks_raw`,
  :meth:`read_cpu_times_raw` and :meth:`read_memory_raw`, which hand
  collectors structured counters directly and skip the
  render-text-then-reparse round trip.  Each is scoped to what its
  caller watches — one process's threads, one CPU set, the node's
  memory plus one process's RSS and I/O — so a rank's sample costs
  what the rank observes, not what the node has.  The values are
  floored and trimmed exactly as the renderers would, so both paths
  yield bit-identical samples (see the reader contract tests; the text
  tier is the oracle).  Real ``/proc`` readers simply do not implement
  these methods.
"""

from __future__ import annotations

from repro.errors import ProcFSError
from repro.kernel.lwp import ThreadState
from repro.kernel.node import SimNode
from repro.kernel.scheduler import SimKernel
from repro.procfs import formats
from repro.procfs.parsers import CpuTimes, MemoryCounters, TaskCounters
from repro.units import KIB

__all__ = ["ProcFS"]

_PID_DIR_ENTRIES = ["stat", "status", "task", "cmdline", "io"]
#: task states /proc no longer lists
_ZOMBIE, _DEAD = ThreadState.ZOMBIE, ThreadState.DEAD


def _is_id(text: str) -> bool:
    """A pid/tid path component: ASCII digits (isdecimal alone takes ٣)."""
    return text.isascii() and text.isdecimal()


class ProcFS:
    """Read-only view of one node's ``/proc``."""

    def __init__(self, kernel: SimKernel, node: SimNode, self_pid: int | None = None):
        self.kernel = kernel
        self.node = node
        #: pid that the alias ``/proc/self`` resolves to
        self.self_pid = self_pid
        # precompiled router for the top-level files
        self._top_router = {
            "stat": self._render_proc_stat,
            "meminfo": self._render_meminfo,
            "uptime": self._render_uptime,
        }

    # -- top-level renderers ----------------------------------------------
    def _render_proc_stat(self) -> str:
        return formats.render_proc_stat(self.node, self.kernel.now)

    def _render_meminfo(self) -> str:
        return formats.render_meminfo(self.node)

    def _render_uptime(self) -> str:
        total_idle = sum(h.idle_at(self.kernel.now) for h in self.node.hwts.values())
        return formats.render_uptime(self.kernel.now, total_idle)

    # -- path resolution --------------------------------------------------
    def _resolve_pid(self, pid_text: str) -> int:
        if pid_text == "self":
            if self.self_pid is None:
                raise ProcFSError("/proc/self used without a self pid")
            return self.self_pid
        if not _is_id(pid_text):
            raise ProcFSError(f"no such process: {pid_text}")
        return int(pid_text)

    def _process(self, pid_text: str):
        """``(process, lwp)`` of a pid, ``self`` or a tid on this node.

        ``lwp`` is the addressed thread when a tid was given (Linux
        allows ``/proc/<tid>``), else None.
        """
        pid = self._resolve_pid(pid_text)
        proc = self.node.processes.get(pid)
        if proc is not None:
            return proc, None
        lwp = self.kernel.lwps.get(pid)
        if lwp is None or lwp.process.node is not self.node:
            raise ProcFSError(f"no such process: {pid}")
        return lwp.process, lwp

    def read(self, path: str) -> str:
        """Read a /proc file; raises ProcFSError for unknown paths."""
        if not path.startswith("/proc/"):
            raise ProcFSError(f"no such file: {path}")
        head, sep, tail = path[6:].partition("/")
        if not sep:
            render = self._top_router.get(head)
            if render is not None:
                return render()
        if head != "self" and not _is_id(head):
            raise ProcFSError(f"no such file: {path}")

        proc, lwp = self._process(head)
        rest = tail.strip("/")
        parts = rest.split("/") if rest else []

        if not parts:
            raise ProcFSError(f"{path} is a directory")
        if parts == ["stat"]:
            target = lwp if lwp is not None else proc.main_thread
            return formats.render_pid_stat(target, self.kernel.now)
        if parts == ["status"]:
            target = lwp if lwp is not None else proc.main_thread
            return formats.render_pid_status(target, self._mask_words())
        if parts[0] == "task":
            if len(parts) == 1:
                raise ProcFSError(f"{path} is a directory")
            task = proc.threads.get(int(parts[1])) if _is_id(parts[1]) else None
            if task is None:
                raise ProcFSError(f"no task {parts[1]} in process {proc.pid}")
            if len(parts) == 3 and parts[2] == "stat":
                return formats.render_pid_stat(task, self.kernel.now)
            if len(parts) == 3 and parts[2] == "status":
                return formats.render_pid_status(task, self._mask_words())
            raise ProcFSError(f"no such file: {path}")
        if parts == ["io"]:
            return formats.render_pid_io(proc)
        if parts == ["cmdline"]:
            return proc.command + "\x00"
        raise ProcFSError(f"no such file: {path}")

    def listdir(self, path: str) -> list[str]:
        """List a /proc directory (only the ones the monitor needs)."""
        if path.rstrip("/") == "/proc":
            # only live processes are listed, like the real kernel;
            # exited pids remain addressable through read()
            return sorted(
                str(pid) for pid, p in self.node.processes.items() if p.alive
            )
        if not path.startswith("/proc/"):
            raise ProcFSError(f"no such directory: {path}")
        head, sep, tail = path[6:].partition("/")
        if not sep and head in self._top_router:
            raise ProcFSError(f"{path} is not a directory")
        if head != "self" and not _is_id(head):
            raise ProcFSError(f"no such directory: {path}")
        pid = self._resolve_pid(head)
        proc = self.node.processes.get(pid)
        if proc is None:
            raise ProcFSError(f"no such process: {pid}")
        rest = tail.strip("/")
        if rest == "":
            return list(_PID_DIR_ENTRIES)
        if rest == "task":
            # live tasks only, like the real kernel
            return sorted(
                str(tid) for tid, t in proc.threads.items() if t.alive
            )
        raise ProcFSError(f"no such directory: {path}")

    # -- snapshot fast path ------------------------------------------------
    def read_tasks_raw(self, pid: int | str) -> list[TaskCounters]:
        """Structured counters for every live thread of ``pid``.

        Equivalent to ``listdir(/proc/<pid>/task)`` followed by parsing
        each task's ``stat`` + ``status`` — same thread set, same
        (string-sorted) order, same integer flooring of jiffies — but
        without rendering or parsing any text.
        """
        resolved = self._resolve_pid(str(pid))
        proc = self.node.processes.get(resolved)
        if proc is None:
            raise ProcFSError(f"no such process: {resolved}")
        comm = proc.command.split("/")[-1][:15]
        threads = proc.threads
        tasks: list[TaskCounters] = []
        for tid in sorted(threads, key=str):
            lwp = threads[tid]
            state = lwp._state  # once: the state/alive properties re-read it
            if state is _ZOMBIE or state is _DEAD:
                continue
            tasks.append(
                TaskCounters(
                    tid,
                    comm,
                    state.value,
                    int(lwp.utime),
                    int(lwp.stime),
                    lwp.minflt,
                    lwp.majflt,
                    lwp.vcsw,
                    lwp.nvcsw,
                    lwp.last_cpu,
                    lwp.affinity,
                )
            )
        return tasks

    def read_cpu_times_raw(self, cpus) -> dict[int, CpuTimes]:
        """Jiffy counters of the CPUs in ``cpus`` that this node has.

        Per CPU, exactly what parsing its ``cpuN`` line of :meth:`read`
        ``/proc/stat`` yields (same integer flooring), at a cost
        proportional to ``len(cpus)``.  A CPU the node lacks is absent;
        the aggregate ``cpu`` row exists only in the text tier.
        """
        now = self.kernel.now
        hwts = self.node.hwts
        result: dict[int, CpuTimes] = {}
        for cpu in cpus:
            h = hwts.get(cpu)
            if h is None:
                continue
            # each counter read once; idle is HWTState.idle_at's exact
            # float expression over those same reads
            user, system = h.user, h.system
            nice, iowait, irq, softirq = h.nice, h.iowait, h.irq, h.softirq
            idle = max(0.0, now - (user + nice + system + irq + softirq) - iowait)
            result[cpu] = CpuTimes(
                cpu,
                int(user),
                int(nice),
                int(system),
                int(idle),
                int(iowait),
                int(irq),
                int(softirq),
                0,  # steal
            )
        return result

    def read_memory_raw(self, pid: int | str) -> MemoryCounters:
        """Node memory plus ``pid``'s RSS and I/O, in whole KiB.

        Exactly what parsing :meth:`read` of ``/proc/meminfo``
        (MemTotal, MemFree, MemAvailable), ``/proc/<pid>/status``
        (VmRSS) and ``/proc/<pid>/io`` (read_bytes and write_bytes,
        floored to KiB) yields.  ``pid`` resolves as :meth:`read`
        resolves it — ``self`` and a tid included — and an unknown pid
        raises the same :class:`ProcFSError`.
        """
        proc, _ = self._process(str(pid))
        memory = self.node.memory
        return MemoryCounters(
            memory.total_bytes // KIB,
            memory.free_bytes // KIB,
            memory.available_bytes // KIB,
            proc.rss_bytes // KIB,
            proc.read_bytes // KIB,
            proc.write_bytes // KIB,
        )

    def _mask_words(self) -> int:
        ncpus = max(self.node.hwts) + 1 if self.node.hwts else 1
        return (ncpus + 31) // 32
