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
  :class:`ProcFS` offers :meth:`read_tasks_raw` and
  :meth:`read_cpu_times_raw`, which hand collectors structured
  counters directly and skip the render-text-then-reparse round trip.
  Each is scoped to what its caller watches — one process's threads,
  one CPU set — so a rank's sample costs what the rank observes, not
  what the node has.  The values are floored and trimmed exactly as
  the renderers would, so both paths yield bit-identical samples (see
  the reader contract tests; the text tier is the oracle).  Real
  ``/proc`` readers simply do not implement these methods.
"""

from __future__ import annotations

from repro.errors import ProcFSError
from repro.kernel.node import SimNode
from repro.kernel.scheduler import SimKernel
from repro.procfs import formats
from repro.procfs.parsers import CpuTimes, TaskCounters

__all__ = ["ProcFS"]

_PID_DIR_ENTRIES = ["stat", "status", "task", "cmdline", "io"]


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

        pid = self._resolve_pid(head)
        proc = self.node.processes.get(pid)
        lwp = None
        if proc is None:
            # maybe a tid addressed directly (Linux allows /proc/<tid>)
            lwp = self.kernel.lwps.get(pid)
            if lwp is None or lwp.process.node is not self.node:
                raise ProcFSError(f"no such process: {pid}")
            proc = lwp.process
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
        alive = [(str(tid), lwp) for tid, lwp in proc.threads.items() if lwp.alive]
        alive.sort(key=lambda item: item[0])
        return [
            TaskCounters(
                tid=lwp.tid,
                comm=comm,
                state=lwp.state.value,
                utime=int(lwp.utime),
                stime=int(lwp.stime),
                minflt=lwp.minflt,
                majflt=lwp.majflt,
                vcsw=lwp.vcsw,
                nvcsw=lwp.nvcsw,
                processor=lwp.last_cpu,
                affinity=lwp.affinity,
            )
            for _, lwp in alive
        ]

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
            if h is not None:
                result[cpu] = CpuTimes(
                    cpu,
                    int(h.user),
                    int(h.nice),
                    int(h.system),
                    int(h.idle_at(now)),
                    int(h.iowait),
                    int(h.irq),
                    int(h.softirq),
                    0,  # steal
                )
        return result

    def _mask_words(self) -> int:
        ncpus = max(self.node.hwts) + 1 if self.node.hwts else 1
        return (ncpus + 31) // 32
