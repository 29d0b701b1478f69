"""The ``ProcReader`` seam: one textual ``/proc`` interface, any substrate.

Every collector in :mod:`repro.collect.collectors` is written against
this two-method protocol — ``read`` a file, ``listdir`` a directory,
both addressed by canonical ``/proc/...`` paths.  Two implementations
exist:

* the simulated :class:`repro.procfs.filesystem.ProcFS`, which renders
  kernel text formats from simulator state and satisfies the protocol
  natively;
* :class:`RealProc` below, plain ``os.open``/``os.read`` system calls
  on the host kernel's ``/proc`` (or any copied tree, for tests and
  trace capture).

Because both speak the same paths and raise the same
:class:`~repro.errors.ProcFSError`, the parsers and collectors are
invoked from exactly one place regardless of substrate — the paper's
§3.1/§3.5 claim that one monitoring pipeline runs unchanged anywhere.

The protocol is two-tier.  Every reader speaks the textual tier
(``read``/``listdir``).  A reader that *owns* structured state — the
simulated ``ProcFS`` — may additionally implement the **snapshot
tier** (:class:`SnapshotProcReader`): ``read_tasks_raw(pid)``,
``read_cpu_times_raw(cpus)`` and ``read_memory_raw(pid)`` return parsed
counter records directly, letting collectors skip the
render-text-then-reparse round trip.  The tier is scoped to what the
caller watches — one process's threads, the CPUs of one
``Cpus_allowed_list``, no aggregate ``cpu`` row, the six integers of
``meminfo`` + ``status`` + ``io`` the memory series keeps — so eight
ranks on a 128-HWT node pay for 8 x 7 rows per period, not 8 x 128.
Collectors probe for the tier with ``getattr`` and silently fall back
to text, so :class:`RealProc` (and any trace reader) needs no changes.
The text tier is the oracle: both are contractually bit-identical —
enforced by ``tests/collect/test_reader_contract.py``.
"""

from __future__ import annotations

import errno
import os
from pathlib import Path
from typing import Protocol, runtime_checkable

from repro.errors import ProcFSError
from repro.procfs.parsers import CpuTimes, MemoryCounters, TaskCounters

__all__ = ["ProcReader", "SnapshotProcReader", "RealProc", "TaskCounters"]


@runtime_checkable
class ProcReader(Protocol):
    """What a collector needs from any ``/proc`` substrate."""

    def read(self, path: str) -> str:
        """Return the text of one ``/proc/...`` file."""
        ...

    def listdir(self, path: str) -> list[str]:
        """List the entries of one ``/proc/...`` directory."""
        ...


@runtime_checkable
class SnapshotProcReader(ProcReader, Protocol):
    """Optional fast tier: structured counters without text rendering.

    Implementations must return exactly what parsing the textual tier
    would yield — integer-floored jiffies, string-sorted task order —
    for what was asked, at a cost that does not grow with the node.
    """

    def read_tasks_raw(self, pid: int | str) -> list[TaskCounters]:
        """Counters for each live thread of ``pid``, in listdir order."""
        ...

    def read_cpu_times_raw(self, cpus) -> dict[int, CpuTimes]:
        """Jiffies of each CPU in ``cpus`` by OS index; unknown CPUs absent."""
        ...

    def read_memory_raw(self, pid: int | str) -> MemoryCounters:
        """MemTotal/MemFree/MemAvailable, ``pid``'s VmRSS and I/O, in KiB."""
        ...


#: bytes asked of one ``os.read``; larger files take several
_READ_CHUNK = 65536


class RealProc:
    """``ProcReader`` over a real ``/proc`` tree via raw system calls.

    ``root`` defaults to the host kernel's ``/proc`` but may point at
    any directory with the same layout (a bind mount, a test fixture,
    a captured snapshot).  Canonical ``/proc/...`` paths are re-rooted
    onto it, so collectors never know the difference.

    File bytes are decoded as UTF-8 with ``backslashreplace``: a thread
    may carry any bytes in its ``comm`` (``prctl(PR_SET_NAME)``), and a
    name must neither fail the read nor become a string the journal
    and the JSON exporters cannot encode again.
    """

    def __init__(self, root: str | Path = "/proc"):
        self.root = Path(root)
        self._root = os.fspath(self.root)

    def _resolve(self, path: str) -> str:
        """Re-root one canonical path; ``..`` may not climb out of root."""
        inside = path.startswith("/proc/") or path == "/proc"
        if not inside or ".." in path.split("/"):
            raise ProcFSError(f"not a /proc path: {path}")
        return self._root + path[5:]

    @staticmethod
    def _wrap(exc: OSError, missing_message: str, path: str) -> ProcFSError:
        """One ProcFSError per OSError, errno preserved.

        ``EACCES`` and ``EIO`` must not masquerade as a missing path —
        the transient/permanent classifier (and users) need to tell a
        vanished thread from a permission or I/O problem.
        """
        if exc.errno in (errno.ENOENT, errno.ESRCH, errno.ENOTDIR):
            message = f"{missing_message}: {path}"
        else:
            detail = (
                os.strerror(exc.errno) if exc.errno is not None else str(exc)
            )
            message = f"{detail}: {path}"
        return ProcFSError(message, errno=exc.errno)

    def read(self, path: str) -> str:
        """Read one file; OS errors raise ProcFSError, errno preserved."""
        try:
            fd = os.open(self._resolve(path), os.O_RDONLY)
            try:
                # procfs may return less than asked: only b"" is EOF
                chunks = []
                while chunk := os.read(fd, _READ_CHUNK):
                    chunks.append(chunk)
            finally:
                os.close(fd)
        except OSError as exc:
            raise self._wrap(exc, "no such file", path) from exc
        return b"".join(chunks).decode("utf-8", "backslashreplace")

    def listdir(self, path: str) -> list[str]:
        """List one directory; OS errors raise ProcFSError with errno."""
        try:
            return sorted(os.listdir(self._resolve(path)))
        except OSError as exc:
            raise self._wrap(exc, "no such directory", path) from exc
