"""Shared physical units and kernel constants.

The simulator follows Linux conventions so that the same parsing and
reporting code works against both the simulated ``/proc`` and a real one:

* CPU time is accounted in *jiffies*; ``USER_HZ = 100`` so one jiffy is
  10 ms, exactly what ``/proc/stat`` and ``/proc/<pid>/stat`` report.
* Memory sizes in ``/proc/meminfo`` and ``VmRSS``/``VmSize`` lines are in
  KiB.
* The simulator clock ticks once per jiffy.
"""

from __future__ import annotations

#: Kernel clock ticks per second, as in ``sysconf(_SC_CLK_TCK)``.
USER_HZ: int = 100

#: Seconds per jiffy.
JIFFY_SECONDS: float = 1.0 / USER_HZ

KIB: int = 1024
MIB: int = 1024 * KIB
GIB: int = 1024 * MIB

#: Linux page size assumed by the page-fault and RSS accounting.
PAGE_SIZE: int = 4096


def pages(nbytes: int) -> int:
    """Number of whole pages needed to back ``nbytes`` of memory."""
    return -(-nbytes // PAGE_SIZE)
