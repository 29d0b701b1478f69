"""Parsers for ``/proc`` text formats.

These are the *collector-side* parsers of the ZeroSum reproduction.
They are deliberately written against the kernel's documented formats
(proc(5)) rather than against our renderers, and they are exercised
both on simulated content and on the real ``/proc`` of the host by
:mod:`repro.live`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

from repro.errors import ProcParseError
from repro.topology.cpuset import CpuSet

__all__ = [
    "TaskIo",
    "parse_pid_io",
    "TaskStat",
    "TaskStatus",
    "TaskCounters",
    "CpuTimes",
    "parse_pid_stat",
    "parse_pid_status",
    "parse_proc_stat",
    "parse_meminfo",
    "parse_uptime",
]


# TaskStat and TaskStatus are built once per thread per sample; a frozen
# dataclass's __init__ costs ~1 us more each, a third of parse_pid_stat
@dataclass
class TaskStat:
    """Fields of ``/proc/<pid>/task/<tid>/stat`` used by the monitor."""

    pid: int
    comm: str
    state: str
    minflt: int
    majflt: int
    utime: int
    stime: int
    num_threads: int
    starttime: int
    vsize: int
    rss_pages: int
    processor: int


@dataclass
class TaskStatus:
    """Fields of ``/proc/<pid>/task/<tid>/status`` used by the monitor."""

    name: str
    state: str
    tgid: int
    pid: int
    vm_rss_kib: int
    vm_size_kib: int
    threads: int
    cpus_allowed: CpuSet
    voluntary_ctxt_switches: int
    nonvoluntary_ctxt_switches: int


@dataclass(frozen=True)
class TaskCounters:
    """One thread's sampled counters, independent of text formats.

    This is the record of the **snapshot fast path**: a reader that
    can answer structured queries (the simulated ``ProcFS``) hands
    these to the LWP collector directly, skipping the render-text/
    re-parse round trip of ``stat`` + ``status``.  Field values are
    defined to be *exactly* what parsing the rendered text would
    yield — integer-floored jiffies, one-letter state, the trimmed
    ``comm`` — so both paths produce identical samples (enforced by
    the reader contract tests).
    """

    tid: int
    comm: str
    state: str  # one-letter task state, as in /proc/<pid>/stat
    utime: int
    stime: int
    minflt: int
    majflt: int
    vcsw: int
    nvcsw: int
    processor: int
    affinity: CpuSet


@dataclass(frozen=True)
class TaskIo:
    """Fields of ``/proc/<pid>/io``."""

    rchar: int
    wchar: int
    syscr: int
    syscw: int
    read_bytes: int
    write_bytes: int


def parse_pid_io(text: str) -> TaskIo:
    """Parse /proc/<pid>/io counters."""
    fields: dict[str, int] = {}
    for line in text.splitlines():
        if ":" not in line:
            continue
        key, _, value = line.partition(":")
        try:
            fields[key.strip()] = int(value.strip())
        except ValueError:
            continue
    try:
        return TaskIo(
            rchar=fields.get("rchar", 0),
            wchar=fields.get("wchar", 0),
            syscr=fields.get("syscr", 0),
            syscw=fields.get("syscw", 0),
            read_bytes=fields["read_bytes"],
            write_bytes=fields["write_bytes"],
        )
    except KeyError as exc:
        raise ProcParseError(f"io file missing field {exc}") from exc


@dataclass(frozen=True)
class CpuTimes:
    """One ``cpuN`` line of ``/proc/stat`` (jiffies)."""

    cpu: int  # -1 for the aggregate "cpu" line
    user: int
    nice: int
    system: int
    idle: int
    iowait: int
    irq: int
    softirq: int
    steal: int

    @property
    def busy(self) -> int:
        return self.user + self.nice + self.system + self.irq + self.softirq

    @property
    def total(self) -> int:
        return self.busy + self.idle + self.iowait + self.steal


def parse_pid_stat(text: str) -> TaskStat:
    """Parse a stat line; the comm field may contain spaces and parens."""
    lparen = text.find("(")
    rparen = text.rfind(")")
    if lparen < 0 or rparen < 0:
        raise ProcParseError(f"malformed stat line: {text.strip()[:80]!r}")
    # rest[0] is field 3 (state); field N lives at rest[N - 3]
    rest = text[rparen + 1 :].split(None, 37)
    if len(rest) < 37:
        raise ProcParseError(f"stat line has only {len(rest) + 2} fields")
    try:
        return TaskStat(
            pid=int(text[:lparen]),
            comm=text[lparen + 1 : rparen],
            state=rest[0],
            minflt=int(rest[7]),
            majflt=int(rest[9]),
            utime=int(rest[11]),
            stime=int(rest[12]),
            num_threads=int(rest[17]),
            starttime=int(rest[19]),
            vsize=int(rest[20]),
            rss_pages=int(rest[21]),
            processor=int(rest[36]),
        )
    except ValueError as exc:
        raise ProcParseError(
            f"unparsable stat line: {text.strip()[:80]!r}"
        ) from exc


#: the status lines TaskStatus carries, each anchored at its line start
_STATUS_FIELD = re.compile(
    r"\n(Name|State|Tgid|Pid|VmRSS|VmSize|Threads|Cpus_allowed_list|Cpus_allowed"
    r"|voluntary_ctxt_switches|nonvoluntary_ctxt_switches):(.*)"
)

#: a process has a handful of distinct masks; CpuSet is immutable
_cpus_from_list = lru_cache(maxsize=64)(CpuSet.from_list)


def parse_pid_status(text: str) -> TaskStatus:
    """Parse the key/value fields of /proc/<pid>/status.

    Only the lines :class:`TaskStatus` carries are looked at, in
    whatever order they come; of a repeated key the last line counts.
    """
    fields = dict(_STATUS_FIELD.findall("\n" + text))
    cpus = fields.get("Cpus_allowed_list")
    if cpus is not None:
        allowed = _cpus_from_list(cpus)
    elif "Cpus_allowed" in fields:
        allowed = CpuSet.from_mask(fields["Cpus_allowed"])
    else:
        allowed = CpuSet()
    try:
        return TaskStatus(
            name=fields.get("Name", "?").strip(),
            state=fields["State"].split()[0],
            tgid=int(fields["Tgid"]),
            pid=int(fields["Pid"]),
            vm_rss_kib=int(fields.get("VmRSS", "0").split()[0]),
            vm_size_kib=int(fields.get("VmSize", "0").split()[0]),
            threads=int(fields["Threads"]),
            cpus_allowed=allowed,
            voluntary_ctxt_switches=int(fields.get("voluntary_ctxt_switches", 0)),
            nonvoluntary_ctxt_switches=int(
                fields.get("nonvoluntary_ctxt_switches", 0)
            ),
        )
    except KeyError as exc:
        raise ProcParseError(f"status missing field {exc}") from exc
    except (IndexError, ValueError) as exc:
        raise ProcParseError(f"bad value in status: {exc}") from exc


def parse_proc_stat(text: str) -> dict[int, CpuTimes]:
    """Parse all cpu lines; key ``-1`` holds the aggregate."""
    result: dict[int, CpuTimes] = {}
    for line in text.splitlines():
        if not line.startswith("cpu"):
            continue
        parts = line.split()
        label = parts[0]
        cpu = -1 if label == "cpu" else int(label[3:])
        vals = [int(v) for v in parts[1:9]]
        while len(vals) < 8:
            vals.append(0)
        result[cpu] = CpuTimes(cpu, *vals)
    if not result:
        raise ProcParseError("no cpu lines found in /proc/stat content")
    return result


def parse_meminfo(text: str) -> dict[str, int]:
    """Parse meminfo into a dict of KiB values."""
    result: dict[str, int] = {}
    for line in text.splitlines():
        if ":" not in line:
            continue
        key, _, value = line.partition(":")
        parts = value.split()
        if not parts:
            continue
        try:
            result[key.strip()] = int(parts[0])
        except ValueError:
            continue
    if "MemTotal" not in result:
        raise ProcParseError("meminfo missing MemTotal")
    return result


def parse_uptime(text: str) -> tuple[float, float]:
    """Parse /proc/uptime into (uptime, idle) seconds."""
    parts = text.split()
    if len(parts) < 2:
        raise ProcParseError(f"malformed uptime: {text!r}")
    return float(parts[0]), float(parts[1])
