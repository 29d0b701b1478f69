"""Per-subsystem collectors: the only place ``/proc`` text is parsed.

Each collector owns one subsystem of §3 of the paper — LWPs, hardware
threads, memory, GPUs — including its column schema, its ``/proc``
walk, and its error handling (threads dying mid-sample, files
vanishing).  A collector reads through a
:class:`~repro.collect.reader.ProcReader` and writes into a
:class:`~repro.collect.store.SampleStore`; it knows nothing about
scheduling, substrates, or reports.  The simulated, live, and replay
drivers differ only in which reader and collectors they compose.
"""

from __future__ import annotations

from typing import Protocol

from repro.collect.faults import is_missing
from repro.collect.reader import ProcReader
from repro.collect.store import SampleStore
from repro.core.heartbeat import ThreadSnapshot
from repro.core.records import state_code
from repro.errors import ProcessVanishedError, ProcFSError
from repro.gpu.metrics import METRIC_ORDER
from repro.procfs.parsers import (
    CpuTimes,
    TaskCounters,
    TaskStat,
    TaskStatus,
    parse_meminfo,
    parse_pid_io,
    parse_pid_stat,
    parse_pid_status,
    parse_proc_stat,
)

__all__ = [
    "Collector",
    "LwpCollector",
    "HwtCollector",
    "MemoryCollector",
    "GpuCollector",
    "read_task",
    "read_cpu_times",
    "read_meminfo",
]


def read_task(
    reader: ProcReader, pid: int | str, tid: int
) -> tuple[TaskStat, TaskStatus]:
    """One thread's parsed stat + status through any reader."""
    base = f"/proc/{pid}/task/{tid}"
    stat = parse_pid_stat(reader.read(f"{base}/stat"))
    status = parse_pid_status(reader.read(f"{base}/status"))
    return stat, status


def read_cpu_times(reader: ProcReader) -> dict[int, CpuTimes]:
    """Per-CPU jiffy counters from ``/proc/stat``."""
    return parse_proc_stat(reader.read("/proc/stat"))


def read_meminfo(reader: ProcReader) -> dict[str, int]:
    """``/proc/meminfo`` in KiB."""
    return parse_meminfo(reader.read("/proc/meminfo"))


class Collector(Protocol):
    """One subsystem's sampling step."""

    def collect(self, tick: float) -> list[ThreadSnapshot]:
        """Take one observation; LWP collectors return thread snapshots."""
        ...


class LwpCollector:
    """§3.1: walk ``/proc/<pid>/task`` and record every thread.

    ``missing_process`` selects what a vanished ``task`` directory
    means: the simulated monitor treats it as an empty thread list (the
    process just exited between period boundaries), the live monitor
    gets a :class:`~repro.errors.ProcessVanishedError` — the one
    failure the containment boundary does not absorb, because only the
    driver can decide whether to stop.  A denied or broken ``task``
    directory is *not* a vanished process: it propagates as an
    ordinary containable failure.

    Individual threads that die between ``listdir`` and the reads are
    dropped — the dead-thread race of a real ``/proc`` — and the drop
    is counted in the store's degradation ledger.  Any other per-thread
    failure (a parse error on text that *was* readable) is raised so
    the containment boundary rolls the period back and records it:
    parser bugs must never be swallowed as if a thread had exited.

    When the reader implements the snapshot tier
    (``read_tasks_raw``, see :mod:`repro.collect.reader`) and
    ``snapshots`` is left on, the collector samples through it —
    identical rows, no text rendered or parsed.
    """

    name = "LwpCollector"

    def __init__(
        self,
        reader: ProcReader,
        store: SampleStore,
        pid: int,
        *,
        missing_process: str = "raise",
        snapshots: bool = True,
    ):
        self.reader = reader
        self.store = store
        self.pid = pid
        self.missing_process = missing_process
        self._raw = getattr(reader, "read_tasks_raw", None) if snapshots else None

    def _vanished(self, exc: ProcFSError) -> Exception:
        """Map a failed task-dir access to the right escalation."""
        if self.missing_process != "ignore" and is_missing(exc):
            return ProcessVanishedError(
                f"process {self.pid} vanished: {exc}", errno=exc.errno
            )
        return exc

    def collect(self, tick: float) -> list[ThreadSnapshot]:
        """Sample every live thread of the process."""
        if self._raw is not None:
            try:
                tasks = self._raw(self.pid)
            except ProcFSError as exc:
                if self.missing_process == "ignore":
                    return []
                raise self._vanished(exc) from exc
            return self._stage(tick, tasks)
        try:
            tids = [int(t) for t in self.reader.listdir(f"/proc/{self.pid}/task")]
        except ProcFSError as exc:
            if self.missing_process == "ignore":
                return []
            raise self._vanished(exc) from exc
        tasks: list[TaskCounters] = []
        try:
            for tid in tids:
                try:
                    stat, status = read_task(self.reader, self.pid, tid)
                except ProcFSError as exc:
                    if not is_missing(exc):
                        raise  # denied/broken is a collector failure, not a race
                    self.store.ledger.record_dropped_row(
                        self.name, tick, f"thread {tid} died mid-sample: {exc}"
                    )
                    continue
                tasks.append(
                    TaskCounters(
                        tid,
                        stat.comm,
                        stat.state,
                        stat.utime,
                        stat.stime,
                        stat.minflt,
                        stat.majflt,
                        status.voluntary_ctxt_switches,
                        status.nonvoluntary_ctxt_switches,
                        stat.processor,
                        status.cpus_allowed,
                    )
                )
        finally:  # what was read before a failure is staged, and rolled back
            snapshots = self._stage(tick, tasks)
        return snapshots

    def _stage(self, tick: float, tasks: list[TaskCounters]) -> list[ThreadSnapshot]:
        """Stage the threads' rows as one block; their snapshots."""
        self.store.stage(
            "lwp",
            [t.tid for t in tasks],
            [
                (tick, state_code(t.state), t.utime, t.stime, t.nvcsw, t.vcsw,
                 t.minflt, t.majflt, t.processor)
                for t in tasks
            ],
            [t.comm for t in tasks],
            [t.affinity for t in tasks],
        )
        return [
            ThreadSnapshot(t.tid, t.state, t.utime + t.stime) for t in tasks
        ]


class HwtCollector:
    """§3.2: ``/proc/stat`` restricted to the process's allowed CPUs.

    Uses the reader's snapshot tier (``read_cpu_times_raw``, asked for
    exactly the allowed CPUs) when available and ``snapshots`` is left
    on; falls back to parsing the rendered text otherwise.

    An allowed CPU missing from the parsed counters is a short or torn
    read of ``/proc/stat``, not data: silently skipping it would commit
    a period where the per-CPU series disagree on which ticks exist.
    It raises a (transient) :class:`~repro.errors.ProcFSError` so the
    containment boundary rolls the period back and retries; a CPU that
    stays missing disables the collector with that reason rather than
    recording ragged series.
    """

    name = "HwtCollector"

    def __init__(
        self,
        reader: ProcReader,
        store: SampleStore,
        cpus,
        *,
        snapshots: bool = True,
    ):
        self.reader = reader
        self.store = store
        self.cpus = cpus
        self._raw = getattr(reader, "read_cpu_times_raw", None) if snapshots else None

    def collect(self, tick: float) -> list[ThreadSnapshot]:
        """Record user/system/idle/iowait for each allowed CPU."""
        if self._raw is not None:
            cpu_times = self._raw(self.cpus)
        else:
            cpu_times = read_cpu_times(self.reader)
        cpus: list[int] = []
        rows: list[tuple] = []
        try:
            for cpu in self.cpus:
                times = cpu_times.get(cpu)
                if times is None:
                    raise ProcFSError(
                        f"cpu{cpu} missing from /proc/stat (short read?)"
                    )
                cpus.append(cpu)
                rows.append(
                    (tick, times.user, times.system, times.idle, times.iowait)
                )
        finally:  # what was read before a failure is staged, and rolled back
            self.store.stage("hwt", cpus, rows)
        return []


class MemoryCollector:
    """§3.2: ``/proc/meminfo`` plus the process's own RSS and I/O.

    Uses the reader's snapshot tier (``read_memory_raw``, the six
    integers the row keeps) when available and ``snapshots`` is left
    on; falls back to parsing ``meminfo``, ``status`` and ``io``
    otherwise.  On the text tier an unreadable ``io`` (it needs
    privileges) reads as 0/0, while ``io`` text that was readable and
    does not parse fails the collector.
    """

    name = "MemoryCollector"

    def __init__(
        self,
        reader: ProcReader,
        store: SampleStore,
        pid: int,
        *,
        snapshots: bool = True,
    ):
        self.reader = reader
        self.store = store
        self.pid = pid
        self._raw = getattr(reader, "read_memory_raw", None) if snapshots else None

    def collect(self, tick: float) -> list[ThreadSnapshot]:
        """Record node memory, process RSS, and cumulative I/O."""
        if self._raw is not None:
            counters = self._raw(self.pid)
        else:
            counters = self._read_text()
        self.store.add_row("mem", 0, (tick,) + counters)
        return []

    def _read_text(self) -> tuple[int, ...]:
        """The row's six integers, parsed from the three texts."""
        meminfo = read_meminfo(self.reader)
        self_status = parse_pid_status(
            self.reader.read(f"/proc/{self.pid}/status")
        )
        try:
            io_text = self.reader.read(f"/proc/{self.pid}/io")
        except ProcFSError:
            io_read = io_write = 0  # /proc/<pid>/io needs privileges
        else:  # text that was readable must parse: no swallowed parse errors
            io = parse_pid_io(io_text)
            io_read, io_write = io.read_bytes // 1024, io.write_bytes // 1024
        return (
            meminfo.get("MemTotal", 0),
            meminfo.get("MemFree", 0),
            meminfo.get("MemAvailable", 0),
            self_status.vm_rss_kib,
            io_read,
            io_write,
        )


class GpuCollector:
    """§3.4: sweep every visible device through the SMI session.

    The row schema is :data:`repro.core.records.GPU_COLUMNS` — the tick
    followed by every metric of ``repro.gpu.metrics.METRIC_ORDER`` —
    for every vendor's devices.  ``smi`` is anything with
    ``num_devices()`` and ``sample(visible, tick)``, such as
    :class:`repro.gpu.RocmSmi`.
    """

    name = "GpuCollector"

    def __init__(self, store: SampleStore, smi):
        self.store = store
        self.smi = smi

    def collect(self, tick: float) -> list[ThreadSnapshot]:
        """Record one sensor sweep per visible device."""
        visibles: list[int] = []
        rows: list[tuple] = []
        try:
            for visible in range(self.smi.num_devices()):
                sample = self.smi.sample(visible, tick)
                visibles.append(visible)
                rows.append(
                    (tick,) + tuple(getattr(sample, m) for m in METRIC_ORDER)
                )
        finally:  # what was read before a failure is staged, and rolled back
            self.store.stage("gpu", visibles, rows)
        return []
