"""The backend-agnostic collection engine (§3.1/§3.5).

One sampling pipeline — ``ProcReader`` → ``Collector`` →
``SampleStore`` → ``ReportBuilder`` — shared by every monitor driver:
the simulated :class:`repro.core.ZeroSum`, the live
:class:`repro.live.LiveZeroSum`, and the offline
:class:`ReplayZeroSum`.  Drivers only schedule samples and manage
lifecycle; everything that reads, parses, stores, or summarizes
observations lives in this package, including the
:class:`StoreBackedRun` surface every driver (and a journal-recovered
run) inherits.
"""

from repro.collect.collectors import (
    Collector,
    GpuCollector,
    HwtCollector,
    LwpCollector,
    MemoryCollector,
    read_cpu_times,
    read_meminfo,
    read_task,
)
from repro.collect.engine import CollectionEngine, collector_name
from repro.collect.journal import (
    JournalWriter,
    RecoveredRun,
    read_journal,
    recover_journal,
)
from repro.collect.faults import (
    DegradationEvent,
    DegradationLedger,
    FaultPolicy,
    FaultyProc,
    classify_failure,
)
from repro.collect.reader import (
    ProcReader,
    RealProc,
    SnapshotProcReader,
    TaskCounters,
)
from repro.collect.report import ReportBuilder, StoreBackedRun
from repro.collect.replay import ReplayZeroSum
from repro.collect.store import SampleStore

__all__ = [
    "ProcReader",
    "SnapshotProcReader",
    "TaskCounters",
    "RealProc",
    "Collector",
    "LwpCollector",
    "HwtCollector",
    "MemoryCollector",
    "GpuCollector",
    "read_task",
    "read_cpu_times",
    "read_meminfo",
    "CollectionEngine",
    "collector_name",
    "JournalWriter",
    "RecoveredRun",
    "read_journal",
    "recover_journal",
    "SampleStore",
    "ReportBuilder",
    "StoreBackedRun",
    "ReplayZeroSum",
    "DegradationEvent",
    "DegradationLedger",
    "FaultPolicy",
    "FaultyProc",
    "classify_failure",
]
