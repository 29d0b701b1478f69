"""ZeroSum core: the paper's user-space monitor.

Typical flow::

    from repro.core import ZeroSum, ZeroSumConfig, zerosum_mpi, build_report

    step = launch_job(nodes, options, app, monitor_factory=zerosum_mpi())
    step.run()
    step.finalize()
    report = build_report(step.monitors[0])
    findings = analyze(step.monitors[0])

``analyze(run)`` takes any store-backed run, not only a simulated one:
a ``repro.live.LiveZeroSum`` after ``stop()``, a ``ReplayZeroSum`` of
an exported log, or ``recover_journal(path)`` of a run that was killed.
"""

from repro.core.advisor import Advice, Suggestion, advise
from repro.core.archive import ArchiveData, RankSeries, read_archive, write_archive
from repro.core.config import ZeroSumConfig
from repro.core.contention import ContentionReport, Finding, Severity, analyze
from repro.core.detect import ProcessConfig, detect_configuration
from repro.core.export import (
    FileSink,
    MemorySink,
    gpu_csv,
    hwt_csv,
    lwp_csv,
    memory_csv,
    write_log,
)
from repro.core.heartbeat import ProgressTracker, ThreadSnapshot
from repro.core.heatmap import CommMatrix, merge_monitors
from repro.core.monitor import ZeroSum
from repro.core.records import SeriesBuffer, state_code
from repro.core.stream import (
    CallbackSubscriber,
    LdmsAggregator,
    SampleEvent,
    SampleStream,
)
from repro.core.reports import (
    GpuStat,
    HwtRow,
    LwpRow,
    UtilizationReport,
    build_report,
    format_cpus,
)
from repro.core.wrapper import zerosum_mpi

__all__ = [
    "ZeroSum",
    "advise",
    "Advice",
    "Suggestion",
    "write_archive",
    "read_archive",
    "ArchiveData",
    "RankSeries",
    "SampleStream",
    "SampleEvent",
    "LdmsAggregator",
    "CallbackSubscriber",
    "ZeroSumConfig",
    "zerosum_mpi",
    "build_report",
    "UtilizationReport",
    "LwpRow",
    "HwtRow",
    "GpuStat",
    "format_cpus",
    "analyze",
    "ContentionReport",
    "Finding",
    "Severity",
    "detect_configuration",
    "ProcessConfig",
    "ProgressTracker",
    "ThreadSnapshot",
    "CommMatrix",
    "merge_monitors",
    "SeriesBuffer",
    "state_code",
    "MemorySink",
    "FileSink",
    "write_log",
    "lwp_csv",
    "hwt_csv",
    "gpu_csv",
    "memory_csv",
]
