"""Data exportation (§3.6): per-rank logs and CSV time series.

Every monitored process can write a log containing the same summary
rank 0 prints, followed by a detailed CSV dump of every sample — LWP
state, faults, context switches and last CPU; HWT jiffies; memory; and
GPU sensors — enabling the time-series analyses of Figures 6 and 7.
Sinks are pluggable so the data can also be streamed to another tool
(the LDMS/TAU integration direction of §6).
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Mapping, Protocol

from repro.collect.report import StoreBackedRun
from repro.core.heatmap import CommMatrix
from repro.core.records import SeriesBuffer

__all__ = [
    "ExportSink",
    "MemorySink",
    "FileSink",
    "write_log",
    "series_csv",
    "lwp_csv",
    "hwt_csv",
    "gpu_csv",
    "memory_csv",
]


class ExportSink(Protocol):
    """Anything that accepts named text documents."""

    def write(self, name: str, content: str) -> None: ...


class MemorySink:
    """Collects documents in a dict (tests, streaming integrations)."""

    def __init__(self) -> None:
        self.documents: dict[str, str] = {}

    def write(self, name: str, content: str) -> None:
        """Store the document in memory."""
        self.documents[name] = content


class FileSink:
    """Writes documents under a directory (the per-rank log files)."""

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def write(self, name: str, content: str) -> None:
        """Write the document under the sink directory."""
        (self.directory / name).write_text(content)


def series_csv(series_map: Mapping[int, SeriesBuffer], key_name: str) -> str:
    """Concatenate per-key series into one CSV with a leading key column."""
    out = io.StringIO()
    first = True
    for key in sorted(series_map):
        text = series_map[key].to_csv(prefix_cols={key_name: key})
        out.write(text if first else text.split("\n", 1)[1])
        first = False
    return out.getvalue()


def lwp_csv(run: StoreBackedRun) -> str:
    """All LWP samples as one CSV (tid as a leading column)."""
    return series_csv(run.lwp_series, "tid")


def hwt_csv(run: StoreBackedRun) -> str:
    """All HWT samples as one CSV (cpu as a leading column)."""
    return series_csv(run.hwt_series, "cpu")


def gpu_csv(run: StoreBackedRun) -> str:
    """All GPU samples as one CSV (visible device as a leading column)."""
    return series_csv(run.gpu_series, "gpu")


def memory_csv(run: StoreBackedRun) -> str:
    """The memory/I-O sample series as CSV."""
    return run.mem_series.to_csv()


def write_log(run: StoreBackedRun, sink: ExportSink) -> str:
    """Write one run's full log; returns the log document name.

    Any store-backed run — simulated, live, replayed or recovered from
    a journal — exports through here, in the one section layout
    :class:`repro.collect.ReplayZeroSum` and the log parser read back:
    the startup banner (it and the document name follow the run's
    ``driver``), the utilization report, and the CSV sections — the
    "detailed dump of all data collected" of §3.6.  Heartbeats, crash
    reports and the MPI point-to-point matrix are written when the run
    has them.
    """
    if run.driver == "live":
        name = f"zerosum.live.{run.pid}.log"
    else:
        name = f"zerosum.{run.rank if run.rank is not None else run.pid}.log"
    parts = run.banner_lines()
    parts.append("")
    parts.append(run.report().render())
    if run.heartbeats:
        parts.append("Heartbeats:")
        parts.extend(run.heartbeats)
        parts.append("")
    if run.crash_reports:
        parts.extend(run.crash_reports)
        parts.append("")
    parts.append("== LWP samples (CSV) ==")
    parts.append(lwp_csv(run))
    parts.append("== HWT samples (CSV) ==")
    parts.append(hwt_csv(run))
    if run.gpu_series:
        parts.append("== GPU samples (CSV) ==")
        parts.append(gpu_csv(run))
    parts.append("== memory samples (CSV) ==")
    parts.append(memory_csv(run))
    if run.recorder is not None:
        parts.append("== MPI point-to-point (CSV) ==")
        mat = CommMatrix(
            bytes=run.recorder.bytes, messages=run.recorder.messages
        )
        parts.append(mat.to_csv())
    sink.write(name, "\n".join(parts))
    return name
