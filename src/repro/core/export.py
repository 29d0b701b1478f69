"""Data exportation (§3.6): per-rank logs and CSV time series.

Every monitored process can write a log containing the same summary
rank 0 prints, followed by a detailed CSV dump of every sample — LWP
state, faults, context switches and last CPU; HWT jiffies; memory; and
GPU sensors — enabling the time-series analyses of Figures 6 and 7.
:func:`render_log` returns the log's name and text; the caller decides
where it goes (``zerosum-sim recover --log-dir`` writes it to a file).
"""

from __future__ import annotations

import io
from typing import Mapping

from repro.collect.replay import record_json
from repro.collect.report import StoreBackedRun
from repro.core.heatmap import CommMatrix
from repro.core.records import SeriesBuffer

__all__ = [
    "render_log",
    "series_csv",
    "lwp_csv",
    "hwt_csv",
    "gpu_csv",
    "memory_csv",
]


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


def render_log(run: StoreBackedRun) -> tuple[str, str]:
    """One run's full log: ``(file name, text)``.

    Any store-backed run — simulated, live or frozen — exports through
    here, in the one layout :func:`repro.collect.replay.replay_log`
    reads back: the banner (it and the name follow the run's
    ``driver``) and the report, for people; the run-record section the
    run is rebuilt from; and the CSV sections, the "detailed dump of
    all data collected" of §3.6.  Heartbeats, crash reports and the MPI
    point-to-point matrix are written when the run has them.
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
    parts.append("== run record (JSON) ==")
    parts.append(record_json(run))
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
    return name, "\n".join(parts)
