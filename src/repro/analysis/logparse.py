"""Post-processing of ZeroSum log files (§3.6).

The paper: "a detailed dump of all data collected by ZeroSum is also
written to the log as comma separated values, allowing for time-series
analysis of the periodic data.  The log file also contains the MPI
point-to-point data collected between all ranks, which can be
post-processed to produce a heatmap."

This module is that post-processor: it parses a log rendered by
:func:`repro.core.export.render_log` into numpy arrays and the run
record, without the monitor objects — the offline workflow of a user on
a login node, and what ``zerosum-sim recover LOG`` rebuilds the run
from; the banner and printed report are prose, not parsed.  The
point-to-point section only bounds the sections before it: the heatmap
is merged from the monitors (:func:`repro.core.heatmap.merge_monitors`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import MonitorError

__all__ = ["ParsedLog", "parse_log"]

_SECTIONS = {
    "== run record (JSON) ==": "record",
    "== LWP samples (CSV) ==": "lwp",
    "== HWT samples (CSV) ==": "hwt",
    "== GPU samples (CSV) ==": "gpu",
    "== memory samples (CSV) ==": "memory",
    "== MPI point-to-point (CSV) ==": "p2p",
}


@dataclass
class CsvTable:
    """One parsed CSV section."""

    columns: tuple[str, ...]
    rows: np.ndarray  # (n, ncols) float64

    def column(self, name: str) -> np.ndarray:
        """One named column as a float array."""
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise MonitorError(f"no column {name!r} in table") from None
        return self.rows[:, idx]

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class ParsedLog:
    """Everything recoverable from one rank's log file."""

    #: the run-record section: the record, names, affinities, ledgers
    record: Optional[dict] = None
    lwp: Optional[CsvTable] = None
    hwt: Optional[CsvTable] = None
    gpu: Optional[CsvTable] = None
    memory: Optional[CsvTable] = None


def _parse_csv(lines: list[str]) -> CsvTable:
    if not lines:
        raise MonitorError("empty CSV section")
    columns = tuple(lines[0].split(","))
    try:  # a value that is no number, or rows of uneven width
        rows = [[float(v) for v in line.split(",")]
                for line in lines[1:] if line.strip()]
        data = np.asarray(rows, dtype=np.float64) if rows else np.zeros(
            (0, len(columns))
        )
    except ValueError as exc:
        raise MonitorError(f"malformed CSV row: {exc}") from None
    if rows and data.shape[1] != len(columns):
        raise MonitorError("CSV row width does not match header")
    return CsvTable(columns=columns, rows=data)


def parse_log(text: str) -> ParsedLog:
    """Parse the full text of one ``zerosum.<rank>.log``."""
    out = ParsedLog()
    lines = text.splitlines()
    # locate section markers
    marks: list[tuple[int, str]] = []
    for i, line in enumerate(lines):
        if line.strip() in _SECTIONS:
            marks.append((i, _SECTIONS[line.strip()]))
    for idx, (start, kind) in enumerate(marks):
        end = marks[idx + 1][0] if idx + 1 < len(marks) else len(lines)
        section = [l for l in lines[start + 1 : end] if l.strip()]
        if not section:
            continue
        if kind == "record":
            try:
                out.record = json.loads("\n".join(section))
            except ValueError as exc:
                raise MonitorError(f"malformed run record: {exc}") from None
        elif kind != "p2p":
            setattr(out, kind, _parse_csv(section))
    return out
