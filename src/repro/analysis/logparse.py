"""Post-processing of ZeroSum log files (§3.6).

The paper: "a detailed dump of all data collected by ZeroSum is also
written to the log as comma separated values, allowing for time-series
analysis of the periodic data.  The log file also contains the MPI
point-to-point data collected between all ranks, which can be
post-processed to produce a heatmap."

This module is that post-processor: it parses a log written by
:func:`repro.core.export.write_log` back into numpy arrays and a
:class:`~repro.core.heatmap.CommMatrix`, without needing the monitor
objects — exactly the offline workflow a user on a login node has.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.heatmap import CommMatrix
from repro.errors import MonitorError
from repro.mpi.interpose import dense_matrices

__all__ = ["ParsedLog", "parse_log", "merge_p2p_logs"]

_SECTIONS = {
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

    def group_rows(self, name: str) -> dict[float, np.ndarray]:
        """Rows grouped by one column's value, in first-seen order.

        This is how the replay driver splits the concatenated LWP/HWT/GPU
        sections back into per-entity series.
        """
        col = self.column(name)
        return {
            key: self.rows[col == key] for key in dict.fromkeys(col.tolist())
        }

    def __len__(self) -> int:
        return len(self.rows)


@dataclass
class ParsedLog:
    """Everything recoverable from one rank's log file."""

    header: str = ""
    report_text: str = ""
    lwp: Optional[CsvTable] = None
    hwt: Optional[CsvTable] = None
    gpu: Optional[CsvTable] = None
    memory: Optional[CsvTable] = None
    p2p_rows: list[tuple[int, int, int, int]] = field(default_factory=list)

    def p2p_matrix(self, world_size: int) -> CommMatrix:
        """This rank's point-to-point contribution as a matrix."""
        return CommMatrix(*dense_matrices(world_size, [self._coo(world_size)]))

    def _coo(self, world_size: int) -> np.ndarray:
        """The rows as one COO block, every rank inside the world."""
        coo = np.array(self.p2p_rows, dtype=np.int64).reshape(-1, 4)
        outside = (coo[:, :2] < 0) | (coo[:, :2] >= world_size)
        if outside.any():
            src, dst = coo[outside.any(axis=1)][0, :2].tolist()
            raise MonitorError(
                f"p2p entry ({src},{dst}) outside world of {world_size}"
            )
        return coo

    def duration_seconds(self) -> float:
        """Run duration recovered from the report header."""
        for line in self.report_text.splitlines():
            if line.startswith("Duration of execution:"):
                return float(line.split(":")[1].split()[0])
        raise MonitorError("log carries no duration line")


def _parse_csv(lines: list[str]) -> CsvTable:
    if not lines:
        raise MonitorError("empty CSV section")
    columns = tuple(lines[0].split(","))
    rows = []
    for line in lines[1:]:
        if not line.strip():
            continue
        rows.append([float(v) for v in line.split(",")])
    data = np.asarray(rows, dtype=np.float64) if rows else np.zeros(
        (0, len(columns))
    )
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
    body_end = marks[0][0] if marks else len(lines)
    body = lines[:body_end]
    # split banner from report at the Duration line
    for i, line in enumerate(body):
        if line.startswith("Duration of execution:"):
            out.header = "\n".join(body[:i])
            out.report_text = "\n".join(body[i:])
            break
    else:
        out.header = "\n".join(body)

    for idx, (start, kind) in enumerate(marks):
        end = marks[idx + 1][0] if idx + 1 < len(marks) else len(lines)
        section = [l for l in lines[start + 1 : end] if l.strip()]
        if not section:
            continue
        if kind == "p2p":
            for line in section[1:]:  # skip header
                src, dst, nbytes, messages = (int(v) for v in line.split(","))
                out.p2p_rows.append((src, dst, nbytes, messages))
        else:
            setattr(out, kind, _parse_csv(section))
    return out


def merge_p2p_logs(logs: list[ParsedLog], world_size: int) -> CommMatrix:
    """Merge the p2p sections of all ranks' logs into the Figure 5
    heatmap matrix — the offline equivalent of
    :func:`repro.core.heatmap.merge_monitors`."""
    if not logs:
        raise MonitorError("no logs to merge")
    return CommMatrix(
        *dense_matrices(world_size, [log._coo(world_size) for log in logs])
    )
