"""Sample storage: growable column buffers for periodic observations.

ZeroSum keeps everything it samples so the log can be dumped as CSV
time series (§3.6) and post-processed into the stacked charts of
Figures 6 and 7.  Counters are stored *cumulatively*, as read from
``/proc``; per-interval rates are derived at analysis time.

A buffer may be capped with ``max_rows``: once full it becomes a ring
and every further append overwrites the oldest row.  Long-running live
monitors use this to bound memory while keeping a trailing window.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

import numpy as np

from repro.errors import MonitorError
from repro.gpu.metrics import METRIC_ORDER as _METRIC_ORDER

__all__ = [
    "SeriesBuffer",
    "FamilyBlock",
    "PeriodBlock",
    "check_width",
    "LWP_COLUMNS",
    "HWT_COLUMNS",
    "MEM_COLUMNS",
    "GPU_COLUMNS",
    "STATE_CODES",
    "state_code",
]

#: numeric codes for /proc state letters, stable across exports
STATE_CODES: dict[str, int] = {"R": 0, "S": 1, "D": 2, "T": 3, "Z": 4, "X": 5}


def state_code(letter: str) -> int:
    """Numeric code for a /proc state letter (unknown -> dead)."""
    return STATE_CODES.get(letter, 5)


LWP_COLUMNS: tuple[str, ...] = (
    "tick",
    "state",
    "utime",
    "stime",
    "nv_ctx",
    "ctx",
    "minflt",
    "majflt",
    "processor",
)

HWT_COLUMNS: tuple[str, ...] = ("tick", "user", "system", "idle", "iowait")

MEM_COLUMNS: tuple[str, ...] = (
    "tick",
    "mem_total_kib",
    "mem_free_kib",
    "mem_available_kib",
    "rss_kib",
    "io_read_kib",
    "io_write_kib",
)

#: GPU columns follow repro.gpu.metrics.METRIC_ORDER, prefixed by tick.
GPU_COLUMNS: tuple[str, ...] = ("tick",) + _METRIC_ORDER


def check_width(row: Sequence[float], columns: Sequence[str]) -> None:
    """Reject a row that does not fit a series of ``columns``."""
    if len(row) != len(columns):
        raise MonitorError(
            f"row has {len(row)} values, series has {len(columns)} columns"
        )


class FamilyBlock(NamedTuple):
    """One family's rows of one sampling period, in arrival order.

    Parallel tuples: ``rows[i]`` is what ``add_*_row`` was handed for
    entity ``keys[i]``, with the optional identity facts that came with
    it (``None`` for the families that have none).
    """

    keys: tuple = ()
    rows: tuple = ()
    names: tuple = ()
    affinities: tuple = ()


class PeriodBlock(NamedTuple):
    """Everything one sampling period put into a store.

    Produced once — the store seals it at ``commit`` — and read by
    everyone downstream of the collectors: the online detector mirrors
    it into its histories and the journal writes it as the period
    record.  An entity with no row this period is simply absent.
    """

    lwp: FamilyBlock = FamilyBlock()
    hwt: FamilyBlock = FamilyBlock()
    gpu: FamilyBlock = FamilyBlock()
    mem: FamilyBlock = FamilyBlock()


class SeriesBuffer:
    """A small column store with amortized O(1) row append.

    With ``max_rows`` set the buffer is a ring: it grows normally until
    it holds ``max_rows`` rows, then each append overwrites the oldest
    row.  ``appended`` counts every row ever offered, so callers can
    detect how much history was dropped.
    """

    def __init__(
        self,
        columns: Sequence[str],
        capacity: int = 64,
        max_rows: int | None = None,
    ):
        if not columns:
            raise MonitorError("series needs at least one column")
        if max_rows is not None and max_rows < 1:
            raise MonitorError("max_rows must be >= 1")
        self.columns = tuple(columns)
        self.max_rows = max_rows
        cap = max(1, capacity)
        if max_rows is not None:
            cap = min(cap, max_rows)
        self._data = np.zeros((cap, len(self.columns)), dtype=np.float64)
        self._len = 0
        self._head = 0  # oldest row / next overwrite position once saturated
        self.appended = 0

    def append(self, row: Sequence[float]) -> None:
        """Append one row (width-checked); overwrites the oldest when full."""
        check_width(row, self.columns)
        self.appended += 1
        if self.max_rows is not None and self._len == self.max_rows:
            self._data[self._head] = row
            self._head = (self._head + 1) % self.max_rows
            return
        if self._len == self._data.shape[0]:
            grow = self._data.shape[0] * 2
            if self.max_rows is not None:
                grow = min(grow, self.max_rows)
            grown = np.zeros((grow, len(self.columns)), dtype=np.float64)
            grown[: self._len] = self._data
            self._data = grown
        self._data[self._len] = row
        self._len += 1

    def extend(self, rows) -> None:
        """Append a ``(n, ncols)`` block of rows, oldest first.

        The bulk form of :meth:`append`: an unbounded buffer grows by
        one array copy; a ring takes the rows one by one.
        """
        rows = np.asarray(rows, dtype=np.float64)
        if self.max_rows is not None:
            for row in rows:
                self.append(row)
            return
        if rows.shape[1:] != (len(self.columns),):
            raise MonitorError(
                f"block of shape {rows.shape}, series has "
                f"{len(self.columns)} columns"
            )
        end = self._len + len(rows)
        if end > self._data.shape[0]:
            grown = np.zeros((end, len(self.columns)), dtype=np.float64)
            grown[: self._len] = self._data[: self._len]
            self._data = grown
        self._data[self._len : end] = rows
        self._len = end
        self.appended += len(rows)

    def replace_last(self, row: Sequence[float]) -> None:
        """Overwrite the most recently appended row (append when empty).

        This is what summary mode uses: the store keeps only the rows
        the end-of-run report needs and refreshes the newest in place.
        """
        if self._len == 0:
            self.append(row)
            return
        check_width(row, self.columns)
        if self.max_rows is not None and self._len == self.max_rows:
            idx = (self._head - 1) % self.max_rows
        else:
            idx = self._len - 1
        self._data[idx] = row

    def __len__(self) -> int:
        return self._len

    @property
    def dropped(self) -> int:
        """Rows overwritten by the ring (0 for unbounded buffers)."""
        return self.appended - self._len

    @property
    def array(self) -> np.ndarray:
        """(n, ncols) array of the recorded rows, oldest first.

        A view when the ring has not wrapped; a copy once it has.
        """
        if self._head == 0:
            return self._data[: self._len]
        return np.concatenate(
            (self._data[self._head : self._len], self._data[: self._head])
        )

    def column(self, name: str) -> np.ndarray:
        """One named column of the recorded rows."""
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise MonitorError(f"no column {name!r}") from None
        return self.array[:, idx]

    def last(self, name: str) -> float:
        """Latest value of a column; raises when empty."""
        col = self.column(name)
        if len(col) == 0:
            raise MonitorError("series is empty")
        return float(col[-1])

    def deltas(self, name: str) -> np.ndarray:
        """Per-interval increments of a cumulative counter column."""
        return np.diff(self.column(name), prepend=0.0)

    def iter_rows(self) -> Iterator[dict[str, float]]:
        """Rows as dicts, oldest first."""
        for row in self.array:
            yield dict(zip(self.columns, row))

    def to_csv(self, prefix_cols: dict[str, object] | None = None) -> str:
        """Render as CSV text, optionally with constant prefix columns.

        Whole numbers render without a decimal point, everything else
        as its shortest round-trip ``repr``, so a replayed log rebuilds
        the series exactly — formatting is vectorized per column rather
        than per value.
        """
        prefix = prefix_cols or {}
        header = ",".join(list(prefix) + list(self.columns))
        arr = self.array
        if arr.shape[0] == 0:
            return header + "\n"
        # one printf conversion per column, decided from a numpy mask over
        # the whole column; only genuinely mixed columns pay a per-value
        # pass.  Each row then renders with a single C-level % call.
        fmt_parts: list[str] = []
        cols: list[list] = []
        for j in range(arr.shape[1]):
            col = arr[:, j]
            whole = np.isfinite(col) & (np.mod(col, 1) == 0)
            if whole.all():
                fmt_parts.append("%d")
                cols.append(col.tolist())
            elif not whole.any():
                fmt_parts.append("%r")
                cols.append(col.tolist())
            else:
                fmt_parts.append("%s")
                cols.append(
                    [
                        "%d" % v if w else "%r" % v
                        for v, w in zip(col.tolist(), whole.tolist())
                    ]
                )
        fmt = ",".join(fmt_parts)
        if prefix:
            pre = ",".join(str(v) for v in prefix.values()) + ","
            fmt = pre.replace("%", "%%") + fmt
        body = "\n".join(fmt % row for row in zip(*cols))
        return header + "\n" + body + "\n"
