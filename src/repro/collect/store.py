"""The ``SampleStore``: one home for everything a monitor observes.

Every driver — simulated, live, or replay — owns exactly one store.
Collectors append rows into it, :class:`~repro.collect.report.ReportBuilder`
summarizes it, and the CSV exporters dump it.  The store also owns the
two retention policies:

* **summary mode** (``keep_series=False``): each series keeps only the
  ``summary_rows`` rows the end-of-run report needs — the latest row
  for zero-baseline (simulated) runs, the first + latest rows for
  first-baseline (live) runs — refreshed in place every sample;
* **ring cap** (``max_rows``): full series become rings of the last N
  rows, bounding memory for long-running live sessions.

It also tracks the per-tid cumulative totals of the previous sample,
which the streaming seam differences into per-interval busy rates.

The store is **transactional per collector**: the engine brackets each
collector's run in :meth:`SampleStore.begin` / :meth:`SampleStore.release`.
Inside the bracket ``add_*_row`` only *stages* what it is handed; the
rows reach the series on ``release``, so :meth:`SampleStore.rollback`
is "drop the staged rows" and a sampling period is whole per subsystem
or absent, never torn.  The store also carries the
:class:`~repro.collect.faults.DegradationLedger` recording every such
containment decision.

Everything applied between two :meth:`SampleStore.commit` calls is one
:class:`~repro.core.records.PeriodBlock`, sealed as ``store.period`` —
the one copy of the period's rows the detector and the journal read.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.collect.faults import DegradationLedger
from repro.core.records import (
    GPU_COLUMNS,
    HWT_COLUMNS,
    LWP_COLUMNS,
    MEM_COLUMNS,
    FamilyBlock,
    PeriodBlock,
    SeriesBuffer,
    check_width,
)
from repro.errors import MonitorError
from repro.topology.cpuset import CpuSet

if TYPE_CHECKING:
    from repro.core.heartbeat import ThreadSnapshot
    from repro.detect.findings import AlertLedger

__all__ = ["SampleStore", "KEYED_FAMILIES"]

#: family tag -> (store attribute of its per-entity series map, columns)
KEYED_FAMILIES = {
    "lwp": ("lwp_series", LWP_COLUMNS),
    "hwt": ("hwt_series", HWT_COLUMNS),
    "gpu": ("gpu_series", GPU_COLUMNS),
}
_FAMILIES = {**KEYED_FAMILIES, "mem": (None, MEM_COLUMNS)}


class SampleStore:
    """Series buffers, identity maps, and previous-sample totals."""

    def __init__(
        self,
        *,
        keep_series: bool = True,
        max_rows: int | None = None,
        summary_rows: int = 1,
        start_tick: float = 0.0,
    ):
        self.keep_series = keep_series
        self.max_rows = max_rows
        self.summary_rows = max(1, summary_rows)
        self.lwp_series: dict[int, SeriesBuffer] = {}
        self.lwp_affinity: dict[int, CpuSet] = {}
        self.lwp_names: dict[int, str] = {}
        self.hwt_series: dict[int, SeriesBuffer] = {}
        self.gpu_series: dict[int, SeriesBuffer] = {}
        self.mem_series = self.new_series(MEM_COLUMNS)
        self.samples_taken = 0
        self.last_thread_count = 0
        #: the degradation record of this run (see repro.collect.faults)
        self.ledger = DegradationLedger()
        #: the alert record of this run, published by the collection
        #: engine when an online detector is attached (None otherwise);
        #: the store never imports the detect package — it only carries
        #: the ledger for the report builder and the journal snapshot
        self.alerts: "AlertLedger | None" = None
        #: per family, the rows applied since the last commit
        self._open: dict[str, list[tuple]] = {f: [] for f in _FAMILIES}
        #: inside a bracket, the rows staged so far, by family; None
        #: outside one
        self._staged: dict[str, list[tuple]] | None = None
        #: the rows of the newest committed period (see the module doc)
        self.period = PeriodBlock()
        #: tick of the previous committed sample (starts at the
        #: monitor's attach tick so the first interval is well defined)
        self.prev_tick: float = start_tick
        #: cumulative utime+stime per tid as of the previous sample
        self.prev_totals: dict[int, float] = {}

    # -- series creation and retention ---------------------------------
    def new_series(self, columns: Sequence[str]) -> SeriesBuffer:
        """A buffer honouring this store's retention policy."""
        if self.keep_series:
            return SeriesBuffer(columns, max_rows=self.max_rows)
        return SeriesBuffer(columns, capacity=self.summary_rows)

    # -- per-collector transactions: stage, then apply ------------------
    def begin(self) -> None:
        """Open a bracket: rows added after it are staged, not applied."""
        if self._staged is not None:
            raise MonitorError("sample transaction already open")
        self._staged = {}

    def _close(self) -> dict[str, list[tuple]]:
        if self._staged is None:
            raise MonitorError("no sample transaction open")
        staged, self._staged = self._staged, None
        return staged

    def rollback(self) -> int:
        """Drop everything staged since :meth:`begin`; returns the row count.

        Nothing staged has touched a series, a name or an affinity, so
        the store is bit-identical to its state at :meth:`begin`.
        """
        return sum(map(len, self._close().values()))

    def release(self) -> None:
        """Close the bracket, applying everything staged since it.

        The rows go to float64 first: one numpy cannot store fails here,
        with nothing applied and the bracket still open for a rollback.
        """
        rows = {
            family: np.array([e[1] for e in entries], dtype=np.float64)
            for family, entries in (self._staged or {}).items()
        }
        for family, entries in self._close().items():
            self._apply(family, entries, rows[family])

    def add_row(self, family: str, key: int, row, name=None, affinity=None) -> None:
        """One observation of one entity of ``"lwp" | "hwt" | "gpu" | "mem"``.

        The family-generic form of the four ``add_*_row`` below (a
        recovered period block is replayed through it).
        """
        entry = (key, row, name, affinity)
        if self._staged is None:
            self._apply(family, (entry,), (row,))
        else:  # a malformed row must fail inside the collector's bracket
            check_width(row, _FAMILIES[family][1])
            self._staged.setdefault(family, []).append(entry)

    def _apply(self, family: str, entries, rows) -> None:
        """The one writer of the series, the identity maps and the open
        block — but for journal recovery's bulk :meth:`extend`."""
        attr, columns = _FAMILIES[family]
        mapping = {0: self.mem_series} if attr is None else getattr(self, attr)
        for (key, _, name, affinity), row in zip(entries, rows):
            series = mapping.get(key)
            if series is None:
                series = mapping[key] = self.new_series(columns)
            if self.keep_series or len(series) < self.summary_rows:
                series.append(row)
            else:
                series.replace_last(row)
            if name is not None:
                self.lwp_names[key] = name
            if affinity is not None:
                # affinity may change after creation: re-recorded every period
                self.lwp_affinity[key] = affinity
        self._open[family].extend(entries)

    def extend(self, family: str, keys: np.ndarray, rows: np.ndarray) -> None:
        """Many committed rows of one family at once: ``rows[i]`` is of ``keys[i]``.

        The bulk form of :meth:`add_row` for a store that keeps every
        row (journal recovery): rows are grouped by key, stably, so
        each series gets its rows in arrival order with one array copy,
        and new series are created in first-appearance order, as
        row-by-row appends would have.  The identity maps, the open block
        and the progress counters are left alone: the caller installs the
        identity and the period itself.
        """
        if self.max_rows is not None or not self.keep_series:
            raise MonitorError("bulk extend needs a store keeping every row")
        attr, columns = _FAMILIES[family]
        mapping = {0: self.mem_series} if attr is None else getattr(self, attr)
        rows = rows[np.argsort(keys, kind="stable")]
        unique, first, counts = np.unique(
            keys, return_index=True, return_counts=True
        )
        ends = np.cumsum(counts)
        for i in np.argsort(first):
            key = int(unique[i])
            series = mapping.get(key)
            if series is None:
                series = mapping[key] = self.new_series(columns)
            series.extend(rows[ends[i] - counts[i] : ends[i]])

    # -- per-subsystem appends -----------------------------------------
    def add_lwp_row(
        self,
        tid: int,
        row: Sequence[float],
        *,
        name: str | None = None,
        affinity: CpuSet | None = None,
    ) -> None:
        """Record one thread observation plus its identity facts."""
        self.add_row("lwp", tid, row, name, affinity)

    def add_hwt_row(self, cpu: int, row: Sequence[float]) -> None:
        """Record one hardware-thread observation."""
        self.add_row("hwt", cpu, row)

    def add_gpu_row(self, index: int, row: Sequence[float]) -> None:
        """Record one GPU sensor sweep."""
        self.add_row("gpu", index, row)

    def add_mem_row(self, row: Sequence[float]) -> None:
        """Record one memory/IO observation."""
        self.add_row("mem", 0, row)

    # -- queries --------------------------------------------------------
    def observed_tids(self) -> list[int]:
        """Every thread id ever sampled, sorted."""
        return sorted(self.lwp_series)

    # -- previous-sample tracking --------------------------------------
    def commit(self, tick: float, snapshots: Iterable["ThreadSnapshot"]) -> None:
        """Close one sampling period: its tick, totals and row block."""
        if self._staged is not None:
            raise MonitorError("sample transaction open")
        self.prev_tick = tick
        for snap in snapshots:
            self.prev_totals[snap.tid] = snap.total_jiffies
        self.period = PeriodBlock(
            *(FamilyBlock(*zip(*entries)) for entries in self._open.values())
        )
        self._open = {family: [] for family in _FAMILIES}
