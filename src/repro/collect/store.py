"""The ``SampleStore``: one home for everything a monitor observes.

Every driver — simulated, live, or replay — owns exactly one store.
Collectors append rows into it, :class:`~repro.collect.report.ReportBuilder`
summarizes it, and the CSV exporters dump it.  It keeps every row: the
§3.6 log and the Figure 6–7 charts are built from the whole run.

It also tracks the per-tid cumulative totals of the previous sample,
which the streaming seam differences into per-interval busy rates.

The store is **transactional per collector**: the engine brackets each
collector's run in :meth:`SampleStore.begin` / :meth:`SampleStore.release`.
A collector hands each family's rows over in one :meth:`SampleStore.stage`
call, width-checked once; inside the bracket they are only *staged*,
and they reach the series on ``release``, as one float64 matrix, so
:meth:`SampleStore.rollback` is "drop the staged rows" and a sampling
period is whole per subsystem or absent, never torn.  The store also
carries the
:class:`~repro.collect.faults.DegradationLedger` recording every such
containment decision.

Everything applied between two :meth:`SampleStore.commit` calls is one
:class:`~repro.core.records.PeriodBlock`, sealed as ``store.period`` —
the one copy of the period's rows (the applied matrices themselves)
the detector and the journal read.
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

    def __init__(self, *, start_tick: float = 0.0):
        self.lwp_series: dict[int, SeriesBuffer] = {}
        self.lwp_affinity: dict[int, CpuSet] = {}
        self.lwp_names: dict[int, str] = {}
        self.hwt_series: dict[int, SeriesBuffer] = {}
        self.gpu_series: dict[int, SeriesBuffer] = {}
        self.mem_series = SeriesBuffer(MEM_COLUMNS)
        self.samples_taken = 0
        self.last_thread_count = 0
        #: the degradation record of this run (see repro.collect.faults)
        self.ledger = DegradationLedger()
        #: the alert record of this run, published by the collection
        #: engine when an online detector is attached (None otherwise);
        #: the store never imports the detect package — it only carries
        #: the ledger for the report builder and the journal snapshot
        self.alerts: "AlertLedger | None" = None
        #: per family, the chunks ``(keys, matrix, names, affinities)``
        #: applied since the last commit
        self._open: dict[str, list[tuple]] = {f: [] for f in _FAMILIES}
        #: inside a bracket, the chunks staged so far, by family; None
        #: outside one
        self._staged: dict[str, list[tuple]] | None = None
        #: the rows of the newest committed period (see the module doc)
        self.period = PeriodBlock()
        #: tick of the previous committed sample (starts at the
        #: monitor's attach tick so the first interval is well defined)
        self.prev_tick: float = start_tick
        #: cumulative utime+stime per tid as of the previous sample
        self.prev_totals: dict[int, float] = {}

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
        return sum(
            len(chunk[0]) for chunks in self._close().values() for chunk in chunks
        )

    def release(self) -> None:
        """Close the bracket, applying everything staged since it.

        The staged rows go to float64 matrices first: one numpy cannot
        store fails here, with nothing applied and the bracket still
        open for a rollback.
        """
        matrices = {
            family: [np.array(chunk[1], dtype=np.float64) for chunk in chunks]
            for family, chunks in (self._staged or {}).items()
        }
        for family, chunks in self._close().items():
            for (keys, _, names, affinities), matrix in zip(chunks, matrices[family]):
                self._apply(family, keys, matrix, names, affinities)

    def stage(
        self,
        family: str,
        keys: Sequence[int],
        rows: Sequence[Sequence[float]],
        names: Sequence | None = None,
        affinities: Sequence | None = None,
    ) -> None:
        """Observations of one family ``"lwp" | "hwt" | "gpu" | "mem"``:
        ``rows[i]`` is of entity ``keys[i]``, with the identity facts
        ``names[i]`` / ``affinities[i]`` when they came with the rows.

        The width is checked once for the whole family, so a malformed
        row fails here, inside the collector's bracket.  Inside a
        bracket the rows are staged; outside one they are applied at
        once (a replayed log's rows arrive that way).
        """
        n = len(keys)
        if not n:
            return
        columns = _FAMILIES[family][1]
        if len(rows) != n:
            raise MonitorError(f"{n} keys for {len(rows)} rows")
        if set(map(len, rows)) != {len(columns)}:
            for row in rows:  # name the first row that does not fit
                check_width(row, columns)
        chunk = (
            tuple(keys),
            rows,
            None if names is None else tuple(names),
            None if affinities is None else tuple(affinities),
        )
        if self._staged is None:
            matrix = np.array(rows, dtype=np.float64)
            self._apply(family, chunk[0], matrix, *chunk[2:])
        else:
            self._staged.setdefault(family, []).append(chunk)

    def add_row(self, family: str, key: int, row, name=None, affinity=None) -> None:
        """One observation of one entity: the one-row :meth:`stage`."""
        self.stage(
            family, (key,), (row,),
            None if name is None else (name,),
            None if affinity is None else (affinity,),
        )

    def _apply(self, family: str, keys, matrix, names, affinities) -> None:
        """The one writer of the series, the identity maps and the open
        block — but for journal recovery's bulk :meth:`extend`."""
        attr, columns = _FAMILIES[family]
        mapping = {0: self.mem_series} if attr is None else getattr(self, attr)
        for key, row in zip(keys, matrix):
            series = mapping.get(key)
            if series is None:
                series = mapping[key] = SeriesBuffer(columns)
            series.push(row)
        if names:
            self.lwp_names.update(zip(keys, names))
        if affinities:
            # affinity may change after creation: re-recorded every period
            self.lwp_affinity.update(zip(keys, affinities))
        self._open[family].append((keys, matrix, names, affinities))

    def extend(self, family: str, keys: np.ndarray, rows: np.ndarray) -> None:
        """Many committed rows of one family at once: ``rows[i]`` is of ``keys[i]``.

        The bulk form of :meth:`add_row` (journal recovery): rows are
        grouped by key, stably, so each series gets its rows in arrival
        order with one array copy, and new series are created in
        first-appearance order, as row-by-row appends would have.  The
        identity maps, the open block and the progress counters are left
        alone: the caller installs the identity and the period itself.
        """
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
                series = mapping[key] = SeriesBuffer(columns)
            series.extend(rows[ends[i] - counts[i] : ends[i]])

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
        self.period = PeriodBlock(*map(_seal, self._open.values()))
        self._open = {family: [] for family in _FAMILIES}


def _seal(chunks: list[tuple]) -> FamilyBlock:
    """One family's applied chunks as its block of the period (identity
    facts that did not come with a chunk's rows are ``None`` per row)."""
    if not chunks:
        return FamilyBlock()
    if len(chunks) == 1:
        keys, matrix, names, affinities = chunks[0]
    else:
        keys = sum((chunk[0] for chunk in chunks), ())
        matrix = np.concatenate([chunk[1] for chunk in chunks])
        names, affinities = _joined(chunks, 2), _joined(chunks, 3)
    none = (None,) * len(keys)
    return FamilyBlock(keys, matrix, names or none, affinities or none)


def _joined(chunks: list[tuple], field: int) -> tuple | None:
    """One identity field of several chunks, ``None`` per row of a chunk
    that came without it (``None`` when none came with it)."""
    if not any(chunk[field] for chunk in chunks):
        return None
    return sum((chunk[field] or (None,) * len(chunk[0]) for chunk in chunks), ())
