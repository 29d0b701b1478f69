"""The §3.6 log's run record: written by ``render_log``, read back here.

A log carries the CSV dump of every sample and one ``== run record
(JSON) ==`` section: the run record (``journal_meta(banner=True)``) and
the store's names, affinities and ledgers in the journal's state form
(:func:`~repro.collect.journal.run_state`).  :func:`replay_log` rebuilds
the store from both and returns the one frozen run,
:class:`~repro.collect.journal.RecoveredRun`, whose report equals the
one the original run printed: the offline login-node workflow.  Nothing
is read back from the printed report.
"""

from __future__ import annotations

import json

import numpy as np

from repro.collect.journal import RecoveredRun, apply_run_state, run_state
from repro.collect.report import StoreBackedRun
from repro.collect.store import KEYED_FAMILIES, SampleStore
from repro.core.records import MEM_COLUMNS, PeriodBlock
from repro.errors import MonitorError, ReproError

__all__ = ["record_json", "replay_log"]

#: family -> the leading key column of its CSV section
_KEY_COLUMN = {"lwp": "tid", "hwt": "cpu", "gpu": "gpu"}


def record_json(run: StoreBackedRun) -> str:
    """The body of a log's run-record section: one line of JSON."""
    state = {"record": run.journal_meta(banner=True), **run_state(run.store)}
    return json.dumps(state, default=lambda array: array.tolist())


def replay_log(text: str) -> RecoveredRun:
    """The run one log's text describes, rebuilt from its samples and
    its record section (a :class:`~repro.errors.MonitorError` when the
    log has none, or one that does not apply)."""
    # lazy import: logparse sits above core.monitor in the import
    # graph (via core.heatmap), and core.monitor imports this package
    from repro.analysis.logparse import parse_log

    parsed = parse_log(text)
    if parsed.record is None:
        raise MonitorError("log carries no run record")
    store = SampleStore()
    _ingest_samples(store, parsed)
    state = parsed.record
    try:
        # JSON flattens the (n, 1) totals column of an empty run to []
        totals = state["prev_totals"]
        totals["values"] = np.reshape(
            np.asarray(totals["values"], dtype=np.float64), (-1, 1)
        )
        apply_run_state(store, state)
        return RecoveredRun(store, state["record"])
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            ReproError) as exc:
        raise MonitorError(f"malformed run record: {exc}") from None


def _ingest_samples(store: SampleStore, parsed) -> None:
    for family, (_, columns) in KEYED_FAMILIES.items():
        table, key = getattr(parsed, family), _KEY_COLUMN[family]
        if table is not None:
            _check(table.columns, (key,) + columns, family.upper())
            # one staged family: the store splits it into per-entity
            # series in first-seen order, each in log order
            keys = table.rows[:, 0].astype(np.int64).tolist()
            store.stage(family, keys, table.rows[:, 1:])
    if parsed.memory is not None:
        _check(parsed.memory.columns, MEM_COLUMNS, "memory")
        rows = parsed.memory.rows
        store.stage("mem", [0] * len(rows), rows)
    # a log is one ingest, not a period: close it and drop the block
    # nobody reads, or the store holds every row a second time
    store.commit(store.prev_tick, ())
    store.period = PeriodBlock()


def _check(columns, expected, section: str) -> None:
    if tuple(columns) != tuple(expected):
        raise MonitorError(f"unexpected {section} CSV columns in log: {columns}")
