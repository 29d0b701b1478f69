"""Crash-durable spill journal: the store's state, one rename ahead of death.

ZeroSum's promise is a usable report *especially* when the run ends
badly — OOM kill, walltime, ``kill -9`` (§3.3).  Everything the report
needs lives in a :class:`~repro.collect.store.SampleStore` in memory,
so this module spools that state to disk as the run progresses:

* a **checkpoint** rewrites the whole journal — one ``meta`` record
  plus one ``snapshot`` of every series, identity map, previous-totals
  and the full :class:`~repro.collect.faults.DegradationLedger` — into
  ``<path>.tmp``, fsyncs, and atomically renames it over the journal,
  so a crash mid-checkpoint leaves the previous journal intact;
* between checkpoints, each committed sampling period appends one
  **period** record carrying the store's sealed period block — per
  family one key list and one float64 row matrix, exactly what the
  collectors produced — plus the small per-period state, written so it
  survives the process dying; recovery replays the block through the
  store's own ``add_*_row``, so ring eviction and summary-mode
  refreshes are reproduced by the code that did them live;
* **note** records are out-of-band diagnostics (last-gasp signal
  flushes, watchdog stall reports) that touch no store state and are
  fsynced immediately; a checkpoint re-emits, behind its snapshot,
  those the store's ledger does not hold.

The journal handle is unbuffered: every entry point coalesces all of
its framed records into **one** ``write(2)`` (and at most one
``fsync``), so a period's deltas either all reach the kernel or none
do — the sampler never pays more than one syscall per period, and a
crash cannot land between the lines of a single append.

Every record is one newline-terminated frame,
``<magic> <len> <crc32> <body>``.  The writer emits ``ZSJ2`` frames: a
packed binary body — a string table plus a tagged value tree whose
float64 series rows are struct-packed matrix blocks, several times
cheaper to encode than JSON at scale (speed, not size: packed floats
are usually *larger* than their short JSON reprs).  A torn trailing
record — the half-written frame a ``kill -9`` leaves behind — fails
the length/CRC check and is discarded at recovery, with the tear
counted in the recovered ledger rather than aborting the recovery.
Recovery also reads the compact-JSON ``ZSJ1`` frames older writers
produced, even interleaved with ``ZSJ2`` in one file (an upgraded
writer appending to an old journal), and their ``series``-shaped period
records (one delta or ``replace`` entry per series).

:func:`recover_journal` replays a journal back into a fresh store and
returns a :class:`RecoveredRun` that rebuilds the full utilization +
degradation report (and is a :class:`~repro.collect.report.StoreBackedRun`,
so the log and archive exporters take it) — the ``zerosum recover``
post-mortem workflow.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.collect.faults import DegradationEvent, DegradationLedger
from repro.collect.report import StoreBackedRun
from repro.collect.store import KEYED_FAMILIES, SampleStore
from repro.detect.findings import AlertLedger, OnlineFinding
from repro.core.records import PeriodBlock, SeriesBuffer
from repro.errors import JournalError, ReproError
from repro.topology.cpuset import CpuSet
from repro.units import USER_HZ

__all__ = [
    "JournalWriter",
    "RecoveredRun",
    "read_journal",
    "recover_journal",
    "encode_store_snapshot",
    "decode_store_snapshot",
]

_MAGIC = b"ZSJ1"  # legacy compact-JSON frames: read, never written
_MAGIC2 = b"ZSJ2"

#: ledger counter dicts copied verbatim into / out of records
_LEDGER_COUNTERS = (
    "consecutive_failures",
    "failed_periods",
    "retries",
    "dropped_rows",
    "rolled_back_rows",
)

# -- ZSJ2: packed binary bodies ---------------------------------------------
#
# A ZSJ2 body is little-endian throughout:
#
#   string table:  uvarint count, then per string: uvarint byte length +
#                  UTF-8 bytes.  Strings are interned in first-use order
#                  while encoding the tree; dict keys and string values
#                  reference the table by index, so repeated keys
#                  ("columns", "appended", per-tid keys...) cost one
#                  varint per use instead of a quoted literal.
#   value tree:    one tagged value (the record dict).
#
# Value tags:
#
#   0  None
#   1  False
#   2  True
#   3  int       zigzag uvarint (arbitrary precision)
#   4  float     IEEE-754 binary64, ``<d``
#   5  str       uvarint string-table index
#   6  list      uvarint count + that many values
#   7  dict      uvarint count + per item: uvarint key index + value
#   8  matrix    uvarint nrows + uvarint ncols + nrows*ncols ``<d``
#
# Tag 8 is the fast path: a series buffer's float64 row block packs
# straight from the ndarray's memory and decodes back to the same
# list-of-lists JSON would have produced, so recovery is bit-identical
# across formats.

_T_NONE, _T_FALSE, _T_TRUE = 0, 1, 2
_T_INT, _T_FLOAT, _T_STR = 3, 4, 5
_T_LIST, _T_DICT, _T_MATRIX = 6, 7, 8

_PACK_D = struct.Struct("<d").pack


def _pack_uvarint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint, appended to ``out``."""
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    result = 0
    shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _encode_value(out: bytearray, strings: dict, value) -> None:
    # hot path: dict scalars are encoded inline (no recursive call per
    # leaf), string interning is one dict.setdefault, and one-byte
    # varints skip the loop — the tree walk is pure Python, so every
    # leaf-level call it avoids is throughput
    kind = type(value)
    if kind is dict:
        out.append(_T_DICT)
        count = len(value)
        if count > 0x7F:
            _pack_uvarint(out, count)
        else:
            out.append(count)
        for key, item in value.items():
            index = strings.setdefault(key, len(strings))
            if index > 0x7F:
                _pack_uvarint(out, index)
            else:
                out.append(index)
            ikind = type(item)
            if ikind is float:
                out.append(_T_FLOAT)
                out += _PACK_D(item)
            elif ikind is str:
                out.append(_T_STR)
                index = strings.setdefault(item, len(strings))
                if index > 0x7F:
                    _pack_uvarint(out, index)
                else:
                    out.append(index)
            elif ikind is int:  # bool is not `is int`: falls through
                out.append(_T_INT)
                _pack_uvarint(
                    out, (item << 1) if item >= 0 else ((~item) << 1) | 1
                )
            else:
                _encode_value(out, strings, item)
    elif kind is float:
        out.append(_T_FLOAT)
        out += _PACK_D(value)
    elif kind is str:
        out.append(_T_STR)
        index = strings.setdefault(value, len(strings))
        if index > 0x7F:
            _pack_uvarint(out, index)
        else:
            out.append(index)
    elif kind is np.ndarray:
        if value.ndim != 2 or value.dtype != np.float64:
            _encode_value(out, strings, value.tolist())
            return
        out.append(_T_MATRIX)
        _pack_uvarint(out, value.shape[0])
        _pack_uvarint(out, value.shape[1])
        out += value.astype("<f8", copy=False).tobytes()
    elif kind is bool:
        out.append(_T_TRUE if value else _T_FALSE)
    elif kind is int:
        out.append(_T_INT)
        n = value
        _pack_uvarint(out, (n << 1) if n >= 0 else ((~n) << 1) | 1)
    elif kind is list or kind is tuple:
        out.append(_T_LIST)
        _pack_uvarint(out, len(value))
        for item in value:
            _encode_value(out, strings, item)
    elif value is None:
        out.append(_T_NONE)
    elif isinstance(value, bool):
        out.append(_T_TRUE if value else _T_FALSE)
    elif isinstance(value, int):
        out.append(_T_INT)
        n = int(value)
        _pack_uvarint(out, (n << 1) if n >= 0 else ((~n) << 1) | 1)
    elif isinstance(value, float):
        out.append(_T_FLOAT)
        out += _PACK_D(float(value))
    elif isinstance(value, str):
        out.append(_T_STR)
        _pack_uvarint(out, strings.setdefault(str(value), len(strings)))
    else:
        raise JournalError(
            f"journal payload value of type {kind.__name__} "
            "is not serializable"
        )


def _encode_body(payload: dict) -> bytes:
    """String table + tagged value tree (the ZSJ2 frame body)."""
    strings: dict[str, int] = {}
    tree = bytearray()
    _encode_value(tree, strings, payload)
    body = bytearray()
    _pack_uvarint(body, len(strings))
    for text in strings:  # dicts preserve insertion == index order
        raw = text.encode("utf-8")
        _pack_uvarint(body, len(raw))
        body += raw
    body += tree
    return bytes(body)


def _decode_value(data: bytes, pos: int, strings: list) -> tuple[object, int]:
    tag = data[pos]
    pos += 1
    if tag == _T_MATRIX:
        nrows, pos = _read_uvarint(data, pos)
        ncols, pos = _read_uvarint(data, pos)
        count = nrows * ncols
        flat = struct.unpack_from("<%dd" % count, data, pos)
        pos += 8 * count
        return (
            [list(flat[i: i + ncols]) for i in range(0, count, ncols)],
            pos,
        )
    if tag == _T_DICT:
        count, pos = _read_uvarint(data, pos)
        record = {}
        for _ in range(count):
            index, pos = _read_uvarint(data, pos)
            record[strings[index]], pos = _decode_value(data, pos, strings)
        return record, pos
    if tag == _T_LIST:
        count, pos = _read_uvarint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_value(data, pos, strings)
            items.append(item)
        return items, pos
    if tag == _T_FLOAT:
        return struct.unpack_from("<d", data, pos)[0], pos + 8
    if tag == _T_INT:
        raw, pos = _read_uvarint(data, pos)
        return (raw >> 1) ^ -(raw & 1), pos
    if tag == _T_STR:
        index, pos = _read_uvarint(data, pos)
        return strings[index], pos
    if tag == _T_NONE:
        return None, pos
    if tag == _T_TRUE:
        return True, pos
    if tag == _T_FALSE:
        return False, pos
    raise JournalError(f"unknown ZSJ2 value tag {tag}")


def _decode_body(body: bytes) -> Optional[dict]:
    """Decode one ZSJ2 body; ``None`` for anything malformed."""
    try:
        count, pos = _read_uvarint(body, 0)
        strings = []
        for _ in range(count):
            length, pos = _read_uvarint(body, pos)
            strings.append(body[pos: pos + length].decode("utf-8"))
            pos += length
        value, pos = _decode_value(body, pos, strings)
    except (IndexError, struct.error, JournalError, OverflowError,
            ValueError,  # bad UTF-8; a matrix tag with no columns
            RecursionError):  # a nesting bomb
        return None
    if pos != len(body) or not isinstance(value, dict):
        return None
    return value


def _frame2(payload: dict) -> bytes:
    """One ZSJ2 journal frame: magic, body length, CRC32, packed body."""
    body = _encode_body(payload)
    return (
        b"%s %d %08x " % (_MAGIC2, len(body), zlib.crc32(body))
        + body
        + b"\n"
    )


# -- state (de)serialization ------------------------------------------------
def _series_state(series: SeriesBuffer) -> dict:
    # the float64 row block rides as the ndarray itself — the packer
    # serializes it straight from array memory
    return {
        "columns": list(series.columns),
        "rows": series.array,
        "appended": series.appended,
    }


def _series_from_state(store: SampleStore, state: dict) -> SeriesBuffer:
    series = store.new_series(tuple(state["columns"]))
    for row in state["rows"]:
        series.append(row)
    series.appended = int(state.get("appended", len(state["rows"])))
    return series


def _event_state(event: DegradationEvent) -> dict:
    return {
        "tick": event.tick,
        "collector": event.collector,
        "action": event.action,
        "failure_class": event.failure_class,
        "reason": event.reason,
    }


def _event_from_state(state: dict) -> DegradationEvent:
    return DegradationEvent(
        tick=state["tick"],
        collector=state["collector"],
        action=state["action"],
        failure_class=state["failure_class"],
        reason=state["reason"],
    )


def _ledger_state(ledger: DegradationLedger, *, since: int) -> dict:
    """Counters in full (they are small), events from index ``since``.

    The ring holds indexes ``[total_events - len, total_events)``;
    events already evicted from it cannot be re-journaled, matching the
    live ledger's own bounded-memory contract.
    """
    events = list(ledger.events)
    start = ledger.total_events - len(events)
    fresh = events[max(0, since - start):]
    return {
        "total_events": ledger.total_events,
        "max_events": ledger.events.maxlen,
        "counters": {k: getattr(ledger, k) for k in _LEDGER_COUNTERS},
        "disabled": {
            name: _event_state(event) for name, event in ledger.disabled.items()
        },
        "events": [_event_state(event) for event in fresh],
    }


def _apply_ledger(ledger: DegradationLedger, state: dict) -> None:
    for key in _LEDGER_COUNTERS:
        setattr(ledger, key, dict(state["counters"].get(key, {})))
    ledger.disabled = {
        name: _event_from_state(event)
        for name, event in state.get("disabled", {}).items()
    }
    for event in state.get("events", []):
        ledger.events.append(_event_from_state(event))
    ledger.total_events = int(state["total_events"])


def _identity_state(store: SampleStore, names: dict, affinity: dict) -> dict:
    """Identity facts + progress counters.

    ``names`` / ``affinity`` are the store's whole maps in a snapshot
    and, in a period record, what the period's own rows brought.
    """
    return {
        "names": {str(tid): name for tid, name in names.items()},
        "affinity": {str(tid): cpus.to_list() for tid, cpus in affinity.items()},
        "prev_totals": {
            str(tid): total for tid, total in store.prev_totals.items()
        },
        "prev_tick": store.prev_tick,
        "samples_taken": store.samples_taken,
        "last_thread_count": store.last_thread_count,
    }


def _apply_identity(store: SampleStore, state: dict) -> None:
    # the maps only ever grow, so merging a period's additions and
    # installing a snapshot's whole maps are the same operation
    store.lwp_names.update((int(t), name) for t, name in state["names"].items())
    store.lwp_affinity.update(
        (int(t), CpuSet.from_list(spec)) for t, spec in state["affinity"].items()
    )
    store.prev_totals = {
        int(t): total for t, total in state["prev_totals"].items()
    }
    store.prev_tick = float(state["prev_tick"])
    store.samples_taken = int(state["samples_taken"])
    store.last_thread_count = int(state["last_thread_count"])


def _block_state(period: PeriodBlock) -> dict:
    """A sealed period block: per family a key list + one row matrix."""
    return {
        family: {
            "keys": list(block.keys),
            "rows": np.array(block.rows, dtype=np.float64),
        }
        for family, block in zip(PeriodBlock._fields, period)
        if block.keys
    }


def _store_state(store: SampleStore) -> dict:
    """Marshal a store's complete state (retention, series, ledgers)."""
    state: dict = {
        "keep_series": store.keep_series,
        "max_rows": store.max_rows,
        "summary_rows": store.summary_rows,
        **_identity_state(store, store.lwp_names, store.lwp_affinity),
        "mem": _series_state(store.mem_series),
        "ledger": _ledger_state(
            store.ledger,
            since=store.ledger.total_events - len(store.ledger.events),
        ),
    }
    if store.alerts is not None:
        # the snapshot must carry the alert ledger: checkpoints
        # compact away the per-finding notes written before them
        state["alerts"] = store.alerts.state()
    for family, (attr, _) in KEYED_FAMILIES.items():
        state[family] = {
            str(key): _series_state(series)
            for key, series in getattr(store, attr).items()
        }
    return state


def encode_store_snapshot(store: SampleStore) -> bytes:
    """One SampleStore as a compact ZSJ2 binary blob.

    The sharded launcher's checkpoint-restart path reuses the journal's
    wire codec for its per-rank store payloads: the packed matrix
    blocks keep epoch-boundary checkpoints cheap enough to marshal
    over a pipe every K epochs, and round-tripping through the same
    codec as crash recovery means one tested serialization, not two.
    """
    return _encode_body({"store": _store_state(store)})


def decode_store_snapshot(blob: bytes) -> SampleStore:
    """Rebuild the SampleStore encoded by :func:`encode_store_snapshot`."""
    record = _decode_body(blob)
    if record is None or "store" not in record:
        raise JournalError("undecodable store snapshot blob")
    return _store_from_snapshot(record)


# -- the writer -------------------------------------------------------------
class JournalWriter:
    """Append-only, checkpoint-compacted spill journal of one store.

    ``checkpoint_every`` periods, the whole journal is rewritten as a
    single snapshot via temp-file + fsync + atomic rename — bounding
    its size and guaranteeing a crash never leaves it half-written.
    Snapshots are taken between periods (``open`` before the first
    sample, every other one after a store ``commit``): a period record
    is the block that commit sealed, which no earlier snapshot holds.
    Appends between checkpoints are coalesced into one unbuffered
    ``write()`` per period (in the kernel, surviving a ``kill -9``);
    ``fsync=True`` additionally fsyncs every checkpoint and every
    :meth:`sync` (surviving power loss).  All entry points take one
    lock, so a driver's last-gasp :meth:`sync` or :meth:`note` may
    race the sampler thread's :meth:`record_period` safely.

    ``classify`` (optional) stamps each record with the driver's
    thread-kind labels so the recovered report reproduces them.

    Frames are packed binary ZSJ2; recovery also reads legacy JSON
    ZSJ1 frames, so this writer may append to (or checkpoint over) a
    journal begun by an older ZSJ1 writer.
    """

    def __init__(
        self,
        path: str | Path,
        *,
        checkpoint_every: int = 10,
        fsync: bool = True,
        classify: Optional[Callable[[int], str]] = None,
    ):
        if checkpoint_every < 1:
            raise JournalError("checkpoint_every must be >= 1")
        self.path = Path(path)
        self.checkpoint_every = checkpoint_every
        self.fsync = fsync
        self.classify = classify
        self._file = None
        self._lock = threading.Lock()
        self._seq = 0
        self._ledger_cursor = 0
        self._meta: dict = {}
        #: plain notes written so far, as ((collector, tick, reason),
        #: frame): a checkpoint re-emits those the ledger does not hold
        self._notes: list[tuple[tuple[str, float, str], bytes]] = []
        #: lifetime statistics, for heartbeats and tests
        self.periods_recorded = 0
        self.checkpoints_written = 0
        self.appends_written = 0  # coalesced write() calls issued

    # -- lifecycle ------------------------------------------------------
    @property
    def is_open(self) -> bool:
        return self._file is not None

    def open(self, store: SampleStore, meta: dict) -> None:
        """Write the initial meta + snapshot checkpoint."""
        with self._lock:
            if self._file is not None:
                raise JournalError(f"journal {self.path} already open")
            self._meta = {"version": 2, **meta}
            self._checkpoint_locked(store)

    def close(self, store: Optional[SampleStore] = None) -> None:
        """Final checkpoint (when given the store) and close; idempotent."""
        with self._lock:
            if self._file is None:
                return
            if store is not None:
                self._checkpoint_locked(store)
            self._sync_locked()
            self._file.close()
            self._file = None

    # -- recording ------------------------------------------------------
    def update_meta(self, fields: dict) -> None:
        """Append a meta amendment (e.g. the monitor tid, known late)."""
        with self._lock:
            self._require_open()
            self._meta.update(fields)
            self._emit(_frame2({"kind": "meta", **fields}))

    def record_period(self, store: SampleStore, tick: float) -> None:
        """Journal one committed period; every Nth becomes a checkpoint.

        All of the period's delta records reach the kernel in a single
        ``write()`` — see :meth:`_emit`.
        """
        with self._lock:
            self._require_open()
            self._seq += 1
            self.periods_recorded += 1
            if self._seq % self.checkpoint_every == 0:
                self._checkpoint_locked(store, tick=tick)
                return
            self._emit(_frame2(self._period_record(store, tick)))

    def note(self, tick: float, collector: str, reason: str) -> None:
        """Durable out-of-band diagnostic; touches no store state.

        Safe from signal handlers and the watchdog thread: it reads
        nothing that the sampler may be mutating, and it fsyncs so the
        diagnostic survives the death it is usually announcing.
        """
        with self._lock:
            self._require_open()
            frame = _frame2(
                {
                    "kind": "note",
                    "tick": tick,
                    "collector": collector,
                    "reason": reason,
                }
            )
            self._notes.append(((collector, tick, reason), frame))
            self._emit(frame, sync=True)

    def alert(self, finding: OnlineFinding) -> None:
        """Durable alert note: one online finding, fsynced immediately.

        Alerts ride the ``note`` channel (old readers see a plain
        diagnostic note) with the finding's full typed state attached,
        so :func:`recover_journal` rebuilds the alert ledger
        bit-identically: findings raised since the last checkpoint come
        from these notes, earlier ones from the snapshot's serialized
        ledger (checkpoints compact notes away).
        """
        with self._lock:
            self._require_open()
            self._emit(
                _frame2(
                    {
                        "kind": "note",
                        "tick": finding.tick,
                        "collector": "OnlineDetect",
                        "reason": finding.render(),
                        "alert": finding.to_state(),
                    }
                ),
                sync=True,
            )

    def sync(self) -> None:
        """Flush + fsync everything appended so far (the last-gasp path)."""
        with self._lock:
            self._require_open()
            self._sync_locked(force=True)

    def checkpoint(self, store: SampleStore, tick: Optional[float] = None) -> None:
        """Force a compacting snapshot checkpoint now."""
        with self._lock:
            self._require_open()
            self._checkpoint_locked(store, tick=tick)

    # -- internals ------------------------------------------------------
    def _require_open(self) -> None:
        if self._file is None:
            raise JournalError(f"journal {self.path} is not open")

    def _emit(self, *frames: bytes, sync: bool = False) -> None:
        """Append framed records as one coalesced ``write()``.

        The journal handle is unbuffered (``buffering=0``), so the
        joined buffer hits the kernel in a single syscall: the append
        is all-or-nothing at line granularity with no userspace buffer
        tail left to tear, and costs at most one ``fsync`` on top.
        """
        self._file.write(b"".join(frames))
        self.appends_written += 1
        if sync:
            os.fsync(self._file.fileno())

    def _sync_locked(self, force: bool = False) -> None:
        if self.fsync or force:
            os.fsync(self._file.fileno())

    def _checkpoint_locked(
        self, store: SampleStore, tick: Optional[float] = None
    ) -> None:
        if self._notes:
            # the snapshot carries store state only: a note whose caller
            # did not also ledger it (the last gasp) would be compacted
            # away, so it is re-emitted behind the snapshot
            ledgered = {
                (event.collector, event.tick, event.reason)
                for event in list(store.ledger.events)
            }
            self._notes = [n for n in self._notes if n[0] not in ledgered]
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as handle:
            # meta + snapshot (+ carried notes) coalesced: one write,
            # at most one fsync
            handle.write(
                _frame2({"kind": "meta", **self._meta})
                + _frame2(self._snapshot_record(store, tick))
                + b"".join(frame for _, frame in self._notes)
            )
            handle.flush()
            if self.fsync:
                os.fsync(handle.fileno())
        os.replace(tmp, self.path)
        if self.fsync:
            dirfd = os.open(self.path.parent, os.O_RDONLY)
            os.fsync(dirfd)
            os.close(dirfd)
        if self._file is not None:
            self._file.close()
        self._file = open(self.path, "ab", buffering=0)
        # the snapshot carries every ledger event so far
        self._ledger_cursor = store.ledger.total_events
        self.checkpoints_written += 1

    def _kinds(self, tids) -> dict[str, str]:
        if self.classify is None:
            return {}
        return {str(tid): self.classify(tid) for tid in tids}

    def _snapshot_record(
        self, store: SampleStore, tick: Optional[float]
    ) -> dict:
        return {
            "kind": "snapshot",
            "seq": self._seq,
            "tick": store.prev_tick if tick is None else tick,
            "kinds": self._kinds(store.lwp_series),
            "store": _store_state(store),
        }

    def _period_record(self, store: SampleStore, tick: float) -> dict:
        period = store.period
        lwp = period.lwp
        record = {
            "kind": "period",
            "seq": self._seq,
            "tick": tick,
            "block": _block_state(period),
            # recovery merges labels cumulatively: stamp this period's
            "kinds": self._kinds(lwp.keys),
            **_identity_state(
                store,
                {t: n for t, n in zip(lwp.keys, lwp.names) if n is not None},
                {t: c for t, c in zip(lwp.keys, lwp.affinities) if c is not None},
            ),
            "ledger": _ledger_state(store.ledger, since=self._ledger_cursor),
        }
        self._ledger_cursor = store.ledger.total_events
        return record


# -- recovery ---------------------------------------------------------------
def _parse_frame(data: bytes, pos: int) -> Optional[tuple[dict, int]]:
    """Decode the frame starting at ``pos``; ``None`` if torn/corrupt.

    Works on byte offsets, not lines: a ZSJ2 body is binary and may
    contain newline bytes, so the file cannot be split on ``\\n``.
    The header (magic, length, CRC) is ASCII either way, and the
    declared length walks the parser past the body to the terminator.
    """
    magic = data[pos: pos + 4]
    if (magic != _MAGIC and magic != _MAGIC2) or data[pos + 4: pos + 5] != b" ":
        return None
    len_end = data.find(b" ", pos + 5)
    if len_end < 0:
        return None
    crc_end = data.find(b" ", len_end + 1)
    if crc_end < 0:
        return None
    try:
        length = int(data[pos + 5: len_end])
        crc = int(data[len_end + 1: crc_end], 16)
    except ValueError:
        return None
    if length < 0:
        return None
    body = data[crc_end + 1: crc_end + 1 + length]
    if len(body) != length or zlib.crc32(body) != crc:
        return None
    end = crc_end + 1 + length
    if data[end: end + 1] not in (b"\n", b""):
        return None  # frame not terminated where its length said
    if magic == _MAGIC:
        try:
            record = json.loads(body.decode())
        except (ValueError, UnicodeDecodeError):
            return None
    else:
        record = _decode_body(body)
    if not isinstance(record, dict):
        return None
    return record, end + 1


def read_journal(path: str | Path) -> tuple[list[dict], int]:
    """All decodable records, plus the count of discarded torn records.

    Decoding stops at the first bad frame: everything after a tear is
    unordered debris by definition (the writer is strictly
    append-then-rename), so it is counted and discarded, never parsed.
    The torn count is the number of frame headers visible in the
    debris (at least one — the tear itself).
    """
    data = Path(path).read_bytes()
    records: list[dict] = []
    pos = 0
    size = len(data)
    while pos < size:
        if data[pos] == 0x0A:  # blank line / frame terminator
            pos += 1
            continue
        parsed = _parse_frame(data, pos)
        if parsed is None:
            rest = data[pos:]
            torn = rest.count(_MAGIC + b" ") + rest.count(_MAGIC2 + b" ")
            return records, max(1, torn)
        record, pos = parsed
        records.append(record)
    return records, 0


def _store_from_snapshot(record: dict) -> SampleStore:
    state = record["store"]
    # reproduce the original retention policy: a ring store must evict
    # recovered delta rows exactly as the live one did, or the report's
    # first/last baselines drift from what the monitor would have built
    store = SampleStore(
        keep_series=bool(state.get("keep_series", True)),
        max_rows=state.get("max_rows"),
        summary_rows=int(state.get("summary_rows", 1)),
    )
    _apply_identity(store, state)
    for family, (attr, _) in KEYED_FAMILIES.items():
        getattr(store, attr).update(
            (int(key), _series_from_state(store, entry))
            for key, entry in state.get(family, {}).items()
        )
    store.mem_series = _series_from_state(store, state["mem"])
    ledger_state = state["ledger"]
    store.ledger = DegradationLedger(
        max_events=int(ledger_state.get("max_events") or 1024)
    )
    _apply_ledger(store.ledger, ledger_state)
    alerts_state = state.get("alerts")
    if alerts_state is not None:
        store.alerts = AlertLedger.from_state(alerts_state)
    return store


def _apply_legacy_series(store: SampleStore, series: dict) -> None:
    """The period shape writers before the period block produced.

    One entry per series: new rows to append, or — for summary-mode
    stores and rings that wrapped past the writer's cursor — a full
    ``replace`` of the series.
    """
    for family, entries in series.items():
        for key, entry in ({0: entries} if family == "mem" else entries).items():
            if not entry.get("replace"):
                for row in entry["rows"]:
                    store.add_row(family, int(key), row)
            elif family == "mem":
                store.mem_series = _series_from_state(store, entry)
            else:
                getattr(store, KEYED_FAMILIES[family][0])[int(key)] = (
                    _series_from_state(store, entry)
                )


def _apply_period(store: SampleStore, record: dict) -> None:
    if "series" in record:
        _apply_legacy_series(store, record["series"])
    else:  # a period block goes back through the store's own entry point
        for family, entry in record["block"].items():
            for key, row in zip(entry["keys"], entry["rows"]):
                store.add_row(family, key, row)
    # seal what was replayed, as the live commit did; the totals that
    # commit took from the thread snapshots come from the record, next
    store.commit(float(record["tick"]), ())
    _apply_identity(store, record)
    _apply_ledger(store.ledger, record["ledger"])


class RecoveredRun(StoreBackedRun):
    """A ``kill -9``'d run, rebuilt from its journal.

    The journal's meta dict *is* the run's identity record, so the
    report, :func:`repro.core.export.write_log` and the archive writer
    work on a recovered run exactly as on the monitor that wrote it.
    """

    def __init__(
        self,
        store: SampleStore,
        meta: dict,
        *,
        kinds: Optional[dict[int, str]] = None,
        torn_records: int = 0,
    ):
        self.store = store
        self.meta = meta
        self.kinds = kinds or {}
        self.torn_records = torn_records
        self.driver = str(meta.get("driver", "live"))
        self.baseline = str(meta.get("baseline", "first"))
        self.hz = float(meta.get("hz", USER_HZ))
        self.start_tick = float(meta.get("start_tick", 0.0))
        self.pid = int(meta.get("pid", 0))
        self.rank: Optional[int] = meta.get("rank")
        self.hostname = str(meta.get("hostname", "?"))
        self.cpus_allowed = CpuSet.from_list(str(meta.get("cpus_allowed", "")))
        self.monitor_tid: Optional[int] = meta.get("monitor_tid")

    # -- derived quantities --------------------------------------------
    @property
    def duration_ticks(self) -> float:
        return max(1.0, self.store.prev_tick - self.start_tick)

    @property
    def duration_seconds(self) -> float:
        return self.duration_ticks / self.hz

    def classify(self, tid: int) -> str:
        """Thread kind as stamped by the original driver."""
        if tid in self.kinds:
            return self.kinds[tid]
        if self.monitor_tid is not None and tid == self.monitor_tid:
            return "ZeroSum"
        return super().classify(tid)

    @property
    def alerts(self):
        """The recovered alert ledger (None when no detector ran)."""
        return self.store.alerts


def recover_journal(path: str | Path) -> RecoveredRun:
    """Replay a (possibly truncated) journal into a recovered run.

    Raises :class:`~repro.errors.JournalError` only when no snapshot
    survives at all; a torn trailing record or a tail of lost periods
    is degradation data, recorded in the recovered ledger.  A record
    that decodes but cannot be applied is a tear like any other: the
    records before it are kept, it and everything after it are counted.
    """
    path = Path(path)
    return _recover(path, *read_journal(path))


def _recover(path: Path, records: list[dict], torn: int) -> RecoveredRun:
    meta: dict = {}
    kinds: dict[int, str] = {}
    store: Optional[SampleStore] = None
    #: per note record, its finding or its (collector, tick, reason)
    notes: list = []
    last_tick = 0.0
    for index, record in enumerate(records):
        kind = record.get("kind")
        try:
            if kind == "meta":
                meta.update(
                    (key, value) for key, value in record.items() if key != "kind"
                )
            elif kind == "snapshot" or kind == "period":
                if kind == "snapshot":
                    store = _store_from_snapshot(record)
                elif store is None:
                    raise JournalError("period record before any snapshot")
                else:
                    _apply_period(store, record)
                kinds.update(
                    (int(t), label)
                    for t, label in record.get("kinds", {}).items()
                )
                last_tick = float(record.get("tick", last_tick))
            elif kind == "note" and record.get("alert") is not None:
                notes.append(OnlineFinding.from_state(record["alert"]))
            elif kind == "note":
                notes.append(
                    (
                        str(record.get("collector", "Journal")),
                        float(record.get("tick", last_tick)),
                        str(record.get("reason", "")),
                    )
                )
            # unknown kinds: forward compatibility — skip, never fail
        except (KeyError, IndexError, TypeError, ValueError, AttributeError,
                ReproError):  # well framed, yet not what a writer produces —
            # and perhaps half applied: recover the records before it alone
            return _recover(path, records[:index], torn + len(records) - index)
    if store is None:
        raise JournalError(
            f"{path}: no usable snapshot record (empty or fully torn journal)"
        )
    # notes are journal-only diagnostics; apply them after the replayed
    # ledger state so a later period's counters cannot erase them.
    # Notes carrying a typed alert payload rebuild the alert ledger
    # instead (they are findings, not degradation): the snapshot holds
    # every finding up to the last checkpoint, these notes the rest,
    # so the recovered alert history is bit-identical to the original.
    for note in notes:
        if isinstance(note, OnlineFinding):
            if store.alerts is None:
                store.alerts = AlertLedger()
            store.alerts.record(note)
        else:
            store.ledger.record_error(*note)
    if torn:
        store.ledger.record_error(
            "Journal",
            last_tick,
            f"recovery discarded {torn} torn trailing record(s)",
        )
    try:
        return RecoveredRun(store, meta, kinds=kinds, torn_records=torn)
    except (TypeError, ValueError) as exc:
        raise JournalError(f"{path}: unusable meta record: {exc}") from exc
