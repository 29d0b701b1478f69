"""Crash-durable spill journal: one append-only record per period.

ZeroSum's promise is a usable report *especially* when the run ends
badly — OOM kill, walltime, ``kill -9`` (§3.3).  This module spools a
:class:`~repro.collect.store.SampleStore` to disk as one append-only
stream of framed records (§3.6):

* ``meta`` + ``snapshot`` at :meth:`JournalWriter.open` (the run's
  identity record; the store, usually still empty);
* one ``period`` per committed period: the store's sealed block — per
  family a key array and one ``<f8`` row matrix — the previous totals
  (a key array and a float64 column), and names, affinities, thread
  kinds and the degradation ledger only when they changed;
* every ``checkpoint_every`` periods a checkpoint *seals* (fsync) what
  was appended since the last one, and :meth:`JournalWriter.close`
  appends one ``residue`` (what moved since the last period, never
  rows): every row is written once, never rewritten;
* ``note`` records (last gasp, watchdog stall, online alert) touch no
  store state and are fsynced at once.

A failed write is healed, not retried: the next checkpoint (or close)
*compacts* instead — meta + snapshot via ``<path>.tmp``, fsync and an
atomic rename, since the store still holds what the record lost — and
re-emits the plain notes the store's ledger does not hold.

Each entry point is **one** ``write(2)`` on an unbuffered handle (and at
most one ``fsync``), cut back off the file when it fails or comes up
short: a period reaches the kernel whole or not at all.
A frame is ``ZSJ2 <len> <crc32> <body>\n``, the body a string table
plus a tagged value tree whose arrays are raw little-endian blocks,
decoded as ``np.frombuffer`` views.  The torn trailing frame a
``kill -9`` leaves fails its length/CRC check and is counted in the
recovered ledger.  The meta ``version`` (4) names the record schema; a
journal an older release wrote is a :class:`~repro.errors.JournalError`.

:func:`recover_journal` rebuilds the store in bulk, one array copy per
series, as a :class:`RecoveredRun`, a
:class:`~repro.collect.report.StoreBackedRun` whose report and exports
equal the monitor's: the ``zerosum recover`` workflow.
"""

from __future__ import annotations

import contextlib
import errno
import os
import re
import struct
import threading
import zlib
from dataclasses import asdict
from numbers import Real
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from repro.collect.faults import DegradationEvent, DegradationLedger
from repro.collect.report import StoreBackedRun
from repro.collect.store import KEYED_FAMILIES, SampleStore
from repro.detect.findings import AlertLedger, OnlineFinding
from repro.detect.rules import TopologyFacts
from repro.core.records import MEM_COLUMNS, PeriodBlock, SeriesBuffer
from repro.errors import JournalError, ReproError
from repro.topology.cpuset import CpuSet
from repro.units import USER_HZ

__all__ = [
    "JournalWriter",
    "RecoveredRun",
    "read_journal",
    "recover_journal",
]

_MAGIC = b"ZSJ2"
#: the record schema this module writes and reads (the meta ``version``)
_VERSION = 4

#: ledger counter dicts copied verbatim into / out of records
_LEDGER_COUNTERS = (
    "consecutive_failures", "failed_periods", "retries", "dropped_rows",
    "rolled_back_rows",
)

#: family tag -> row width, for checking a recovered block
_WIDTHS = {
    **{family: len(columns) for family, (_, columns) in KEYED_FAMILIES.items()},
    "mem": len(MEM_COLUMNS),
}

# -- the packed body ----------------------------------------------------------
#
# Little-endian throughout: a string table (uvarint count, then per
# string a uvarint byte length + UTF-8; dict keys and string values
# refer to it by index, interned in first-use order), then one tagged
# value, the record dict.  Tags: 0/1/2 None/False/True; 3 int (zigzag
# uvarint); 4 float (``<d``); 5 str (table index); 6 list (count +
# values); 7 dict (count + key index/value pairs); 8 matrix (nrows +
# ncols + nrows*ncols ``<f8``); 9 keys (count + count ``<i8``).  Tags 8
# and 9 pack straight from ndarray memory and decode as read-only
# ``np.frombuffer`` views: no per-element Python object either way.

_T_NONE, _T_FALSE, _T_TRUE = 0, 1, 2
_T_INT, _T_FLOAT, _T_STR = 3, 4, 5
_T_LIST, _T_DICT, _T_MATRIX, _T_KEYS = 6, 7, 8, 9

_PACK_D = struct.Struct("<d").pack
_UNPACK_D = struct.Struct("<d").unpack_from


def _pack_uvarint(out: bytearray, value: int) -> None:
    """LEB128 unsigned varint, appended to ``out``."""
    while value > 0x7F:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)


def _read_uvarint(data: bytes, pos: int) -> tuple[int, int]:
    if data[pos] < 0x80:  # the common one-byte case, without the loop
        return data[pos], pos + 1
    result = shift = 0
    while True:
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7


def _encode_value(out: bytearray, strings: dict, value) -> None:
    kind = type(value)  # exact types first: the common leaves
    if kind is dict:
        out.append(_T_DICT)
        _pack_uvarint(out, len(value))
        for key, item in value.items():
            _pack_uvarint(out, strings.setdefault(key, len(strings)))
            _encode_value(out, strings, item)
    elif kind is float:
        out.append(_T_FLOAT)
        out += _PACK_D(value)
    elif kind is str:
        out.append(_T_STR)
        _pack_uvarint(out, strings.setdefault(value, len(strings)))
    elif kind is int:
        out.append(_T_INT)
        _pack_uvarint(out, (value << 1) if value >= 0 else ((~value) << 1) | 1)
    elif kind is np.ndarray and value.ndim == 2 and value.dtype == np.float64:
        out.append(_T_MATRIX)
        _pack_uvarint(out, value.shape[0])
        _pack_uvarint(out, value.shape[1])
        out += value.astype("<f8", copy=False).tobytes()
    elif kind is np.ndarray and value.ndim == 1 and value.dtype.kind in "iu":
        out.append(_T_KEYS)
        _pack_uvarint(out, value.shape[0])
        out += value.astype("<i8", copy=False).tobytes()
    elif kind is np.ndarray:
        _encode_value(out, strings, value.tolist())
    elif kind is list or kind is tuple:
        out.append(_T_LIST)
        _pack_uvarint(out, len(value))
        for item in value:
            _encode_value(out, strings, item)
    elif value is None or isinstance(value, bool):
        out.append({None: _T_NONE, False: _T_FALSE, True: _T_TRUE}[value])
    elif isinstance(value, (int, float, str)):  # subclasses: np.float64...
        base = next(b for b in (int, float, str) if isinstance(value, b))
        _encode_value(out, strings, base(value))
    else:
        raise JournalError(f"journal payload value of type "
                           f"{kind.__name__} is not serializable")


def _encode_body(payload: dict) -> bytes:
    """String table + tagged value tree (a frame body)."""
    strings: dict[str, int] = {}
    tree = bytearray()
    _encode_value(tree, strings, payload)
    body = bytearray()
    _pack_uvarint(body, len(strings))
    for text in strings:  # dicts preserve insertion == index order
        raw = text.encode("utf-8")
        _pack_uvarint(body, len(raw))
        body += raw
    return bytes(body + tree)


def _decode_value(data: bytes, pos: int, strings: list) -> tuple[object, int]:
    tag = data[pos]
    pos += 1
    if tag == _T_DICT:
        count, pos = _read_uvarint(data, pos)
        record = {}
        for _ in range(count):
            if data[pos] < 0x80:  # a one-byte key index, inline
                key, pos = strings[data[pos]], pos + 1
            else:
                index, pos = _read_uvarint(data, pos)
                key = strings[index]
            record[key], pos = _decode_value(data, pos, strings)
        return record, pos
    if tag == _T_FLOAT:
        return _UNPACK_D(data, pos)[0], pos + 8
    if tag == _T_STR:
        index, pos = _read_uvarint(data, pos)
        return strings[index], pos
    if tag == _T_INT:
        raw, pos = _read_uvarint(data, pos)
        return (raw >> 1) ^ -(raw & 1), pos
    if tag == _T_MATRIX:
        nrows, pos = _read_uvarint(data, pos)
        ncols, pos = _read_uvarint(data, pos)
        if nrows and not ncols:
            raise ValueError("matrix rows without columns")
        matrix = np.frombuffer(data, "<f8", nrows * ncols, pos)
        return matrix.reshape(nrows, ncols), pos + 8 * nrows * ncols
    if tag == _T_KEYS:
        count, pos = _read_uvarint(data, pos)
        return np.frombuffer(data, "<i8", count, pos), pos + 8 * count
    if tag == _T_LIST:
        count, pos = _read_uvarint(data, pos)
        items = []
        for _ in range(count):
            item, pos = _decode_value(data, pos, strings)
            items.append(item)
        return items, pos
    if tag <= _T_TRUE:
        return (None, False, True)[tag], pos
    raise JournalError(f"unknown journal value tag {tag}")


def _decode_body(body: bytes) -> Optional[dict]:
    """Decode one body; ``None`` for anything malformed."""
    try:
        count, pos = _read_uvarint(body, 0)
        strings = []
        for _ in range(count):
            length, pos = _read_uvarint(body, pos)
            strings.append(body[pos: pos + length].decode("utf-8"))
            pos += length
        value, pos = _decode_value(body, pos, strings)
    except (IndexError, struct.error, JournalError, OverflowError,
            ValueError,  # bad UTF-8; a short or column-less array
            RecursionError):  # a nesting bomb
        return None
    if pos != len(body) or not isinstance(value, dict):
        return None
    return value


def _frame(payload: dict) -> bytes:
    """One journal frame: magic, body length, CRC32, packed body."""
    body = _encode_body(payload)
    return b"%s %d %08x %s\n" % (_MAGIC, len(body), zlib.crc32(body), body)


# -- state (de)serialization ------------------------------------------------
def _series_state(series: SeriesBuffer) -> dict:
    return {"columns": list(series.columns), "rows": series.array}


def _series_from_state(state: dict) -> SeriesBuffer:
    series = SeriesBuffer(tuple(state["columns"]))
    series.extend(state["rows"])
    return series


def _ledger_mark(ledger: DegradationLedger) -> tuple:
    """What a ledger record would carry, cheaply comparable: has it moved?"""
    return (
        ledger.total_events,
        len(ledger.disabled),
        *(tuple(getattr(ledger, key).items()) for key in _LEDGER_COUNTERS),
    )


def _ledger_state(ledger: DegradationLedger, *, since: int) -> dict:
    """Counters in full (they are small), events from index ``since``
    (those the ledger's ring already evicted cannot be re-journaled)."""
    events = list(ledger.events)
    start = ledger.total_events - len(events)
    fresh = events[max(0, since - start):]
    return {
        "total_events": ledger.total_events,
        "max_events": ledger.events.maxlen,
        "counters": {k: getattr(ledger, k) for k in _LEDGER_COUNTERS},
        "disabled": {name: asdict(e) for name, e in ledger.disabled.items()},
        "events": [asdict(event) for event in fresh],
    }


def _apply_ledger(ledger: DegradationLedger, state: dict) -> None:
    for key in _LEDGER_COUNTERS:
        setattr(ledger, key, dict(state["counters"][key]))
    ledger.disabled = {
        name: DegradationEvent(**e) for name, e in state["disabled"].items()
    }
    for event in state["events"]:
        ledger.events.append(DegradationEvent(**event))
    ledger.total_events = int(state["total_events"])


def _identity_state(store: SampleStore, names: dict, affinity: dict) -> dict:
    """Progress counters and previous totals, plus identity facts.

    ``names`` / ``affinity`` are the store's whole maps in a snapshot
    and, in a period or residue record, only what changed since the
    journal last wrote them (omitted when nothing did).
    """
    totals = store.prev_totals
    state: dict = {
        "prev_totals": {
            "keys": np.fromiter(totals, np.int64, len(totals)),
            "values": np.fromiter(totals.values(), np.float64, len(totals))[:, None],
        },
        "prev_tick": store.prev_tick,
        "samples_taken": store.samples_taken,
        "last_thread_count": store.last_thread_count,
    }
    if names:
        state["names"] = {str(tid): name for tid, name in names.items()}
    if affinity:
        state["affinity"] = {str(t): cpus.to_list() for t, cpus in affinity.items()}
    return state


def _apply_identity(store: SampleStore, state: dict, totals: bool = True) -> None:
    # the maps only ever grow, so merging a record's changes and
    # installing a snapshot's whole maps are the same operation; the
    # totals are checked always, installed only if no later record's are
    if "names" in state:
        store.lwp_names.update((int(t), str(n)) for t, n in state["names"].items())
    if "affinity" in state:
        store.lwp_affinity.update(
            (int(t), CpuSet.from_list(spec)) for t, spec in state["affinity"].items()
        )
    keys = np.asarray(state["prev_totals"]["keys"], dtype=np.int64)
    values = np.asarray(state["prev_totals"]["values"], dtype=np.float64)
    if values.shape != (len(keys), 1):
        raise JournalError("previous totals: keys and values disagree")
    if totals:
        store.prev_totals = dict(zip(keys.tolist(), values[:, 0].tolist()))
    store.prev_tick = float(state["prev_tick"])
    store.samples_taken = int(state["samples_taken"])
    store.last_thread_count = int(state["last_thread_count"])


def _block_state(period: PeriodBlock) -> dict:
    """A sealed period block: per family a key array + its row matrix."""
    return {
        family: {"keys": np.array(block.keys, dtype=np.int64),
                 "rows": block.rows}
        for family, block in zip(PeriodBlock._fields, period)
        if block.keys
    }


def _block_from_state(state: dict) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """A period record's block, checked before any of it is applied."""
    block = {}
    for family, entry in state.items():
        keys = np.asarray(entry["keys"], dtype=np.int64)
        rows = np.asarray(entry["rows"], dtype=np.float64)
        if keys.ndim != 1 or rows.shape != (len(keys), _WIDTHS[family]):
            raise JournalError(f"malformed {family} block")
        block[family] = keys, rows
    return block


def run_state(store: SampleStore) -> dict:
    """A store's state beside its series: identity, ledger, alerts (a
    snapshot's, and as JSON a §3.6 log's record section)."""
    ledger = store.ledger
    state: dict = {
        **_identity_state(store, store.lwp_names, store.lwp_affinity),
        "ledger": _ledger_state(
            ledger, since=ledger.total_events - len(ledger.events)
        ),
    }
    if store.alerts is not None:
        # a compaction drops the alert notes written before it: the
        # snapshot carries the alert ledger itself
        state["alerts"] = store.alerts.state()
    return state


def apply_run_state(store: SampleStore, state: dict) -> None:
    """Install :func:`run_state` output on a store (its series aside)."""
    _apply_identity(store, state)
    store.ledger = DegradationLedger(max_events=int(state["ledger"]["max_events"]))
    _apply_ledger(store.ledger, state["ledger"])
    if state.get("alerts") is not None:
        store.alerts = AlertLedger.from_state(state["alerts"])


def _store_state(store: SampleStore) -> dict:
    """Marshal a store's complete state (series, identity, ledgers)."""
    state = {**run_state(store), "mem": _series_state(store.mem_series)}
    for family, (attr, _) in KEYED_FAMILIES.items():
        state[family] = {
            str(key): _series_state(series)
            for key, series in getattr(store, attr).items()
        }
    return state


def _moved(held: dict, pairs) -> dict:
    """The ``(tid, value)`` pairs whose value ``held`` lacks (a value
    held as the same object costs no equality compare)."""
    return {
        t: v for t, v in pairs
        if v is not None and (h := held.get(t)) is not v and h != v
    }


# -- the writer -------------------------------------------------------------
class JournalWriter:
    """Append-only spill journal of one store.

    Each committed period is one ``period`` record in one unbuffered
    ``write()`` (in the kernel, so it survives ``kill -9``).  Every
    ``checkpoint_every``-th period **seals** (fsync; :meth:`close`
    appends a ``residue``): rows are written once, never rewritten.
    After a failed write the next checkpoint (or :meth:`close`)
    **compacts** instead (meta + snapshot via temp file + fsync + atomic
    rename, as :meth:`open` starts every journal): the store still holds
    what the write lost, and a crash mid-compaction leaves the old file.

    ``fsync=False`` skips the checkpoint fsyncs (the page cache
    survives ``kill -9``, not power loss); notes and :meth:`sync`
    always fsync.  One lock guards every entry point, so a last-gasp
    :meth:`sync` or :meth:`note` may race :meth:`record_period`.
    ``classify`` (optional) stamps the driver's thread-kind labels,
    when they change, so the recovered report reproduces them.
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
        #: a write failed: the next checkpoint compacts
        self._compact_next = False
        self._meta: dict = {}
        #: what the journal already holds of the identity maps, the
        #: kinds and the ledger: records carry only what differs
        self._names: dict[int, str] = {}
        self._affinity: dict[int, CpuSet] = {}
        self._kinds: dict[int, str] = {}
        self._ledger_cursor = 0
        self._ledger_mark: tuple = ()
        #: plain notes written so far, as ((collector, tick, reason),
        #: frame): a compaction re-emits those the ledger does not hold
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
        """Write the initial meta + snapshot."""
        with self._lock:
            if self._file is not None:
                raise JournalError(f"journal {self.path} already open")
            self._meta = {"version": _VERSION, **meta}
            self._compact(store)

    def close(self, store: Optional[SampleStore] = None,
              meta: Optional[dict] = None) -> None:
        """Residue or compaction (given the store) carrying the closing
        ``meta`` amendment (duration, deadlock note), fsync, close;
        idempotent."""
        with self._lock:
            if self._file is None:
                return
            self._meta.update(meta or {})
            if store is not None and not self._compact_next:
                with contextlib.suppress(OSError):  # failed: compact instead
                    self._append("residue", store, store.prev_tick, meta)
            if store is not None and self._compact_next:
                self._compact(store)
            self._sync()
            self._file.close()
            self._file = None

    # -- recording ------------------------------------------------------
    def update_meta(self, fields: dict) -> None:
        """Append a meta amendment (e.g. the monitor tid, known late)."""
        with self._lock:
            self._require_open()
            self._meta.update(fields)
            self._emit(_frame({"kind": "meta", **fields}))

    def record_period(self, store: SampleStore, tick: float) -> None:
        """Journal one committed period in one ``write()``; every Nth
        is also a checkpoint."""
        with self._lock:
            self._require_open()
            self.periods_recorded += 1
            checkpoint = self.periods_recorded % self.checkpoint_every == 0
            if checkpoint and self._compact_next:
                self._compact(store, tick=tick)  # the snapshot holds it
                return
            self._append("period", store, tick)
            if checkpoint:
                self._seal()

    def note(self, tick: float, collector: str, reason: str) -> None:
        """Durable out-of-band diagnostic, safe from signal handlers and
        the watchdog thread: it reads no store state, and it fsyncs so it
        survives the death it is usually announcing."""
        self._note({"tick": tick, "collector": collector, "reason": reason})

    def alert(self, finding: OnlineFinding) -> None:
        """Durable alert note: one online finding, fsynced at once, its
        typed state along so recovery rebuilds the alert ledger exactly
        (a compaction's snapshot carries the findings before it)."""
        self._note({
            "tick": finding.tick,
            "collector": "OnlineDetect",
            "reason": finding.render(),
            "alert": finding.to_state(),
        })

    def sync(self) -> None:
        """Flush + fsync everything appended so far (the last-gasp path)."""
        with self._lock:
            self._require_open()
            os.fsync(self._file.fileno())

    def checkpoint(self, store: SampleStore, tick: Optional[float] = None) -> None:
        """Checkpoint now: seal, or compact after a failed write."""
        with self._lock:
            self._require_open()
            if self._compact_next:
                self._compact(store, tick=tick)
            else:
                self._seal()

    # -- internals ------------------------------------------------------
    def _require_open(self) -> None:
        if self._file is None:
            raise JournalError(f"journal {self.path} is not open")

    def _emit(self, frames: bytes, sync: bool = False) -> None:
        """One coalesced ``write()`` on the unbuffered handle: whole frames
        reach the file or none do — one that raises or comes up short (a
        full disk) is cut back off and raised; the next checkpoint compacts."""
        start = os.fstat(self._file.fileno()).st_size
        try:
            written = self._file.write(frames)
            if written != len(frames):
                raise OSError(errno.ENOSPC, f"short journal write: {written} "
                              f"of {len(frames)} bytes")
        except BaseException:
            self._compact_next = True
            with contextlib.suppress(OSError):
                os.ftruncate(self._file.fileno(), start)
            raise
        self.appends_written += 1
        if sync:
            os.fsync(self._file.fileno())

    def _note(self, fields: dict) -> None:
        with self._lock:
            self._require_open()
            frame = _frame({"kind": "note", **fields})
            if "alert" not in fields:
                key = (fields["collector"], fields["tick"], fields["reason"])
                self._notes.append((key, frame))
            self._emit(frame, sync=True)

    def _sync(self) -> None:
        if self.fsync:
            os.fsync(self._file.fileno())

    def _seal(self) -> None:
        """The records since the last checkpoint stay as they are: sync."""
        self._sync()
        self.checkpoints_written += 1

    def _compact(self, store: SampleStore, tick: Optional[float] = None) -> None:
        """Rewrite the journal as meta + snapshot (+ carried notes)."""
        # the snapshot carries store state only: a note whose caller did
        # not also ledger it (the last gasp) is re-emitted behind it
        ledgered = {(e.collector, e.tick, e.reason) for e in store.ledger.events}
        self._notes = [n for n in self._notes if n[0] not in ledgered]
        kinds = {t: self.classify(t) for t in store.lwp_series} if self.classify else {}
        snapshot = {
            "kind": "snapshot",
            "tick": store.prev_tick if tick is None else tick,
            "kinds": {str(t): label for t, label in kinds.items()},
            "store": _store_state(store),
        }
        ledger = store.ledger
        carried = (dict(store.lwp_names), dict(store.lwp_affinity), kinds,
                   _ledger_mark(ledger), ledger.total_events)
        tmp = self.path.with_name(self.path.name + ".tmp")
        with open(tmp, "wb") as handle:  # one write, at most one fsync
            handle.write(
                _frame({"kind": "meta", **self._meta})
                + _frame(snapshot)
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
        self._compact_next = False
        self.checkpoints_written += 1
        self._hold(*carried)  # the snapshot holds the whole maps and ledger

    def _append(self, kind: str, store: SampleStore, tick: float,
                meta: Optional[dict] = None) -> None:
        """Append a ``period`` (the sealed block + what moved) or, at
        close, a ``residue`` (what moved since the last period; no rows)
        and the closing ``meta`` amendment behind it."""
        record: dict = {"kind": kind, "tick": tick}
        if kind == "period":
            lwp = store.period.lwp
            record["block"] = _block_state(store.period)
            tids = lwp.keys
            names, affinity = zip(tids, lwp.names), zip(tids, lwp.affinities)
        else:
            tids = tuple(store.lwp_series)
            names = store.lwp_names.items()
            affinity = store.lwp_affinity.items()
        names = _moved(self._names, names)
        affinity = _moved(self._affinity, affinity)
        kinds = {}
        if self.classify is not None:
            kinds = _moved(self._kinds, ((t, self.classify(t)) for t in tids))
        record.update(_identity_state(store, names, affinity))
        if kinds:
            record["kinds"] = {str(t): label for t, label in kinds.items()}
        ledger, mark = store.ledger, _ledger_mark(store.ledger)
        if mark != self._ledger_mark:
            record["ledger"] = _ledger_state(ledger, since=self._ledger_cursor)
        carried = (names, affinity, kinds, mark, ledger.total_events)
        frames = _frame(record)
        if meta:
            frames += _frame({"kind": "meta", **meta})
        self._emit(frames)
        self._hold(*carried)

    def _hold(self, names, affinity, kinds, mark: tuple, cursor: int) -> None:
        """A record reached the file: later ones need not carry what it
        did.  Only then — a failed write must not hide its facts."""
        self._names.update(names)
        self._affinity.update(affinity)
        self._kinds.update(kinds)
        self._ledger_mark, self._ledger_cursor = mark, cursor


# -- recovery ---------------------------------------------------------------
#: a frame header: magic, body length, CRC32 of the body
_HEADER = re.compile(rb"ZSJ2 (\d{1,12}) ([0-9a-fA-F]{8}) ")


def _parse_frame(data: bytes, pos: int) -> Optional[tuple[dict, int]]:
    """Decode the frame starting at ``pos``; ``None`` if torn/corrupt.
    The header's declared length, not a newline, ends the binary body."""
    header = _HEADER.match(data, pos)
    if header is None:
        return None
    start = header.end()
    end = start + int(header[1])
    body = data[start:end]
    if len(body) != end - start or zlib.crc32(body) != int(header[2], 16):
        return None
    if data[end: end + 1] not in (b"\n", b""):
        return None  # frame not terminated where its length said
    record = _decode_body(body)
    return None if record is None else (record, end + 1)


def read_journal(path: str | Path) -> tuple[list[dict], int]:
    """All decodable records, plus the count of discarded torn records.

    Decoding stops at the first bad frame: what follows a tear is
    debris (the writer only appends or renames), counted by the frame
    headers visible in it (at least one, the tear), never parsed.
    """
    data = Path(path).read_bytes()
    if data.startswith(b"ZSJ1 "):  # the JSON frames of version 1
        raise _old_version(path, 1)
    records: list[dict] = []
    pos = 0
    while pos < len(data):
        if data[pos] == 0x0A:  # blank line / frame terminator
            pos += 1
            continue
        parsed = _parse_frame(data, pos)
        if parsed is None:
            return records, max(1, data.count(_MAGIC + b" ", pos))
        record, pos = parsed
        records.append(record)
    return records, 0


def _old_version(path, version) -> JournalError:
    reason = f"written by journal version {version}; recover it with that release"
    return JournalError(f"{path}: {reason}")


def _store_from_snapshot(record: dict) -> SampleStore:
    state = record["store"]
    store = SampleStore()
    apply_run_state(store, state)
    for family, (attr, _) in KEYED_FAMILIES.items():
        getattr(store, attr).update(
            (int(key), _series_from_state(entry))
            for key, entry in state[family].items()
        )
    store.mem_series = _series_from_state(state["mem"])
    return store


class RecoveredRun(StoreBackedRun):
    """A finished run, frozen as its store plus its run record.

    The one class of every run rebuilt after the fact: from a journal
    (:func:`recover_journal`), a §3.6 log (``replay_log``) or a sharded
    worker (``ZeroSum.detach``, which adds the node's ``facts`` and the
    sim-only ``extras``).  The record is ``journal_meta()``'s dict, its
    values verbatim; one without a duration (a journal with no close)
    ends at the last sample.
    """

    ended = True

    def __init__(self, store: SampleStore, record: dict, *,
                 torn_records: int = 0, facts: Optional[TopologyFacts] = None,
                 **extras):
        self.store = store
        self.record = record
        self.torn_records = torn_records
        self.driver = str(record.get("driver", "live"))
        self.baseline = str(record.get("baseline", "first"))
        self.hz = _number(record, "hz", USER_HZ)
        self.start_tick = _number(record, "start_tick", 0.0)
        self.pid = _number(record, "pid", 0)
        self.rank: Optional[int] = _number(record, "rank", None)
        self.hostname = str(record.get("hostname", "?"))
        self.cpus_allowed = CpuSet.from_list(str(record.get("cpus_allowed", "")))
        self.kinds = {int(t): str(kind)
                      for t, kind in record.get("kinds", {}).items()}
        self.monitor_tid: Optional[int] = _number(record, "monitor_tid", None)
        self._duration = (_number(record, "duration_ticks", None),
                          _number(record, "duration_seconds", None))
        self._banner = record.get("banner") or []  # shared, not copied
        if not isinstance(self._banner, list) or not all(
            isinstance(line, str) for line in self._banner
        ):
            raise TypeError("run record field 'banner' is not a list of lines")
        self._facts = facts
        vars(self).update(extras)

    @property
    def duration_ticks(self) -> float:
        ticks = self._duration[0]
        if ticks is None:  # no close: the window ends at the last sample
            return max(1.0, self.store.prev_tick - self.start_tick)
        return ticks

    @property
    def duration_seconds(self) -> float:
        seconds = self._duration[1]
        return self.duration_ticks / self.hz if seconds is None else seconds

    @property
    def facts(self) -> TopologyFacts:
        """The node's facts when detached from it, else the base's."""
        return super().facts if self._facts is None else self._facts

    def classify(self, tid: int) -> str:
        """Thread kind as stamped by the original driver."""
        if tid in self.kinds:
            return self.kinds[tid]
        if self.monitor_tid is not None and tid == self.monitor_tid:
            return "ZeroSum"
        return super().classify(tid)

    def banner_lines(self) -> list[str]:
        return list(self._banner) if self._banner else super().banner_lines()

    def deadlock_note(self) -> str:
        return str(self.record.get("deadlock_note", ""))


def _number(record: dict, key: str, default):
    """A numeric record field, verbatim (an int stays an int)."""
    value = record.get(key, default)
    if value is not default and (type(value) is bool or not isinstance(value, Real)):
        raise TypeError(f"run record field {key!r} is not a number: {value!r}")
    return value


def recover_journal(path: str | Path) -> RecoveredRun:
    """Replay a (possibly truncated) journal into a recovered run.

    Raises :class:`~repro.errors.JournalError` when no snapshot
    survives at all, or when an older release wrote the journal; a
    torn trailing record or a tail of lost periods is degradation
    data, recorded in the recovered ledger.  A record that decodes but
    cannot be applied is a tear like any other: the records before it
    are kept, it and everything after it are counted.
    """
    path = Path(path)
    return _recover(path, *read_journal(path))


def _recover(path: Path, records: list[dict], torn: int) -> RecoveredRun:
    meta: dict = {}
    kinds: dict[int, str] = {}
    store: Optional[SampleStore] = None
    #: the snapshot's later blocks per family, installed in bulk at the end
    pending: dict[str, list] = {}
    #: per note record, its finding or its (collector, tick, reason)
    notes: list = []
    last_tick = 0.0
    #: the newest period or residue: its previous totals are the run's
    last = max((i for i, r in enumerate(records)
                if r.get("kind") in ("period", "residue")), default=-1)
    for index, record in enumerate(records):
        kind = record.get("kind")
        if kind == "meta" and record.get("version", _VERSION) != _VERSION:
            raise _old_version(path, record["version"])
        try:
            if kind == "meta":
                meta.update((k, v) for k, v in record.items() if k != "kind")
            elif kind == "snapshot":
                store = _store_from_snapshot(record)
                pending = {f: [] for f in _WIDTHS}
            elif kind in ("period", "residue"):
                if store is None:
                    raise JournalError(f"{kind} record before any snapshot")
                if kind == "period":
                    for family, pair in _block_from_state(record["block"]).items():
                        pending[family].append(pair)
                _apply_identity(store, record, totals=index == last)
                if "ledger" in record:
                    _apply_ledger(store.ledger, record["ledger"])
            elif kind == "note" and record.get("alert") is not None:
                notes.append(OnlineFinding.from_state(record["alert"]))
            elif kind == "note":
                notes.append((str(record.get("collector", "Journal")),
                              float(record.get("tick", last_tick)),
                              str(record.get("reason", ""))))
            if kind in ("snapshot", "period", "residue"):
                kinds.update((int(t), str(label))
                             for t, label in record.get("kinds", {}).items())
                last_tick = float(record["tick"])
            # unknown kinds: forward compatibility — skip, never fail
        except (KeyError, IndexError, TypeError, ValueError, AttributeError,
                ReproError):  # well framed, yet not what a writer produces —
            # and perhaps half applied: recover the records before it alone
            return _recover(path, records[:index], torn + len(records) - index)
    if store is None:
        raise JournalError(
            f"{path}: no usable snapshot record (empty or fully torn journal)"
        )
    for family, pairs in pending.items():
        if pairs:
            store.extend(family, np.concatenate([k for k, _ in pairs]),
                         np.concatenate([r for _, r in pairs]))
    # notes are journal-only diagnostics, applied after the replayed
    # ledger state so a later period's counters cannot erase them — and
    # only those the ledger does not hold already (a watchdog stall is
    # both).  Alert notes rebuild the alert ledger instead: a snapshot
    # holds the findings before it, these notes the rest.
    ledgered = {(e.collector, e.tick, e.reason) for e in store.ledger.events}
    for note in notes:
        if isinstance(note, OnlineFinding):
            if store.alerts is None:
                store.alerts = AlertLedger()
            store.alerts.record(note)
        elif note not in ledgered:
            store.ledger.record_error(*note)
    if torn:
        store.ledger.record_error(
            "Journal", last_tick,
            f"recovery discarded {torn} torn trailing record(s)",
        )
    # the journal's kind stamps are the record's: a restarted run's meta
    # may hold an older map
    meta["kinds"] = {str(t): label for t, label in kinds.items()}
    try:
        return RecoveredRun(store, meta, torn_records=torn)
    except (TypeError, ValueError) as exc:
        raise JournalError(f"{path}: unusable meta record: {exc}") from exc
