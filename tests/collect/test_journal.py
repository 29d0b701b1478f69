"""Spill journal: framing, round trips, torn tails, containment."""

import os
import shutil
import zlib

import numpy as np
import pytest

from tests.helpers import JOURNAL_META as META, frame_ends, run_miniqmc
from repro.cli import main
from repro.collect import CollectionEngine, FaultPolicy, SampleStore
from repro.collect import journal as journal_module
from repro.collect.journal import (
    JournalWriter,
    RecoveredRun,
    _decode_body,
    _encode_body,
    _frame,
    read_journal,
    recover_journal,
)
from repro.core import ZeroSumConfig, build_report
from repro.core.heartbeat import ThreadSnapshot
from repro.core.records import HWT_COLUMNS, LWP_COLUMNS, MEM_COLUMNS
from repro.detect import OnlineDetector, OnlineFinding, TopologyFacts
from repro.errors import JournalError, ProcFSError
from repro.topology import CpuSet


def lwp_row(tick: float, utime: float) -> tuple:
    row = [0.0] * len(LWP_COLUMNS)
    row[0], row[2] = tick, utime
    return tuple(row)


def hwt_row(tick: float, user: float) -> tuple:
    row = [0.0] * len(HWT_COLUMNS)
    row[0], row[1] = tick, user
    return tuple(row)


def drive(store: SampleStore, writer: JournalWriter, ticks) -> None:
    """Simulate committed periods the way a driver would."""
    for t in ticks:
        store.add_lwp_row(100, lwp_row(t, 10.0 * t), name="main",
                          affinity=CpuSet([0]))
        store.add_lwp_row(101, lwp_row(t, 5.0 * t), name="worker",
                          affinity=CpuSet([1]))
        store.add_hwt_row(0, hwt_row(t, 50.0))
        store.add_mem_row((t,) + (0.0,) * (len(MEM_COLUMNS) - 1))
        store.commit(t, [])
        writer.record_period(store, t)


def assert_stores_equal(a: SampleStore, b: SampleStore) -> None:
    assert set(a.lwp_series) == set(b.lwp_series)
    assert set(a.hwt_series) == set(b.hwt_series)
    for mine, theirs in ((a.lwp_series, b.lwp_series),
                         (a.hwt_series, b.hwt_series)):
        for key, series in mine.items():
            assert series.array.tobytes() == theirs[key].array.tobytes()
            assert series.appended == theirs[key].appended
    assert a.mem_series.array.tolist() == b.mem_series.array.tolist()
    assert a.lwp_names == b.lwp_names
    assert a.lwp_affinity == b.lwp_affinity
    assert a.prev_totals == b.prev_totals
    assert a.prev_tick == b.prev_tick
    assert a.samples_taken == b.samples_taken


class TestFraming:
    @staticmethod
    def _read(tmp_path, data: bytes):
        (tmp_path / "one.zsj").write_bytes(data)
        return read_journal(tmp_path / "one.zsj")

    def test_frame_round_trip(self, tmp_path):
        payload = {"kind": "note", "tick": 1.5, "reason": "x"}
        assert self._read(tmp_path, _frame(payload)) == ([payload], 0)

    def test_truncated_line_is_rejected(self, tmp_path):
        line = _frame({"kind": "period", "tick": 2.0}).rstrip(b"\n")
        assert self._read(tmp_path, line[:-3]) == ([], 1)

    def test_corrupt_body_is_rejected(self, tmp_path):
        line = bytearray(_frame({"kind": "period"}).rstrip(b"\n"))
        line[-2] ^= 0xFF
        assert self._read(tmp_path, bytes(line)) == ([], 1)

    def test_garbage_is_rejected(self, tmp_path):
        assert self._read(tmp_path, b"not a journal line") == ([], 1)

    def test_read_stops_at_first_tear(self, tmp_path):
        path = tmp_path / "j.zsj"
        good = _frame({"kind": "meta"}) + _frame({"kind": "snapshot"})
        path.write_bytes(good + b"ZSJ2 999 deadbeef {tor" + b"\n"
                         + _frame({"kind": "period"}))
        records, torn = read_journal(path)
        # the record after the tear is unordered debris: counted, not parsed
        assert [r["kind"] for r in records] == ["meta", "snapshot"]
        assert torn == 2


class TestBinaryCodec:
    """Packed bodies decode to exactly what was encoded."""

    PAYLOADS = [
        {"kind": "note", "tick": 1.5, "reason": "x"},
        {"kind": "meta", "pid": 100, "rank": None, "flag": True,
         "neg": -12345, "big": 1 << 80, "zero": 0, "off": False},
        {"kind": "period", "series": {"lwp": {"100": {
            "columns": ["tick", "utime"],
            "rows": [[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]],
            "appended": 3,
        }}}, "ragged": [[1.0], [2.0, 3.0]], "mixed": [1, 2.0, "s", None]},
        {"kind": "snapshot", "empty_rows": [], "empty_map": {},
         "unicode": "nöde-0 → ✓"},
    ]

    def test_body_round_trip(self):
        for payload in self.PAYLOADS:
            assert _decode_body(_encode_body(payload)) == payload

    def test_frame2_round_trip_through_read_journal(self, tmp_path):
        path = tmp_path / "j.zsj"
        path.write_bytes(b"".join(_frame(p) for p in self.PAYLOADS))
        records, torn = read_journal(path)
        assert torn == 0
        assert records == self.PAYLOADS

    def test_matrix_block_matches_json_decode(self):
        # series rows and keys take the packed-array paths and decode as
        # arrays holding the very values JSON would, bit for bit
        rows = [[1.0, 2.5, -0.0], [float("inf"), 1e-300, 3.0]]
        import json

        via_json = json.loads(json.dumps({"rows": rows}))
        decoded = _decode_body(_encode_body({
            "rows": np.array(rows), "keys": np.array([7, -1, 1 << 40]),
        }))
        assert decoded["rows"].dtype == np.float64
        assert decoded["rows"].tolist() == via_json["rows"]
        assert all(
            a.hex() == b.hex()
            for ra, rb in zip(decoded["rows"].tolist(), via_json["rows"])
            for a, b in zip(ra, rb)
        )
        assert decoded["keys"].tolist() == [7, -1, 1 << 40]

    def test_binary_body_may_contain_newlines(self, tmp_path):
        # 0x0A bytes inside a packed body must not split the frame
        payload = {"kind": "note", "tick": 10.0,
                   "reason": "line one\nline two\nline three"}
        path = tmp_path / "j.zsj"
        body = _frame(payload)
        assert b"\n" in body[:-1]  # the tear case this guards against
        path.write_bytes(body + _frame({"kind": "meta"}))
        records, torn = read_journal(path)
        assert torn == 0
        assert records == [payload, {"kind": "meta"}]


class TestOlderVersions:
    def test_older_journal_is_one_typed_error(self, tmp_path, capsys):
        path = tmp_path / "v2.zsj"
        path.write_bytes(_frame({"kind": "meta", "version": 2, **META})
                         + _frame({"kind": "snapshot", "store": {}}))
        line = f"{path}: written by journal version 2; " \
            "recover it with that release"
        with pytest.raises(JournalError) as caught:
            recover_journal(path)
        assert str(caught.value) == line
        assert main(["recover", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"zerosum-sim: error: {line}\n"
        # version 1 wrote JSON frames: refused the same way
        path.write_bytes(b'ZSJ1 2 00000000 {}\n')
        with pytest.raises(JournalError, match="journal version 1;"):
            recover_journal(path)


class TestRoundTrip:
    def test_full_series_round_trip(self, tmp_path):
        store = SampleStore()
        writer = JournalWriter(tmp_path / "j.zsj", checkpoint_every=4,
                               fsync=False)
        writer.open(store, META)
        drive(store, writer, [float(t) for t in range(1, 11)])
        writer.close(store)
        recovered = recover_journal(tmp_path / "j.zsj")
        assert_stores_equal(store, recovered.store)
        assert recovered.pid == 100
        assert recovered.rank == 0
        assert recovered.cpus_allowed == CpuSet.from_list("0-3")
        assert recovered.torn_records == 0

    def test_recovery_without_final_close(self, tmp_path):
        """kill -9 shape: periods flushed, no closing checkpoint."""
        store = SampleStore()
        writer = JournalWriter(tmp_path / "j.zsj", checkpoint_every=100,
                               fsync=False)
        writer.open(store, META)
        drive(store, writer, [float(t) for t in range(1, 8)])
        # no close(): the process just stops existing
        recovered = recover_journal(tmp_path / "j.zsj")
        assert_stores_equal(store, recovered.store)

    def test_checkpoint_compacts_the_journal(self, tmp_path):
        store = SampleStore(max_rows=6)  # bounded: checkpoints compact
        writer = JournalWriter(tmp_path / "j.zsj", checkpoint_every=5,
                               fsync=False)
        writer.open(store, META)
        drive(store, writer, [float(t) for t in range(1, 21)])
        records, torn = read_journal(tmp_path / "j.zsj")
        kinds = [r["kind"] for r in records]
        # every 5th period rewrites meta+snapshot; <=4 periods may follow
        assert kinds[0] == "meta" and kinds[1] == "snapshot"
        assert kinds.count("period") <= 4
        assert writer.checkpoints_written >= 4
        assert torn == 0
        recovered = recover_journal(tmp_path / "j.zsj")
        assert_stores_equal(store, recovered.store)

    def test_summary_mode_round_trip(self, tmp_path):
        store = SampleStore(keep_series=False, summary_rows=2)
        writer = JournalWriter(tmp_path / "j.zsj", checkpoint_every=100,
                               fsync=False)
        writer.open(store, META)
        drive(store, writer, [float(t) for t in range(1, 9)])
        recovered = recover_journal(tmp_path / "j.zsj")
        # summary mode rewrites rows in place: replaying the blocks
        # through the store must refresh them, not append
        for tid in store.lwp_series:
            assert store.lwp_series[tid].array.tolist() == \
                recovered.store.lwp_series[tid].array.tolist()
        assert recovered.store.prev_tick == store.prev_tick

    def test_ring_store_round_trip(self, tmp_path):
        store = SampleStore(max_rows=3)
        writer = JournalWriter(tmp_path / "j.zsj", checkpoint_every=100,
                               fsync=False)
        writer.open(store, META)
        drive(store, writer, [float(t) for t in range(1, 12)])
        recovered = recover_journal(tmp_path / "j.zsj")
        for tid in store.lwp_series:
            assert store.lwp_series[tid].array.tolist() == \
                recovered.store.lwp_series[tid].array.tolist()

    def test_ledger_round_trip_and_degradation_summary(self, tmp_path):
        store = SampleStore()
        writer = JournalWriter(tmp_path / "j.zsj", checkpoint_every=3,
                               fsync=False, classify=lambda tid: "Main")
        writer.open(store, META)
        drive(store, writer, [1.0, 2.0])
        store.ledger.record_error("LwpCollector", 2.5, "simulated hiccup")
        drive(store, writer, [3.0, 4.0, 5.0])
        writer.close(store)
        recovered = recover_journal(tmp_path / "j.zsj")
        ledger = recovered.store.ledger
        assert ledger.total_events == store.ledger.total_events
        assert any("simulated hiccup" in e.reason for e in ledger.events)
        assert "Degradation Summary:" in recovered.report().render()

    def test_notes_survive_into_recovered_ledger(self, tmp_path):
        store = SampleStore()
        writer = JournalWriter(tmp_path / "j.zsj", checkpoint_every=100,
                               fsync=False)
        writer.open(store, META)
        drive(store, writer, [1.0, 2.0])
        writer.note(2.0, "LastGasp", "caught signal 15")
        recovered = recover_journal(tmp_path / "j.zsj")
        assert any(
            e.collector == "LastGasp" and "signal 15" in e.reason
            for e in recovered.store.ledger.events
        )

    def test_unledgered_note_survives_a_checkpoint(self, tmp_path):
        """The snapshot carries store state only: a last-gasp note must
        be re-emitted behind it, a ledgered one stays compacted."""
        store = SampleStore(max_rows=4)  # bounded: checkpoints compact
        writer = JournalWriter(tmp_path / "j.zsj", checkpoint_every=100,
                               fsync=False)
        writer.open(store, META)
        drive(store, writer, [1.0, 2.0])
        writer.note(2.0, "LastGasp", "caught signal 15")
        store.ledger.record_error("Watchdog", 2.0, "sampler stalled")
        writer.note(2.0, "Watchdog", "sampler stalled")
        for _ in range(2):  # carried across every later checkpoint too
            writer.checkpoint(store, tick=2.0)
        records, torn = read_journal(tmp_path / "j.zsj")
        assert torn == 0
        assert [r["kind"] for r in records] == ["meta", "snapshot", "note"]
        assert records[-1]["collector"] == "LastGasp"
        events = recover_journal(tmp_path / "j.zsj").store.ledger.events
        assert [e.reason for e in events if e.collector == "LastGasp"] == [
            "caught signal 15"
        ]
        assert [e.reason for e in events if e.collector == "Watchdog"] == [
            "sampler stalled"
        ]

    def test_a_failed_write_hides_no_fact(self, tmp_path):
        """Identity, kinds and ledger events ride in each record until
        one reaches the file: a period whose write failed leaves them to
        the next (its rows are missing until a checkpoint compacts)."""
        store = SampleStore()
        writer = JournalWriter(tmp_path / "j.zsj", checkpoint_every=100,
                               fsync=False, classify=lambda tid: "Main")
        writer.open(store, META)
        drive(store, writer, [1.0])
        real_write = writer._file.write

        def disk_full(buf):
            raise OSError(28, "No space left on device")

        for t, write in ((2.0, disk_full), (3.0, real_write)):
            store.add_lwp_row(102, lwp_row(t, t), name="late",
                              affinity=CpuSet([2]))
            store.ledger.record_error("LwpCollector", t, f"hiccup {t}")
            store.commit(t, [])
            writer._file.write = write
            try:
                writer.record_period(store, t)
            except OSError:
                pass
        recovered = recover_journal(tmp_path / "j.zsj")
        assert recovered.store.lwp_names == store.lwp_names
        assert recovered.store.lwp_affinity == store.lwp_affinity
        assert recovered.kinds == {100: "Main", 101: "Main", 102: "Main"}
        assert [e.reason for e in recovered.store.ledger.events] == [
            "hiccup 2.0", "hiccup 3.0",
        ]
        assert len(recovered.store.lwp_series[102]) == 1  # period 3's row

    @pytest.mark.parametrize("failure", ["raises", "short"])
    def test_a_failed_write_heals_at_checkpoint_and_close(self, tmp_path,
                                                          failure):
        """A write that raises, or writes half its buffer and returns the
        count (``write(2)`` on a full disk), is cut back off the file,
        and the next checkpoint or close() compacts: nothing is lost."""
        path = tmp_path / "j.zsj"
        store = SampleStore()
        writer = JournalWriter(path, checkpoint_every=3, fsync=False)
        writer.open(store, META)

        def fail_once(tick):
            real_write = writer._file.write

            def broken(buf):
                writer._file.write = real_write
                if failure == "raises":
                    raise OSError(28, "No space left on device")
                return real_write(buf[: len(buf) // 2])

            writer._file.write = broken
            with pytest.raises(OSError):
                drive(store, writer, [tick])
            assert read_journal(path)[1] == 0  # no partial frame stays

        drive(store, writer, [1.0])
        fail_once(2.0)
        drive(store, writer, [3.0, 4.0])  # period 3 is a checkpoint
        assert_stores_equal(store, recover_journal(path).store)
        fail_once(5.0)
        writer.close(store)
        records, torn = read_journal(path)
        assert torn == 0 and records[-1]["kind"] == "snapshot"
        assert_stores_equal(store, recover_journal(path).store)

    def test_meta_amendment_merges(self, tmp_path):
        store = SampleStore()
        writer = JournalWriter(tmp_path / "j.zsj", checkpoint_every=100,
                               fsync=False)
        writer.open(store, META)
        writer.update_meta({"monitor_tid": 555})
        drive(store, writer, [1.0])
        recovered = recover_journal(tmp_path / "j.zsj")
        assert recovered.monitor_tid == 555
        assert recovered.classify(555) == "ZeroSum"


class TestAppendOnly:
    """A store keeping every row has each row written once, never
    rewritten; a bounded store's journal stays bounded by compaction."""

    def test_unbounded_store_is_never_rewritten(self, tmp_path, monkeypatch):
        path = tmp_path / "j.zsj"
        replaced, written = [], []
        real_replace, real_open = os.replace, open

        class Counting:
            """A file handle that tallies what reaches ``write()``."""

            def __init__(self, handle):
                self._handle = handle

            def write(self, data):
                written.append(len(data))
                return self._handle.write(data)

            def __getattr__(self, name):
                return getattr(self._handle, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._handle.close()

        def replace(*args):
            replaced.append(args)
            real_replace(*args)

        monkeypatch.setattr(os, "replace", replace)
        monkeypatch.setattr(journal_module, "open",
                            lambda *a, **k: Counting(real_open(*a, **k)),
                            raising=False)
        store = SampleStore()
        writer = JournalWriter(path, checkpoint_every=3, fsync=False,
                               classify=lambda tid: "Main")
        writer.open(store, META)
        drive(store, writer, [float(t) for t in range(1, 201)])
        writer.close(store)
        assert len(replaced) == 1  # open's, and no other
        assert writer.checkpoints_written == 1 + 200 // 3  # all seals
        assert sum(written) <= 1.1 * path.stat().st_size
        kinds = [r["kind"] for r in read_journal(path)[0]]
        assert kinds == ["meta", "snapshot"] + ["period"] * 200 + ["residue"]
        recovered = recover_journal(path)
        assert recovered.torn_records == 0
        assert_stores_equal(store, recovered.store)

    @pytest.mark.parametrize("retention", [
        {"max_rows": 8}, {"keep_series": False, "summary_rows": 2},
    ], ids=["ring", "summary"])
    def test_bounded_store_stays_bounded(self, tmp_path, retention):
        path = tmp_path / "j.zsj"
        store = SampleStore(**retention)
        writer = JournalWriter(path, checkpoint_every=3, fsync=False)
        writer.open(store, META)
        for t in range(1, 501):
            drive(store, writer, [float(t)])
            assert path.stat().st_size < 8192, t
        writer.close(store)
        assert_stores_equal(store, recover_journal(path).store)


class TestCoalescedAppends:
    """Each entry point is one write() on the unbuffered handle."""

    def _open(self, tmp_path, **kwargs):
        store = SampleStore()
        writer = JournalWriter(tmp_path / "j.zsj", checkpoint_every=100,
                               fsync=False, **kwargs)
        writer.open(store, META)
        return store, writer

    def test_handle_is_unbuffered(self, tmp_path):
        _, writer = self._open(tmp_path)
        assert writer._file.write is writer._file.raw.write \
            if hasattr(writer._file, "raw") else True
        import io

        assert isinstance(writer._file, io.RawIOBase)

    def test_one_write_per_period(self, tmp_path):
        store, writer = self._open(tmp_path)
        writes = []
        real_write = writer._file.write

        def spy(buf):
            writes.append(bytes(buf))
            return real_write(buf)

        writer._file.write = spy
        drive(store, writer, [1.0, 2.0, 3.0])
        assert len(writes) == 3
        # each coalesced buffer is whole lines, never a partial frame
        for buf in writes:
            assert buf.endswith(b"\n")
        assert writer.appends_written == 3

    def test_note_and_meta_are_single_appends(self, tmp_path):
        store, writer = self._open(tmp_path)
        before = writer.appends_written
        writer.update_meta({"monitor_tid": 9})
        writer.note(1.0, "LastGasp", "sig")
        assert writer.appends_written == before + 2
        recovered_records, torn = read_journal(tmp_path / "j.zsj")
        assert torn == 0


class TestTornTail:
    def _journal(self, tmp_path):
        store = SampleStore()
        writer = JournalWriter(tmp_path / "j.zsj", checkpoint_every=100,
                               fsync=False)
        writer.open(store, META)
        drive(store, writer, [float(t) for t in range(1, 6)])
        return store, tmp_path / "j.zsj"

    def test_torn_trailing_record_is_skipped(self, tmp_path):
        store, path = self._journal(tmp_path)
        whole = path.read_bytes()
        last = whole.rstrip(b"\n").rsplit(b"\n", 1)[-1]
        path.write_bytes(whole[: len(whole) - len(last) // 2 - 1])
        recovered = recover_journal(path)
        assert recovered.torn_records == 1
        assert any(
            "torn trailing record" in e.reason
            for e in recovered.store.ledger.events
        )
        # everything before the tear replays: one period at most is lost
        assert recovered.store.prev_tick >= 4.0
        recovered.report().render()  # and the report still builds

    def test_torn_binary_record_is_skipped(self, tmp_path):
        # tear a frame mid-body (by byte count, not line split:
        # binary bodies may contain newlines)
        store, path = self._journal(tmp_path)
        whole = path.read_bytes()
        assert whole.startswith(b"ZSJ2 ")
        path.write_bytes(whole[:-20])
        recovered = recover_journal(path)
        assert recovered.torn_records == 1
        assert any(
            "torn trailing record" in e.reason
            for e in recovered.store.ledger.events
        )
        assert recovered.store.prev_tick >= 4.0

    def test_garbage_tail_is_skipped(self, tmp_path):
        _, path = self._journal(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"\x00\xffgarbage after the crash")
        recovered = recover_journal(path)
        assert recovered.torn_records == 1

    def test_fully_torn_journal_raises(self, tmp_path):
        path = tmp_path / "j.zsj"
        path.write_bytes(b"ZSJ2 12 00000000 tornrecord")
        with pytest.raises(JournalError):
            recover_journal(path)

    def test_empty_journal_raises(self, tmp_path):
        path = tmp_path / "j.zsj"
        path.write_bytes(b"")
        with pytest.raises(JournalError):
            recover_journal(path)


class TestSimBitIdentical:
    """The acceptance bar: a recovered report == the live report."""

    def _run(self, tmp_path, **cfg):
        step = run_miniqmc(
            "OMP_NUM_THREADS=7 srun -n1 -c7 miniqmc",
            blocks=4,
            zs_config=ZeroSumConfig(
                journal_path=str(tmp_path / "rank0.zsj"),
                journal_fsync=False,
                **cfg,
            ),
        )
        return step.monitors[0], tmp_path / "rank0.zsj"

    def test_recovered_report_is_bit_identical(self, tmp_path):
        monitor, path = self._run(tmp_path, journal_checkpoint_every=3)
        recovered = recover_journal(path)
        assert recovered.report().render() == build_report(monitor).render()
        assert recovered.torn_records == 0

    def test_bit_identical_without_compaction(self, tmp_path):
        monitor, path = self._run(tmp_path, journal_checkpoint_every=10_000)
        recovered = recover_journal(path)
        assert recovered.report().render() == build_report(monitor).render()

    def test_recovered_thread_kinds_match(self, tmp_path):
        monitor, path = self._run(tmp_path)
        recovered = recover_journal(path)
        for tid in monitor.lwp_series:
            assert recovered.classify(tid) == monitor.classify(tid)


class _ExplodingJournal:
    """A journal whose append path always fails."""

    def __init__(self):
        self.closed = False

    def record_period(self, store, tick):
        raise OSError(28, "No space left on device")

    def close(self, store=None):
        self.closed = True


class TestEngineContainment:
    def test_journal_failure_never_reaches_the_driver(self):
        engine = CollectionEngine(SampleStore(), [],
                                  journal=_ExplodingJournal())
        engine.commit(1.0, [])  # must not raise
        assert engine.store.ledger.total_events == 1

    def test_journal_disabled_after_three_failures(self):
        engine = CollectionEngine(SampleStore(), [],
                                  journal=_ExplodingJournal())
        for t in (1.0, 2.0, 3.0):
            engine.commit(t, [])
        assert engine.journal is None
        assert "Journal" in engine.store.ledger.disabled
        # further commits are memory-only, no new journal events
        before = engine.store.ledger.total_events
        engine.commit(4.0, [])
        assert engine.store.ledger.total_events == before

    def test_store_still_commits_when_journal_fails(self):
        engine = CollectionEngine(SampleStore(), [],
                                  journal=_ExplodingJournal())
        engine.commit(7.0, [])
        assert engine.store.prev_tick == 7.0


# ---------------------------------------------------------------------------
def _raw_frame(body: bytes) -> bytes:
    """A well-framed record (valid length and CRC) around any body."""
    return b"ZSJ2 %d %08x " % (len(body), zlib.crc32(body)) + body + b"\n"


_PERIOD = {
    "kind": "period", "tick": 2.5, "prev_tick": 2.5, "samples_taken": 3,
    "last_thread_count": 1, "names": {"100": "renamed"},
    "prev_totals": {"keys": np.array([100]), "values": np.array([[25.0]])},
    "kinds": {"100": "Other"},
    "block": {"lwp": {"keys": np.array([100]),
                      "rows": np.array([lwp_row(2.5, 25.0)])}},
}
#: bodies no writer produces; each used to end recovery in a raw traceback
#: or in a store that is not a prefix of the run
CRAFTED = {
    # {"m": matrix(nrows=1, ncols=0)}: rows without columns
    "matrix_without_columns": b"\x01\x01m\x07\x01\x00\x08\x01\x00",
    # 5000 nested one-item lists: RecursionError
    "nesting_bomb": b"\x00" + b"\x06\x01" * 5000 + b"\x00",
    # decodes fine, cannot be applied: KeyError
    "snapshot_without_store": _encode_body({"kind": "snapshot"}),
    # periods that fail part-way: in the block (a one-column HWT row
    # behind good LWP rows), or after the whole block and the identity
    # (a ledger missing its counters)
    "period_bad_second_family": _encode_body({
        **_PERIOD,
        "block": {**_PERIOD["block"],
                  "hwt": {"keys": np.array([0]), "rows": np.array([[2.5]])}},
    }),
    "period_without_ledger": _encode_body({
        **_PERIOD, "ledger": {"total_events": 0},
    }),
}


@pytest.mark.parametrize("name", sorted(CRAFTED))
class TestMalformedRecords:
    def test_alone_it_is_a_journal_error(self, tmp_path, name):
        path = tmp_path / "j.zsj"
        path.write_bytes(_raw_frame(CRAFTED[name]))
        with pytest.raises(JournalError):
            recover_journal(path)

    def test_behind_a_good_prefix_it_is_the_tear_point(self, tmp_path, name):
        path = tmp_path / "j.zsj"
        store = SampleStore()
        writer = JournalWriter(path, checkpoint_every=100, fsync=False)
        writer.open(store, META)
        drive(store, writer, [1.0, 2.0])
        shutil.copy(path, tmp_path / "prefix.zsj")
        with open(path, "ab") as handle:
            handle.write(_raw_frame(CRAFTED[name]))
        drive(store, writer, [3.0])  # lands behind the tear: debris
        recovered = recover_journal(path)
        assert recovered.torn_records == 2
        assert recovered.store.prev_tick == 2.0
        assert len(recovered.store.lwp_series[100]) == 2
        prefix = recover_journal(tmp_path / "prefix.zsj")
        assert_stores_equal(recovered.store, prefix.store)
        assert recovered.kinds == prefix.kinds


# ---------------------------------------------------------------------------
class TestFuzz:
    """Every truncation and a bit flip at every offset: a prefix or a
    ``JournalError``, never anything else (ROADMAP correctness (c))."""

    @staticmethod
    def _drive(store, writer, ticks):
        """``drive`` with one thread and no HWT: thousands of cases."""
        for t in ticks:
            store.add_lwp_row(100, lwp_row(t, 10.0 * t), name="main",
                              affinity=CpuSet([0]))
            store.add_mem_row((t,) + (0.0,) * (len(MEM_COLUMNS) - 1))
            store.commit(t, [])
            writer.record_period(store, t)

    def _new_shape(self, path):
        store = SampleStore()
        writer = JournalWriter(path, checkpoint_every=100, fsync=False,
                               classify=lambda tid: "Main")
        writer.open(store, META)
        self._drive(store, writer, [1.0, 2.0])
        writer.note(2.0, "Watchdog", "sampler stalled")
        writer.alert(OnlineFinding(tick=2.0, code="time-slicing",
                                   severity="warning", entity="lwp:100",
                                   message="forced time-slicing"))
        self._drive(store, writer, [3.0])
        return path.read_bytes()

    def _bounded_shape(self, path):
        """A compacted ring: snapshot, a carried note, then periods."""
        store = SampleStore(max_rows=2)
        writer = JournalWriter(path, checkpoint_every=3, fsync=False)
        writer.open(store, META)
        self._drive(store, writer, [1.0, 2.0])
        writer.note(2.0, "LastGasp", "caught signal 15")
        self._drive(store, writer, [3.0, 4.0, 5.0])  # compacts at 3
        records, _ = read_journal(path)
        assert [r["kind"] for r in records] == [
            "meta", "snapshot", "note", "period", "period",
        ]
        return path.read_bytes()

    @pytest.mark.parametrize("build", ["_new_shape", "_bounded_shape"])
    def test_truncations_and_bit_flips(self, tmp_path, build):
        data = getattr(self, build)(tmp_path / "whole.zsj")
        ends = frame_ends(data)
        path = tmp_path / "mutated.zsj"

        def recover(blob):
            path.write_bytes(blob)
            try:
                return recover_journal(path)
            except JournalError:
                return None

        #: the untouched run after 0, 1, 2, ... whole records
        prefixes = [recover(data[:end]) for end in [0] + ends]
        assert prefixes[1] is None and prefixes[-1].torn_records == 0

        def check(blob, allowed):
            run = recover(blob)
            for kept in allowed:
                want = prefixes[kept]
                if run is None or want is None:
                    if run is want:
                        return None
                    continue
                try:
                    assert_stores_equal(want.store, run.store)
                except AssertionError:
                    continue
                return run
            raise AssertionError(f"not a prefix of the run: {allowed}")

        for cut in range(len(data)):
            whole = sum(end - 1 <= cut for end in ends)
            run = check(data[:cut], [whole])
            if run is not None and cut not in ends \
                    and cut + 1 not in ends:
                assert run.torn_records >= 1, cut
        for offset in range(len(data)):
            flipped = bytearray(data)
            flipped[offset] ^= 1 << (offset % 8)
            frame = sum(end <= offset for end in ends)
            # (a flipped hex-digit case bit leaves the CRC's value alone)
            check(bytes(flipped), [frame, len(ends)])


# ---------------------------------------------------------------------------
class _ScriptedLwp:
    """Threads with a life: 102 appears at period 3, is renamed at 5 and
    re-pinned at 6; every 4th period the collector dies half-way."""

    name = "LwpCollector"

    def __init__(self, store):
        self.store = store
        self.period = 0

    def collect(self, tick):
        self.period += 1
        p = self.period
        rows = [(100, "main", [0]), (101, "worker", [1])]
        if p >= 3:
            rows.append((102, "late" if p < 5 else "renamed",
                         [2] if p < 6 else [2, 3]))
        snaps = []
        for tid, name, cpus in rows:
            # utime + a steady stream of involuntary switches
            row = (tick, 0.0, 8.0 * p, 1.0 * p, 6.0 * p, 0.0, 0.0, 0.0, cpus[0])
            self.store.add_lwp_row(tid, row, name=name, affinity=CpuSet(cpus))
            snaps.append(ThreadSnapshot(tid=tid, state="R",
                                        total_jiffies=9.0 * p))
            if p % 4 == 0:
                raise ProcFSError("task directory vanished mid-walk")
        return snaps


class _ScriptedHwt:
    name = "HwtCollector"

    def __init__(self, store):
        self.store = store
        self.period = 0

    def collect(self, tick):
        self.period += 1
        if self.period % 3 == 0:
            raise ProcFSError("/proc/stat unreadable")
        for cpu in (0, 1):
            self.store.add_hwt_row(cpu, hwt_row(tick, 7.0 * self.period))
        self.store.add_mem_row((tick,) + (1.0,) * (len(MEM_COLUMNS) - 1))
        return []


# one writer class since version 3; the axis keeps the test ids stable
@pytest.mark.parametrize("writer_cls", [JournalWriter])
@pytest.mark.parametrize("retention", [
    {}, {"max_rows": 3}, {"keep_series": False, "summary_rows": 2},
], ids=["full", "ring", "summary"])
class TestKilledEngineRun:
    """Recovered ≡ in-memory: faults in the period stream, a changing
    thread set, a kill between checkpoints — in every retention mode."""

    def test_recovered_equals_in_memory(self, tmp_path, retention, writer_cls):
        store = SampleStore(**retention)
        detector = OnlineDetector(
            hz=100.0, window=4,
            facts=TopologyFacts(node_cpus=frozenset(range(8))),
        )
        journal = writer_cls(tmp_path / "j.zsj", checkpoint_every=4,
                             fsync=False, classify=lambda tid: "Main")
        engine = CollectionEngine(
            store, [_ScriptedLwp(store), _ScriptedHwt(store)],
            policy=FaultPolicy(max_retries=0, disable_after=0),
            journal=journal, detector=detector,
        )
        journal.open(store, META)
        for p in range(1, 12):  # checkpoints at 4 and 8, then 3 periods
            tick = 10.0 * p
            engine.commit(tick, engine.sample(tick))
        assert journal.checkpoints_written == 3  # open + 2
        assert store.ledger.failed_periods == {
            "LwpCollector": 2, "HwtCollector": 3,
        }
        assert detector.alerts.total >= 1
        # kill -9: no close, no final checkpoint
        shutil.copy(tmp_path / "j.zsj", tmp_path / "killed.zsj")
        recovered = recover_journal(tmp_path / "killed.zsj")
        assert recovered.torn_records == 0
        assert_stores_equal(store, recovered.store)
        assert recovered.alerts == detector.alerts
        in_memory = RecoveredRun(store, recovered.meta, kinds=recovered.kinds)
        assert recovered.report().render() == in_memory.report().render()
