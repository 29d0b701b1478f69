"""Alert durability: heartbeat clause, journal notes, recovery.

The contract under test: the alert history a run raised is
reproducible bit-identically from its journal — findings from fsynced
alert notes, those a compaction dropped from the snapshot's serialized
ledger — and the heartbeat line carries the live tally.
"""

import pytest

from tests.detect.conftest import HZ, StoreDriver, node_facts
from tests.helpers import fail_next_write
from repro.collect import CollectionEngine, SampleStore
from repro.collect.journal import (
    JournalWriter,
    read_journal,
    recover_journal,
)
from repro.core.heartbeat import heartbeat_line
from repro.detect import AlertLedger, OnlineDetector

META = {
    "driver": "test",
    "pid": 100,
    "rank": 0,
    "hostname": "node0",
    "hz": HZ,
    "baseline": "zero",
    "start_tick": 0.0,
    "cpus_allowed": "0-3",
}


def sliced_driver():
    """A driver whose single thread will trip time-slicing."""
    detector = OnlineDetector(hz=HZ, window=8, facts=node_facts())
    return StoreDriver(detector)


def drive_sliced(d, writer, periods, first=1):
    """Periods whose nv_ctx climb trips time-slicing episodes."""
    for p in range(first, first + periods):
        findings = d.period(lwps=[
            (7, {"utime": 10.0 * p, "nv_ctx": 5.0 * p}, [0]),
        ])
        for finding in findings:
            writer.alert(finding)
        writer.record_period(d.store, d.tick)


class TestHeartbeatClause:
    def test_line_carries_alert_tally(self):
        d = sliced_driver()
        for p in range(1, 4):
            d.period(lwps=[(7, {"utime": 10.0 * p, "nv_ctx": 5.0 * p},
                            [0])])
        line = heartbeat_line(seconds=1.0, pid=100, threads=2,
                              alerts=d.detector.alerts)
        assert "alerts=[time-slicing:1]" in line

    def test_clean_ledger_stays_silent(self):
        line = heartbeat_line(seconds=1.0, pid=100, threads=2,
                              alerts=AlertLedger())
        assert "alerts" not in line

    def test_no_ledger_stays_silent(self):
        assert "alerts" not in heartbeat_line(seconds=1.0, pid=100,
                                              threads=2)


class TestJournalNotes:
    @pytest.mark.parametrize("checkpoint_every", [1, 2])
    def test_alert_note_round_trips(self, tmp_path, checkpoint_every):
        # an unbounded store's checkpoints seal, never compact: the raw
        # note stays in the journal whatever the cadence
        d = sliced_driver()
        writer = JournalWriter(tmp_path / "j.zsj",
                               checkpoint_every=checkpoint_every, fsync=False)
        writer.open(d.store, META)
        drive_sliced(d, writer, 4)
        writer.close()

        records, torn = read_journal(tmp_path / "j.zsj")
        assert torn == 0
        notes = [r for r in records
                 if r.get("kind") == "note" and "alert" in r]
        assert len(notes) == 1
        assert notes[0]["collector"] == "OnlineDetect"
        assert "time-slicing" in notes[0]["reason"]
        assert notes[0]["alert"]["code"] == "time-slicing"

    @pytest.mark.parametrize("checkpoint_every", [1, 2])
    def test_recovery_reproduces_ledger(self, tmp_path, checkpoint_every):
        d = sliced_driver()
        writer = JournalWriter(tmp_path / "j.zsj",
                               checkpoint_every=checkpoint_every, fsync=False)
        writer.open(d.store, META)
        drive_sliced(d, writer, 5)
        writer.close(d.store)

        run = recover_journal(tmp_path / "j.zsj")
        assert run.store.alerts is not None
        assert run.store.alerts == d.detector.alerts

    def test_checkpoint_compaction_carries_ledger(self, tmp_path):
        """A failed write's healing compaction drops the alert notes
        before it: its snapshot carries the alert ledger instead."""
        d = sliced_driver()
        writer = JournalWriter(tmp_path / "j.zsj", checkpoint_every=3,
                               fsync=False)
        writer.open(d.store, META)
        drive_sliced(d, writer, 4)  # the alert fires
        assert d.detector.alerts.total >= 1
        fail_next_write(writer)
        with pytest.raises(OSError):
            drive_sliced(d, writer, 1, first=5)
        drive_sliced(d, writer, 4, first=6)  # compacts at 6, then periods
        writer.close(d.store)

        records, torn = read_journal(tmp_path / "j.zsj")
        assert torn == 0 and records[1]["store"]["alerts"]["total"] >= 1
        run = recover_journal(tmp_path / "j.zsj")
        assert run.store.alerts == d.detector.alerts
        assert run.store.alerts.total >= 1

    def test_torn_tail_keeps_durable_alerts(self, tmp_path):
        path = tmp_path / "j.zsj"
        d = sliced_driver()
        writer = JournalWriter(path, checkpoint_every=100, fsync=False)
        writer.open(d.store, META)
        drive_sliced(d, writer, 5)
        writer.close()  # crash-shaped: no final compacting checkpoint

        # tear mid-record: chop the file a few bytes short
        raw = path.read_bytes()
        path.write_bytes(raw[:-7])
        run = recover_journal(path)
        assert run.torn_records >= 0  # recovery survived the tear
        assert run.store.alerts is not None
        assert run.store.alerts.by_code("time-slicing")

    def test_quiet_detector_recovers_an_empty_ledger(self, tmp_path):
        d = sliced_driver()
        writer = JournalWriter(tmp_path / "j.zsj", checkpoint_every=100,
                               fsync=False)
        writer.open(d.store, META)
        for _ in range(3):  # idle periods: nothing fires
            d.period(lwps=[(7, {}, [0])])
            writer.record_period(d.store, d.tick)
        writer.close(d.store)
        run = recover_journal(tmp_path / "j.zsj")
        assert run.store.alerts == AlertLedger()  # published but empty

    def test_undetected_run_recovers_without_ledger(self, tmp_path):
        store = SampleStore()  # no detector: alerts never published
        writer = JournalWriter(tmp_path / "j.zsj", checkpoint_every=100,
                               fsync=False)
        writer.open(store, META)
        for p in range(1, 4):
            t = 10.0 * p
            store.add_row("lwp", 
                7, (t, 0.0, 10.0 * p, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
            )
            store.commit(t, [])
            writer.record_period(store, t)
        writer.close(store)
        run = recover_journal(tmp_path / "j.zsj")
        assert run.store.alerts is None


class TestEngineIntegration:
    class _Boom:
        """A detector whose evaluation always explodes."""

        alerts = AlertLedger()

        def observe(self, store, tick):
            raise RuntimeError("rule catalog exploded")

    def test_commit_returns_findings_and_publishes_ledger(self):
        detector = OnlineDetector(hz=HZ, window=8, facts=node_facts())
        store = SampleStore()
        engine = CollectionEngine(store, [], detector=detector)
        assert store.alerts is detector.alerts  # engine publishes it
        per_period = []
        for p in range(1, 4):
            t = 10.0 * p
            store.add_row("lwp", 
                7,
                (t, 0.0, 10.0 * p, 0.0, 5.0 * p, 0.0, 0.0, 0.0, 0.0),
            )
            per_period.append(engine.commit(t, []))
        fired = [f for findings in per_period for f in findings]
        assert [f.code for f in fired] == ["time-slicing"]
        assert per_period[-1] == []  # episode already reported
        assert detector.alerts.total == 1

    def test_detector_failure_is_contained(self):
        store = SampleStore()
        engine = CollectionEngine(store, [], detector=self._Boom())
        findings = engine.commit(1.0, [])
        assert findings == []
        failures = [
            e for e in store.ledger.events
            if e.collector == "OnlineDetect"
        ]
        assert failures
        assert "exploded" in failures[0].reason
