"""SampleStore retention and identity, and the CollectionEngine protocol."""

import pytest

from repro.collect import CollectionEngine, SampleStore
from repro.core.heartbeat import ThreadSnapshot
from repro.core.records import LWP_COLUMNS
from repro.topology import CpuSet


def lwp_row(tick: float, utime: float = 0.0) -> tuple:
    row = [0.0] * len(LWP_COLUMNS)
    row[0], row[2] = tick, utime
    return tuple(row)


class TestRetention:
    def test_full_series_by_default(self):
        store = SampleStore()
        for t in range(5):
            store.add_row("lwp", 7, lwp_row(float(t)))
        assert len(store.lwp_series[7]) == 5


class TestIdentity:
    def test_name_and_affinity_recorded(self):
        store = SampleStore()
        store.add_row("lwp", 3, lwp_row(1.0), name="w", affinity=CpuSet([2]))
        assert store.lwp_names[3] == "w"
        assert store.lwp_affinity[3] == CpuSet([2])

    def test_affinity_rerecorded_on_change(self):
        store = SampleStore()
        store.add_row("lwp", 3, lwp_row(1.0), affinity=CpuSet([0]))
        store.add_row("lwp", 3, lwp_row(2.0), affinity=CpuSet([5]))
        assert store.lwp_affinity[3] == CpuSet([5])

    def test_observed_tids_sorted(self):
        store = SampleStore()
        for tid in (9, 2, 5):
            store.add_row("lwp", tid, lwp_row(1.0))
        assert store.observed_tids() == [2, 5, 9]


class TestCommit:
    def test_commit_records_tick_and_totals(self):
        store = SampleStore(start_tick=10.0)
        assert store.prev_tick == 10.0
        snaps = [
            ThreadSnapshot(tid=1, state="R", total_jiffies=12.0),
            ThreadSnapshot(tid=2, state="S", total_jiffies=3.0),
        ]
        store.commit(25.0, snaps)
        assert store.prev_tick == 25.0
        assert store.prev_totals == {1: 12.0, 2: 3.0}


class _FakeCollector:
    def __init__(self, snaps):
        self.snaps = snaps
        self.ticks = []

    def collect(self, tick):
        self.ticks.append(tick)
        return list(self.snaps)


class TestEngine:
    def test_sample_runs_collectors_and_counts(self):
        store = SampleStore()
        snaps = [ThreadSnapshot(tid=1, state="R", total_jiffies=5.0)]
        a, b = _FakeCollector(snaps), _FakeCollector([])
        engine = CollectionEngine(store, [a, b])
        out = engine.sample(7.0)
        assert out == snaps
        assert a.ticks == b.ticks == [7.0]
        assert store.samples_taken == 1
        assert store.last_thread_count == 1

    def test_commit_delegates_to_store(self):
        store = SampleStore()
        engine = CollectionEngine(store, [])
        snaps = [ThreadSnapshot(tid=4, state="R", total_jiffies=9.0)]
        engine.commit(3.0, snaps)
        assert store.prev_tick == 3.0
        assert store.prev_totals[4] == 9.0

    def test_make_event_uses_interval_deltas(self):
        store = SampleStore()
        store.add_row("mem", 0, (0.0, 0, 0, 0, 512.0, 0, 0))
        engine = CollectionEngine(store, [])
        first = [ThreadSnapshot(tid=1, state="R", total_jiffies=10.0)]
        engine.commit(0.0, first)
        second = [ThreadSnapshot(tid=1, state="R", total_jiffies=60.0)]
        event = engine.make_event(
            100.0,
            second,
            hz=100.0,
            hostname="h",
            pid=1,
            rank=0,
            monitor_tid=99,
            deadlock_suspected=False,
        )
        # 50 jiffies over a 100-jiffy interval -> 50 % busy
        assert event.busy_pct == pytest.approx(50.0)
        assert event.rss_kib == 512.0
        assert event.hostname == "h"
