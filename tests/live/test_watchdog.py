"""SamplerWatchdog: edge-triggered stall detection on a fake clock."""

import pathlib
import time

import pytest

from repro.collect.journal import recover_journal
from repro.core import ZeroSumConfig
from repro.errors import MonitorError
from repro.live import LiveZeroSum, SamplerWatchdog, StallEvent


class Probes:
    """Hand-cranked liveness signals."""

    def __init__(self):
        self.sample_time = None
        self.jiffies = 0.0

    def make(self, threshold=5.0) -> SamplerWatchdog:
        return SamplerWatchdog(
            stall_after_seconds=threshold,
            last_sample_time=lambda: self.sample_time,
            jiffies_total=lambda: self.jiffies,
        )


class TestSamplerStall:
    def test_quiet_before_first_sample(self):
        probes = Probes()
        dog = probes.make()
        assert dog.check(0.0) == []
        # no completed sample yet: the sampler signal must stay silent
        # no matter how long that lasts (jiffies may fire, sampler not)
        dog.check(100.0)
        assert not any(e.kind == "sampler-stalled" for e in dog.events)

    def test_fires_once_past_threshold(self):
        probes = Probes()
        dog = probes.make(threshold=5.0)
        probes.sample_time = 10.0
        probes.jiffies = 1.0  # the app keeps burning CPU throughout
        assert dog.check(11.0) == []
        probes.jiffies = 2.0
        fired = dog.check(16.0)
        assert [e.kind for e in fired] == ["sampler-stalled"]
        assert fired[0].age_seconds == pytest.approx(6.0)
        # still stalled: edge-triggered, no repeat
        probes.jiffies = 3.0
        assert dog.check(20.0) == []
        assert dog.stalled

    def test_rearms_after_recovery(self):
        probes = Probes()
        dog = probes.make(threshold=5.0)
        probes.sample_time = 0.0
        dog.check(6.0)  # stall 1
        probes.sample_time = 7.0  # sampler woke up
        probes.jiffies = 1.0
        assert dog.check(8.0) == []
        assert not dog.stalled
        probes.jiffies = 2.0  # app still busy: only the sampler stalls
        fired = dog.check(13.0)  # stalls again
        assert [e.kind for e in fired] == ["sampler-stalled"]
        assert sum(e.kind == "sampler-stalled" for e in dog.events) == 2


class TestJiffiesStall:
    def test_fires_when_cpu_time_freezes(self):
        probes = Probes()
        dog = probes.make(threshold=5.0)
        probes.sample_time = 0.0
        probes.jiffies = 100.0
        dog.check(0.0)
        probes.sample_time = 4.0  # samples keep landing...
        dog.check(4.0)
        probes.sample_time = 8.0  # ...but jiffies never move
        fired = dog.check(8.0)
        assert [e.kind for e in fired] == ["jiffies-stalled"]
        assert "no CPU time" in fired[0].detail

    def test_progress_resets_the_clock(self):
        probes = Probes()
        dog = probes.make(threshold=5.0)
        probes.jiffies = 100.0
        dog.check(0.0)
        probes.jiffies = 101.0  # progress at t=4
        dog.check(4.0)
        assert dog.check(8.0) == []  # only 4s since last progress
        fired = dog.check(9.5)
        assert [e.kind for e in fired] == ["jiffies-stalled"]

    def test_both_signals_can_fire_in_one_check(self):
        probes = Probes()
        dog = probes.make(threshold=5.0)
        probes.sample_time = 0.0
        probes.jiffies = 100.0
        dog.check(0.0)
        fired = dog.check(10.0)
        assert {e.kind for e in fired} == {
            "sampler-stalled", "jiffies-stalled"
        }


class TestRestart:
    def test_reset_forgets_the_previous_runs_state(self):
        """stop()/start() must not report stalls against the dead run.

        Without reset() the restarted watchdog carries the old jiffies
        watermark: a monitored process that idled across the gap looks
        'frozen since before the restart' and fires a spurious stall on
        the very first post-restart check.
        """
        probes = Probes()
        dog = probes.make(threshold=5.0)
        probes.sample_time = 0.0
        probes.jiffies = 100.0
        dog.check(0.0)
        dog.check(10.0)  # both signals stall: run 1 ends wedged
        assert dog.stalled

        dog.reset()  # what LiveMonitor.start() does on a restart
        assert not dog.stalled
        # first check of run 2, 100s later, app still at 100 jiffies:
        # the watermark was dropped, so this re-seeds instead of firing
        probes.sample_time = 110.0
        assert dog.check(110.0) == []
        # and the episode state was disarmed: a *new* stall re-fires
        fired = dog.check(120.0)
        assert {e.kind for e in fired} == {
            "sampler-stalled", "jiffies-stalled"
        }

    def test_reset_keeps_the_diagnostics_history(self):
        probes = Probes()
        dog = probes.make(threshold=5.0)
        probes.sample_time = 0.0
        dog.check(6.0)
        before = list(dog.events)
        dog.reset()
        assert dog.events == before


class TestContract:
    def test_zero_threshold_rejected(self):
        probes = Probes()
        with pytest.raises(MonitorError):
            probes.make(threshold=0.0)

    def test_render_mentions_the_kind(self):
        event = StallEvent(kind="sampler-stalled", age_seconds=6.0,
                           detail="no completed sample for 6.0s")
        assert event.render().startswith("sampler-stalled:")


@pytest.mark.skipif(
    not pathlib.Path("/proc/self/stat").exists(), reason="needs Linux /proc"
)
class TestThroughLiveZeroSum:
    """``watchdog_stall_periods > 0`` wired end to end, on a real clock."""

    def test_idle_application_is_reported_on_every_channel(self, tmp_path):
        journal = tmp_path / "run.zsj"
        zs = LiveZeroSum(
            ZeroSumConfig(
                period_seconds=0.02,
                watchdog_stall_periods=2,
                journal_path=str(journal),
                journal_fsync=False,
                last_gasp=False,
            )
        )
        assert zs.watchdog is not None
        assert zs.watchdog.stall_after == pytest.approx(0.04)
        zs.start()
        deadline = time.monotonic() + 5.0
        # the test thread only sleeps: the app accrues no jiffies
        while not zs.watchdog.events and time.monotonic() < deadline:
            time.sleep(0.05)
        zs.stop()
        assert zs.watchdog.events, "watchdog never fired on an idle app"
        reason = zs.watchdog.events[0].render()
        stalls = [
            e for e in zs.store.ledger.events if e.collector == "Watchdog"
        ]
        assert stalls and stalls[0].reason == reason
        # heartbeat_every is 0: the only heartbeats are the watchdog's own
        assert zs.heartbeats and "last_sample_age=" in zs.heartbeats[0]
        recovered = recover_journal(journal)
        assert any(
            e.collector == "Watchdog" and e.reason == reason
            for e in recovered.store.ledger.events
        )
