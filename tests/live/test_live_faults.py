"""Live monitor under injected faults: degrade, never die.

The loop used to ``break`` on the first :class:`ProcFSError` any
collector raised; these tests pin the new behavior — containment plus
ledger for everything except the monitored process's own confirmed
disappearance — along with the ``stop()`` lifecycle fixes.
"""

import errno
import pathlib
import threading
import time

import pytest

from repro.collect import FaultyProc, RealProc
from repro.core import ZeroSumConfig
from repro.errors import MonitorError, ProcFSError
from repro.live import LiveZeroSum

needs_proc = pytest.mark.skipif(
    not pathlib.Path("/proc/self/stat").exists(), reason="needs Linux /proc"
)


def _burn(seconds):
    deadline = time.monotonic() + seconds
    x = 0
    while time.monotonic() < deadline:
        x += sum(i for i in range(500))
    return x


class VanishingProc:
    """A reader whose whole /proc disappears on command."""

    def __init__(self, base):
        self._base = base
        self.gone = False

    def read(self, path):
        if self.gone:
            raise ProcFSError(f"no such file: {path}", errno=errno.ENOENT)
        return self._base.read(path)

    def listdir(self, path):
        if self.gone:
            raise ProcFSError(
                f"no such directory: {path}", errno=errno.ENOENT
            )
        return self._base.listdir(path)


@needs_proc
class TestLiveUnderInjection:
    def test_keeps_sampling_and_ledgers_failures(self):
        faulty = FaultyProc(
            RealProc("/proc"), seed=11, missing_rate=0.05, garbage_rate=0.03
        )
        zs = LiveZeroSum(
            ZeroSumConfig(period_seconds=0.02, fault_disable_after=0),
            reader=faulty,
        )
        zs.start()
        _burn(0.5)
        zs.stop()
        # the loop survived the whole window despite constant chaos
        assert zs.samples_taken >= 5
        assert faulty.injected  # chaos actually landed
        assert zs.store.ledger.degraded
        assert not zs.store.ledger.is_disabled("LiveZeroSum")

    def test_report_carries_degradation_section(self):
        faulty = FaultyProc(RealProc("/proc"), seed=3, missing_rate=0.08)
        zs = LiveZeroSum(
            ZeroSumConfig(period_seconds=0.02, fault_disable_after=0),
            reader=faulty,
        )
        zs.start()
        _burn(0.4)
        zs.stop()
        assert zs.store.ledger.degraded
        text = zs.report().render()
        assert "Degradation Summary:" in text
        assert "tick" in text.split("Degradation Summary:")[1]

    def test_loop_stops_only_when_process_really_vanishes(self):
        vanishing = VanishingProc(RealProc("/proc"))
        zs = LiveZeroSum(
            ZeroSumConfig(period_seconds=0.02), reader=vanishing
        )
        zs.start()
        _burn(0.15)
        vanishing.gone = True
        deadline = time.monotonic() + 2.0
        while zs._thread.is_alive() and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not zs._thread.is_alive()  # loop exited on its own
        assert zs.store.ledger.is_disabled("LiveZeroSum")
        event = zs.store.ledger.disabled["LiveZeroSum"]
        assert f"owning process {zs.pid} vanished" in event.reason

    def test_transient_vanish_is_probed_not_fatal(self):
        # every read of this pid's task dir fails once in a while, but
        # the confirmation probes see a healthy /proc: loop continues
        faulty = FaultyProc(
            RealProc("/proc"),
            seed=0,
            missing_rate=0.5,
            match=lambda p: "/task" in p,
        )
        zs = LiveZeroSum(
            ZeroSumConfig(
                period_seconds=0.02, fault_retries=0, fault_disable_after=0
            ),
            reader=faulty,
        )
        zs.start()
        _burn(0.4)
        assert zs._thread.is_alive()  # still going strong
        zs.stop()
        assert not zs.store.ledger.is_disabled("LiveZeroSum")
        assert zs.samples_taken >= 2


@needs_proc
class TestNonUtf8ThreadName:
    """``prctl(PR_SET_NAME)`` takes any bytes; one such thread used to
    raise ``UnicodeDecodeError`` out of every read of its ``stat``,
    which is classified permanent and disabled the LwpCollector."""

    RAW = b"w\xff\xfe-rk"

    def test_row_sampled_ledger_clean_name_survives_journal(self, tmp_path):
        from repro.collect.journal import recover_journal

        named, release = threading.Event(), threading.Event()
        tids = []

        def parked():
            tids.append(threading.get_native_id())
            with open(f"/proc/self/task/{tids[0]}/comm", "wb") as comm:
                comm.write(self.RAW)
            named.set()
            release.wait(10.0)

        thread = threading.Thread(target=parked, daemon=True)
        thread.start()
        assert named.wait(5.0)
        journal = tmp_path / "run.zsj"
        zs = LiveZeroSum(
            ZeroSumConfig(
                period_seconds=0.02,
                journal_path=str(journal),
                journal_fsync=False,
                last_gasp=False,
            )
        )
        try:
            zs.start()
            _burn(0.2)  # > fault_disable_after periods
            zs.stop()
        finally:
            release.set()
            thread.join(5.0)
        assert not thread.is_alive()
        (tid,) = tids
        ledger = zs.store.ledger  # (unrelated threads may die mid-sample)
        assert not ledger.failed_periods and not ledger.disabled
        assert len(zs.lwp_series[tid]) >= 3
        name = zs.store.lwp_names[tid]
        assert name == "w\\xff\\xfe-rk"
        name.encode("utf-8")  # exporters and the journal can re-encode it
        assert recover_journal(journal).lwp_names[tid] == name


@needs_proc
class TestStopLifecycle:
    def test_stop_idempotent(self):
        zs = LiveZeroSum(ZeroSumConfig(period_seconds=0.05))
        zs.start()
        _burn(0.1)
        zs.stop()
        taken = zs.samples_taken
        end = zs.end_time
        zs.stop()  # second stop: no extra sample, no error
        assert zs.samples_taken == taken
        assert zs.end_time == end

    def test_stop_without_start(self):
        zs = LiveZeroSum()
        zs.stop()  # never started: still takes the final sample
        assert zs.samples_taken == 1
        assert zs.end_time is not None

    def test_restart_after_stop(self):
        zs = LiveZeroSum(ZeroSumConfig(period_seconds=0.02))
        zs.start()
        _burn(0.1)
        zs.stop()
        first = zs.samples_taken
        zs.start()  # restart must work after a clean stop
        _burn(0.1)
        zs.stop()
        assert zs.samples_taken > first

    def test_join_timeout_keeps_handle_and_surfaces(self):
        zs = LiveZeroSum(ZeroSumConfig(period_seconds=0.05))
        release = threading.Event()
        hung = threading.Thread(target=release.wait, daemon=True)
        hung.start()
        zs._thread = hung  # simulate a wedged sampling thread
        with pytest.raises(MonitorError, match="did not stop"):
            zs.stop(timeout=0.05)
        assert zs._thread is hung  # never orphaned
        assert not zs._stopped  # stop() can be retried
        errors = [
            e
            for e in zs.store.ledger.events
            if e.collector == "LiveZeroSum" and "did not stop" in e.reason
        ]
        assert errors
        release.set()
        zs.stop(timeout=1.0)  # retry succeeds once the thread exits
        assert zs._stopped
        assert zs.samples_taken >= 1
