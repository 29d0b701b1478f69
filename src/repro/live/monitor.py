"""Live ZeroSum: the *real-/proc driver* of the collection pipeline.

This is the reproduction's proof that the monitoring pipeline is not
simulation-bound: an asynchronous Python thread drives the very same
:class:`~repro.collect.engine.CollectionEngine` — same collectors,
same parsers, same store, same report math — against the host
kernel's ``/proc`` through a
:class:`~repro.collect.reader.RealProc` reader.  On a compute node it
is a genuinely usable user-space monitor for the hosting Python
application.

This class only owns scheduling (a ``threading`` loop) and lifecycle —
including *crash durability*: when a spill journal is configured, each
committed period is spooled to disk, a SIGTERM/SIGINT/atexit last-gasp
path fsyncs the journal before death, and a watchdog thread reports a
stalled sampler or a CPU-silent application into the heartbeat, the
ledger, and the journal.  It contains no sampling or report-delta
code of its own.
"""

from __future__ import annotations

import atexit
import os
import signal
import socket
import threading
import time
from functools import cached_property
from typing import Optional

from repro.collect import (
    CollectionEngine,
    HwtCollector,
    LwpCollector,
    MemoryCollector,
    ProcReader,
    RealProc,
    SampleStore,
    read_cpu_times,
    read_task,
)
from repro.collect.faults import classify_failure, is_missing
from repro.collect.report import StoreBackedRun
from repro.core.config import ZeroSumConfig
from repro.core.heartbeat import HeartbeatWriter, heartbeat_line
from repro.detect import TopologyFacts
from repro.errors import MonitorError, ProcessVanishedError, ProcFSError
from repro.live.watchdog import SamplerWatchdog
from repro.units import USER_HZ

__all__ = ["LiveZeroSum"]

#: signals that trigger the last-gasp journal flush
_LAST_GASP_SIGNALS = (signal.SIGTERM, signal.SIGINT)


class LiveZeroSum(StoreBackedRun):
    """Monitor the calling process via the real /proc."""

    # identity: first-sample baseline, series in wall-clock jiffies
    # (the base's USER_HZ)
    driver = "live"
    baseline = "first"

    def __init__(
        self,
        config: Optional[ZeroSumConfig] = None,
        proc_root: str = "/proc",
        reader: Optional[ProcReader] = None,
    ):
        self.config = config or ZeroSumConfig()
        self.proc_root = proc_root
        self.pid = os.getpid()
        self.hostname = socket.gethostname()
        #: the /proc substrate; injectable for fault testing (see
        #: repro.collect.faults.FaultyProc)
        self.reader = reader if reader is not None else RealProc(proc_root)
        self.start_time = time.monotonic()
        self.end_time: Optional[float] = None
        self._monitor_tid: Optional[int] = None
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._watchdog_thread: Optional[threading.Thread] = None
        self._stopped = False
        #: monotonic timestamp of the newest completed sample
        self._last_sample_wall: Optional[float] = None
        self.heartbeats: list[str] = []
        self._heartbeat: Optional[HeartbeatWriter] = None
        if self.config.heartbeat_path:
            self._heartbeat = HeartbeatWriter(
                self.config.heartbeat_path, fsync=self.config.heartbeat_fsync
            )
        self._prev_signal_handlers: dict[int, object] = {}
        self._atexit_registered = False

        self.cpus_allowed = read_task(self.reader, self.pid, self.pid)[1].cpus_allowed

        self.store = SampleStore()
        collectors = [LwpCollector(self.reader, self.store, self.pid)]
        if self.config.collect_hwt:
            collectors.append(
                HwtCollector(self.reader, self.store, self.cpus_allowed)
            )
        if self.config.collect_memory:
            collectors.append(
                MemoryCollector(self.reader, self.store, self.pid)
            )
        self.engine = CollectionEngine.for_run(self, collectors)
        #: crash-durability spill journal (None runs memory-only)
        self.journal = self.engine.journal
        #: online detection over the committed store (None when off)
        self.detector = self.engine.detector
        #: watchdog over the sampler and the monitored process's jiffies
        self.watchdog: Optional[SamplerWatchdog] = None
        if self.config.watchdog_stall_periods > 0:
            self.watchdog = SamplerWatchdog(
                stall_after_seconds=(
                    self.config.watchdog_stall_periods
                    * self.config.period_seconds
                ),
                last_sample_time=lambda: self._last_sample_wall,
                jiffies_total=self._app_jiffies_total,
            )

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start sampling; arm the journal, watchdog, and last gasp."""
        if self._thread is not None and self._thread.is_alive():
            raise MonitorError("live monitor already started")
        self._stop.clear()
        self._stopped = False
        self.end_time = None  # a restarted run has not ended
        # a restart must not inherit the previous run's staleness: the
        # age of the last pre-stop sample would otherwise read as a
        # sampler stall the moment the watchdog wakes, before the new
        # sampler thread has had one period to produce a sample
        self._last_sample_wall = None
        if self.watchdog is not None:
            self.watchdog.reset()
        if self.journal is not None and not self.journal.is_open:
            self.journal.open(
                self.store,
                {
                    **self.journal_meta(),
                    "period_seconds": self.config.period_seconds,
                },
            )
            self.engine.journal = self.journal
        self._thread = threading.Thread(
            target=self._loop, name="zerosum", daemon=True
        )
        self._thread.start()
        if self.watchdog is not None:
            self._watchdog_thread = threading.Thread(
                target=self._watchdog_loop, name="zerosum-watchdog", daemon=True
            )
            self._watchdog_thread.start()
        if self.config.last_gasp and self.journal is not None:
            self._install_last_gasp()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop sampling and take the final sample.

        Idempotent, and safe when :meth:`start` was never called.  If
        the sampling thread does not exit within ``timeout`` the
        handle is *kept* (never orphan a running thread — it would
        race the final sample), the timeout is recorded in the
        degradation ledger, and a :class:`MonitorError` surfaces it;
        a later call retries the join.
        """
        if self._stopped:
            return
        self._stop.set()
        watchdog_thread = self._watchdog_thread
        if watchdog_thread is not None:
            watchdog_thread.join(timeout=timeout)
            if not watchdog_thread.is_alive():
                self._watchdog_thread = None
        thread = self._thread
        if thread is not None:
            thread.join(timeout=timeout)
            if thread.is_alive():
                reason = (
                    f"sampling thread did not stop within {timeout:g}s; "
                    f"final sample skipped"
                )
                self.store.ledger.record_error(
                    "LiveZeroSum", self._now_tick(), reason
                )
                raise MonitorError(reason)
            self._thread = None
        self._stopped = True
        try:
            self.sample_once()
        except ProcFSError as exc:
            # a final sample on a dying host must not mask the stop
            self.store.ledger.record_error(
                "LiveZeroSum", self._now_tick(), f"final sample failed: {exc}"
            )
        self.end_time = time.monotonic()
        self.engine.close_journal(self._now_tick(), self.closing_meta())
        self._uninstall_last_gasp()
        if self._heartbeat is not None:
            self._heartbeat.close()

    # -- crash durability ----------------------------------------------
    def flush_now(self) -> None:
        """Force everything journaled so far to stable storage.

        The explicit last-gasp entry point: cheap (an fsync, not a
        snapshot — the journal only ever holds whole committed
        periods), lock-protected against the sampler thread, and safe
        to call from signal handlers, atexit, or application code at
        any point between :meth:`start` and :meth:`stop`.
        """
        journal = self.engine.journal
        if journal is not None and journal.is_open:
            try:
                journal.sync()
            except OSError as exc:
                self.store.ledger.record_error(
                    "Journal",
                    self._now_tick(),
                    f"last-gasp sync failed: {exc}",
                )
        if self._heartbeat is not None:
            try:
                self._heartbeat.flush()
            except (OSError, ValueError) as exc:
                self.store.ledger.record_error(
                    "Heartbeat",
                    self._now_tick(),
                    f"last-gasp flush failed: {exc}",
                )

    def _install_last_gasp(self) -> None:
        if not self._atexit_registered:
            atexit.register(self._atexit_flush)
            self._atexit_registered = True
        for signum in _LAST_GASP_SIGNALS:
            try:
                self._prev_signal_handlers[signum] = signal.signal(
                    signum, self._on_last_gasp_signal
                )
            except ValueError as exc:
                # signal.signal only works on the main thread — record
                # the degraded durability rather than failing start()
                self.store.ledger.record_error(
                    "LastGasp",
                    self._now_tick(),
                    f"signal handlers unavailable: {exc}",
                )
                break

    def _uninstall_last_gasp(self) -> None:
        if self._atexit_registered:
            atexit.unregister(self._atexit_flush)
            self._atexit_registered = False
        handlers, self._prev_signal_handlers = self._prev_signal_handlers, {}
        for signum, previous in handlers.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, TypeError) as exc:
                self.store.ledger.record_error(
                    "LastGasp",
                    self._now_tick(),
                    f"could not restore handler for signal {signum}: {exc}",
                )

    def _atexit_flush(self) -> None:
        journal = self.engine.journal
        if journal is not None and journal.is_open:
            try:
                journal.note(
                    self._now_tick(), "LastGasp", "atexit: journal flushed"
                )
            except (OSError, ValueError) as exc:
                self.store.ledger.record_error(
                    "LastGasp", self._now_tick(), f"atexit note failed: {exc}"
                )
        self.flush_now()

    def _on_last_gasp_signal(self, signum: int, frame) -> None:
        journal = self.engine.journal
        if journal is not None and journal.is_open:
            try:
                journal.note(
                    self._now_tick(),
                    "LastGasp",
                    f"caught signal {signum}; journal flushed",
                )
            except (OSError, ValueError) as exc:
                self.store.ledger.record_error(
                    "LastGasp",
                    self._now_tick(),
                    f"signal {signum} note failed: {exc}",
                )
        self.flush_now()
        previous = self._prev_signal_handlers.get(signum)
        if callable(previous):
            previous(signum, frame)
            return
        if previous is signal.SIG_IGN:
            return
        # default disposition: die by this signal, but only after the
        # flush above made the journal durable
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)

    # -- watchdog -------------------------------------------------------
    def _app_jiffies_total(self) -> float:
        """Cumulative utime+stime of the app, minus the monitor itself."""
        return sum(
            total
            for tid, total in self.store.prev_totals.items()
            if tid != self._monitor_tid
        )

    def _watchdog_loop(self) -> None:
        interval = max(0.05, self.config.period_seconds)
        while not self._stop.wait(interval):
            now = time.monotonic()
            for event in self.watchdog.check(now):
                tick = self._now_tick()
                reason = event.render()
                self.store.ledger.record_error("Watchdog", tick, reason)
                self._emit_heartbeat(
                    heartbeat_line(
                        seconds=now - self.start_time,
                        pid=self.pid,
                        threads=self.store.last_thread_count,
                        ledger=self.store.ledger,
                        last_sample_age_s=self._sample_age(now),
                        alerts=self.store.alerts,
                    )
                )
                journal = self.engine.journal
                if journal is not None and journal.is_open:
                    try:
                        journal.note(tick, "Watchdog", reason)
                    except (OSError, ValueError) as exc:
                        self.store.ledger.record_error(
                            "Journal",
                            tick,
                            f"watchdog note failed: {exc}",
                        )

    def _sample_age(self, now: float) -> float:
        if self._last_sample_wall is None:
            return now - self.start_time
        return now - self._last_sample_wall

    # -- heartbeat ------------------------------------------------------
    def _emit_heartbeat(self, line: str) -> None:
        self.heartbeats.append(line)
        if self._heartbeat is not None:
            try:
                self._heartbeat.write(line)
            except (OSError, ValueError) as exc:
                self.store.ledger.record_error(
                    "Heartbeat",
                    self._now_tick(),
                    f"heartbeat write failed: {exc}",
                )

    def _loop(self) -> None:
        """Sample every period; degradation is data, not death.

        The engine contains collector failures, so the only legitimate
        reason to stop early is the monitored process's own
        ``/proc/<pid>`` disappearing — and even that is confirmed by
        re-probing, since one vanished read can be a transient glitch
        of the substrate.  Anything else is recorded in the ledger and
        the loop keeps going.
        """
        self._monitor_tid = threading.get_native_id()
        if self.detector is not None:
            # exempt the sampler thread from the per-thread rules, the
            # same way the sim driver exempts its monitor LWP
            self.detector.ignore_tids.add(self._monitor_tid)
        journal = self.engine.journal
        if journal is not None and journal.is_open:
            try:
                # the recovered report needs this to label the sampler
                journal.update_meta({"monitor_tid": self._monitor_tid})
            except (OSError, ValueError) as exc:
                self.store.ledger.record_error(
                    "Journal",
                    self._now_tick(),
                    f"monitor-tid meta update failed: {exc}",
                )
        while not self._stop.wait(self.config.period_seconds):
            tick = self._now_tick()
            try:
                self.sample_once()
            except ProcessVanishedError as exc:
                if self._process_vanished():
                    self.store.ledger.record_disable(
                        "LiveZeroSum",
                        tick,
                        f"owning process {self.pid} vanished: {exc}",
                    )
                    break
                self.store.ledger.record_error(
                    "LiveZeroSum",
                    tick,
                    f"spurious process-vanished report: {exc}",
                )
            except Exception as exc:
                # never die silently — but never *degrade* silently
                # either: classified failures feed the same consecutive
                # counters collector failures do, so a loop that fails
                # every period shows up in degraded_summary() and the
                # heartbeat instead of only in a debug-level error list
                self.store.ledger.record_failure(
                    "LiveZeroSum",
                    tick,
                    f"{type(exc).__name__}: {exc}",
                    classify_failure(exc),
                )
            else:
                self.store.ledger.record_success("LiveZeroSum")

    def _process_vanished(self, probes: int = 3) -> bool:
        """Confirm ``/proc/<pid>`` is really gone, not a glitch."""
        for _ in range(probes):
            try:
                self.reader.listdir(f"/proc/{self.pid}/task")
            except ProcFSError as exc:
                if is_missing(exc):
                    continue
                return False  # denied/broken, but present
            return False  # readable: still alive
        return True

    # ------------------------------------------------------------------
    def _now_tick(self) -> float:
        return (time.monotonic() - self.start_time) * USER_HZ

    def sample_once(self) -> None:
        """Take one sample (thread-safe via the GIL for our appends)."""
        tick = self._now_tick()
        snapshots = self.engine.sample(tick)
        self.engine.commit(tick, snapshots)
        now = time.monotonic()
        age = self._sample_age(now)
        self._last_sample_wall = now
        if (
            self.config.heartbeat_every
            and self.store.samples_taken % self.config.heartbeat_every == 0
        ):
            self._emit_heartbeat(
                heartbeat_line(
                    seconds=now - self.start_time,
                    pid=self.pid,
                    threads=len(snapshots),
                    ledger=self.store.ledger,
                    last_sample_age_s=age,
                    alerts=self.store.alerts,
                )
            )

    # ------------------------------------------------------------------
    def classify(self, tid: int) -> str:
        """Thread label: Main, ZeroSum (the sampler) or Other."""
        if tid == self.pid:
            return "Main"
        if tid == self._monitor_tid:
            return "ZeroSum"
        return "Other"

    @cached_property
    def facts(self) -> TopologyFacts:
        """§3.5 node context: the node's CPUs are ``/proc/stat``'s ``cpuN`` rows.

        The node, not the process's allowed set — a thread is bound when
        its mask covers under half of the *node*.
        """
        return TopologyFacts(
            node_cpus=frozenset(
                cpu for cpu in read_cpu_times(self.reader) if cpu >= 0
            )
        )

    @property
    def ended(self) -> bool:
        return self.end_time is not None

    @property
    def duration_seconds(self) -> float:
        """Observation window in wall-clock seconds (so far, if running)."""
        return (self.end_time or time.monotonic()) - self.start_time
