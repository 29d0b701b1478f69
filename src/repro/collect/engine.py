"""The sampling engine: reader + collectors + store, no scheduling.

A :class:`CollectionEngine` is the whole §3 observation pipeline with
the driver-specific parts factored out.  The simulated monitor calls
:meth:`sample` from a simulated thread on simulated ticks; the live
monitor calls it from a Python thread on wall-clock jiffies; the
replay driver bypasses it entirely and refills the store from a log.
None of them contain sampling code of their own.

One sampling period is two calls: :meth:`sample` takes the
observation, and :meth:`commit` closes the period once the driver has
consumed any per-interval products (heartbeats, stream events) that
difference the new sample against the previous one.

:meth:`sample` is **transactional per collector**: each collector runs
inside a containment boundary bracketed by the store's ``begin`` /
``release``, so a failing collector's staged rows are dropped and a
period is whole-per-subsystem or absent, never torn.  Transient
failures (vanished paths, I/O hiccups) are retried within the period
under the :class:`~repro.collect.faults.FaultPolicy`; a collector that
fails ``disable_after`` consecutive periods is disabled with a reason.
Every decision lands in the store's
:class:`~repro.collect.faults.DegradationLedger`.  The only exception
that escapes :meth:`sample` is
:class:`~repro.errors.ProcessVanishedError` — the monitored process
itself is gone, which only the driver can decide what to do about.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.collect.collectors import Collector
from repro.collect.faults import TRANSIENT, FaultPolicy, classify_failure
from repro.collect.journal import JournalWriter
from repro.collect.store import SampleStore
from repro.core.heartbeat import ThreadSnapshot
from repro.core.stream import SampleEvent, condense_event
from repro.detect.findings import OnlineFinding
from repro.detect.online import OnlineDetector
from repro.errors import ProcessVanishedError

__all__ = ["CollectionEngine", "collector_name"]

#: consecutive journal-write failures before journaling is abandoned
_JOURNAL_DISABLE_AFTER = 3


def collector_name(collector: Collector) -> str:
    """The ledger key of a collector (its ``name`` or class name)."""
    return getattr(collector, "name", type(collector).__name__)


class CollectionEngine:
    """Run every collector over one substrate into one store."""

    def __init__(
        self,
        store: SampleStore,
        collectors: Iterable[Collector],
        *,
        policy: Optional[FaultPolicy] = None,
        journal: Optional[JournalWriter] = None,
        detector: Optional[OnlineDetector] = None,
    ):
        self.store = store
        self.collectors: list[Collector] = list(collectors)
        self.policy = policy or FaultPolicy()
        #: crash-durability spill journal; None runs memory-only
        self.journal = journal
        self._journal_failures = 0
        #: online detection engine, evaluated once per committed period
        self.detector = detector
        if detector is not None:
            # publish the alert ledger on the store so the report
            # builder (and any store consumer) can read it without the
            # store ever importing the detect package
            store.alerts = detector.alerts

    @classmethod
    def for_run(cls, run, collectors: Iterable[Collector]) -> "CollectionEngine":
        """The pipeline ``run.config`` asks for, over ``run.store``.

        ``run`` is the driver (a :class:`~repro.collect.report.StoreBackedRun`
        with a ``config``).  Its ``facts`` are read only when online
        detection is on — deriving a node's topology is too dear for the
        hundreds of ranks of a job that never looks at it — and the
        journal is returned unopened: when to open it is the driver's.
        """
        config = run.config
        journal = detector = None
        if config.journal_path:
            journal = JournalWriter(
                config.journal_path,
                checkpoint_every=config.journal_checkpoint_every,
                fsync=config.journal_fsync,
                classify=run.classify,
            )
        if config.detect_online:
            detector = OnlineDetector(hz=run.hz, facts=run.facts)
        return cls(
            run.store,
            collectors,
            policy=FaultPolicy(
                max_retries=config.fault_retries,
                disable_after=config.fault_disable_after,
            ),
            journal=journal,
            detector=detector,
        )

    def sample(self, tick: float) -> list[ThreadSnapshot]:
        """One periodic observation across all collectors.

        Never raises for containable collector failures; see the
        module docstring for the containment contract.
        """
        snapshots: list[ThreadSnapshot] = []
        ledger = self.store.ledger
        for collector in self.collectors:
            name = collector_name(collector)
            if ledger.is_disabled(name):
                continue
            snapshots.extend(self._sample_contained(collector, name, tick))
        self.store.samples_taken += 1
        self.store.last_thread_count = len(snapshots)
        return snapshots

    def _sample_contained(
        self, collector: Collector, name: str, tick: float
    ) -> list[ThreadSnapshot]:
        """One collector, one period, inside the containment boundary."""
        policy, store, ledger = self.policy, self.store, self.store.ledger
        for attempt in range(policy.max_retries + 1):
            store.begin()
            try:
                result = collector.collect(tick)
                store.release()  # inside: a row it cannot apply is contained too
            except ProcessVanishedError:
                # the monitored process itself is gone: nothing to
                # contain, but never leave a torn period behind
                store.rollback()
                raise
            except Exception as exc:
                discarded = store.rollback()
                failure_class = classify_failure(exc)
                reason = f"{type(exc).__name__}: {exc}"
                if failure_class == TRANSIENT and attempt < policy.max_retries:
                    ledger.record_retry(name, tick, reason, failure_class)
                    continue
                consecutive = ledger.record_failure(
                    name,
                    tick,
                    reason,
                    failure_class,
                    rows_discarded=discarded,
                )
                if policy.disable_after and consecutive >= policy.disable_after:
                    ledger.record_disable(
                        name,
                        tick,
                        f"{consecutive} consecutive failed periods; "
                        f"last: {reason}",
                    )
                return []
            else:
                ledger.record_success(name)
                return result
        return []  # unreachable: the last attempt records and returns

    def make_event(
        self,
        tick: float,
        snapshots: list[ThreadSnapshot],
        *,
        hz: float,
        hostname: str,
        pid: int,
        rank: Optional[int],
        monitor_tid: Optional[int],
        deadlock_suspected: bool,
    ) -> SampleEvent:
        """Condense the sample just taken into one stream event.

        Must run before :meth:`commit` — the busy rate differences the
        new totals against the previous period's.
        """
        return condense_event(
            self.store,
            tick,
            snapshots,
            hz=hz,
            hostname=hostname,
            pid=pid,
            rank=rank,
            monitor_tid=monitor_tid,
            deadlock_suspected=deadlock_suspected,
        )

    def commit(
        self, tick: float, snapshots: list[ThreadSnapshot]
    ) -> list[OnlineFinding]:
        """Close the period: record its tick and cumulative totals.

        Once the store commit lands, the online detector (when one is
        attached) evaluates the period and its newly fired findings are
        returned — already recorded in the store's alert ledger, and
        spooled as durable journal notes below.  A failing detector
        must never kill the sampler: its exception is classified and
        contained into the degradation ledger like a collector failure.

        A closed period is durable-eligible: it is spooled to the spill
        journal (when one is attached) *after* the store commit, so the
        journal only ever contains whole periods.  A failing journal
        must never kill the sampler — write errors are contained into
        the ledger, and journaling is abandoned (with a reason) after
        :data:`_JOURNAL_DISABLE_AFTER` consecutive failures.
        """
        self.store.commit(tick, snapshots)
        findings: list[OnlineFinding] = []
        if self.detector is not None:
            try:
                findings = self.detector.observe(self.store, tick)
            except Exception as exc:
                failure_class = classify_failure(exc)
                self.store.ledger.record_failure(
                    "OnlineDetect",
                    tick,
                    f"{type(exc).__name__}: {exc}",
                    failure_class,
                )
        journal = self.journal
        if journal is None:
            return findings
        try:
            # alert notes first: each finding is fsynced before the
            # period delta, so the alert that predicts a death is
            # durable even if the period write is what dies
            for finding in findings:
                journal.alert(finding)
            journal.record_period(self.store, tick)
        except Exception as exc:
            self._journal_failures += 1
            reason = f"{type(exc).__name__}: {exc}"
            self.store.ledger.record_error(
                "Journal", tick, f"journal write failed: {reason}"
            )
            if self._journal_failures >= _JOURNAL_DISABLE_AFTER:
                self.store.ledger.record_disable(
                    "Journal",
                    tick,
                    f"{self._journal_failures} consecutive journal write "
                    f"failures; last: {reason}",
                )
                self.journal = None
        else:
            self._journal_failures = 0
        return findings

    def close_journal(self, tick: float, meta: Optional[dict] = None) -> None:
        """Close the spill journal (contained): its residue record, or a
        bounded store's final compaction, with the closing ``meta``
        amendment (:meth:`StoreBackedRun.closing_meta`)."""
        journal = self.journal
        if journal is None:
            return
        try:
            journal.close(self.store, meta)
        except Exception as exc:
            self.store.ledger.record_error(
                "Journal",
                tick,
                f"final journal record failed: "
                f"{type(exc).__name__}: {exc}",
            )
        self.journal = None
