"""Live data streaming (§3.3/§6): feed samples to other tools.

The paper closes with "ZeroSum could be utilized to feed
application-oriented information to system-oriented services such as
LDMS" and "interfaces to ZeroSum could make its data accessible to
application performance tools like TAU".  This module is that seam:

* :class:`SampleStream` — a publish/subscribe bus the monitor pushes a
  condensed :class:`SampleEvent` onto after every sampling period;
* :class:`LdmsAggregator` — an LDMS-like in-memory metric service
  subscribed to any number of ranks, answering "what is rank r /
  node n doing *right now*" queries mid-run;
* :class:`CallbackSubscriber` — the TAU/PerfStubs-style adapter: hand
  it any callable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Protocol

if TYPE_CHECKING:
    from repro.collect.store import SampleStore
    from repro.core.heartbeat import ThreadSnapshot

__all__ = [
    "SampleEvent",
    "StreamSubscriber",
    "SampleStream",
    "CallbackSubscriber",
    "LdmsAggregator",
    "condense_event",
]


@dataclass(frozen=True)
class SampleEvent:
    """One period's condensed observation of one process."""

    tick: int
    seconds: float
    hostname: str
    pid: int
    rank: Optional[int]
    threads: int
    runnable_threads: int
    busy_pct: float  # mean user+system across app threads, last interval
    rss_kib: float
    mem_available_kib: float
    gpu_busy_pct: float  # -1 when no GPU visible
    deadlock_suspected: bool
    #: degradation-ledger state at sample time: rows lost so far and
    #: which collectors have been disabled (with reasons in the ledger)
    dropped_rows: int = 0
    disabled_collectors: tuple[str, ...] = ()


def condense_event(
    store: "SampleStore",
    tick: float,
    snapshots: "list[ThreadSnapshot]",
    *,
    hz: float,
    hostname: str,
    pid: int,
    rank: Optional[int],
    monitor_tid: Optional[int],
    deadlock_suspected: bool,
) -> SampleEvent:
    """Condense one period's store state into a :class:`SampleEvent`.

    The busy rate differences the fresh snapshots against the store's
    previous-sample totals, so this must run before the period is
    committed.  The monitor's own thread is excluded from the busy
    average, as in the paper's overhead accounting.
    """
    interval = max(1, tick - store.prev_tick)
    app = [s for s in snapshots if s.tid != monitor_tid]
    deltas = [s.total_jiffies - store.prev_totals.get(s.tid, 0.0) for s in app]
    busy_threads = [d for d in deltas if d > 0] or deltas
    busy_pct = (
        100.0 * sum(busy_threads) / (interval * len(busy_threads))
        if busy_threads
        else 0.0
    )
    gpu_busy = -1.0
    if store.gpu_series:
        vals = [
            float(series.column("busy_percent")[-1])
            for series in store.gpu_series.values()
            if len(series)
        ]
        if vals:
            gpu_busy = sum(vals) / len(vals)
    rss = mem_avail = 0.0
    if len(store.mem_series):
        rss = store.mem_series.last("rss_kib")
        mem_avail = store.mem_series.last("mem_available_kib")
    ledger = store.ledger
    return SampleEvent(
        tick=tick,
        seconds=tick / hz,
        hostname=hostname,
        pid=pid,
        rank=rank,
        threads=len(snapshots),
        runnable_threads=sum(1 for s in snapshots if s.state == "R"),
        busy_pct=busy_pct,
        rss_kib=rss,
        mem_available_kib=mem_avail,
        gpu_busy_pct=gpu_busy,
        deadlock_suspected=deadlock_suspected,
        dropped_rows=sum(ledger.dropped_rows.values()),
        disabled_collectors=tuple(sorted(ledger.disabled)),
    )


class StreamSubscriber(Protocol):
    """Anything that consumes sample events."""

    def on_sample(self, event: SampleEvent) -> None: ...


class SampleStream:
    """A tiny synchronous publish/subscribe bus."""

    def __init__(self) -> None:
        self._subscribers: list[StreamSubscriber] = []
        self.published = 0

    def subscribe(self, subscriber: StreamSubscriber) -> None:
        """Register a consumer for all future events."""
        self._subscribers.append(subscriber)

    def publish(self, event: SampleEvent) -> None:
        """Deliver one event synchronously to every subscriber."""
        self.published += 1
        for subscriber in list(self._subscribers):
            subscriber.on_sample(event)


class CallbackSubscriber:
    """Adapter: wrap a plain callable as a subscriber."""

    def __init__(self, fn: Callable[[SampleEvent], None]):
        self._fn = fn

    def on_sample(self, event: SampleEvent) -> None:
        """Subscriber entry point: fold one event into the rolling state."""
        self._fn(event)


@dataclass
class _RankState:
    last: Optional[SampleEvent] = None
    peak_rss_kib: float = 0.0


class LdmsAggregator:
    """An in-memory metric service collecting the whole job's stream.

    Mimics how an LDMS daemon would hold the latest sample per
    producer and expose simple aggregate queries.
    """

    def __init__(self) -> None:
        self._ranks: dict[int, _RankState] = {}
        self.events = 0

    # -- subscriber interface -------------------------------------------
    def on_sample(self, event: SampleEvent) -> None:
        """Subscriber entry point: fold one event into rolling state."""
        self.events += 1
        key = event.rank if event.rank is not None else -event.pid
        state = self._ranks.setdefault(key, _RankState())
        state.last = event
        state.peak_rss_kib = max(state.peak_rss_kib, event.rss_kib)

    # -- queries ------------------------------------------------------------
    def ranks(self) -> list[int]:
        """Ranks that have reported at least once."""
        return sorted(self._ranks)

    def latest(self, rank: int) -> Optional[SampleEvent]:
        """Most recent event from a rank, or None if never seen."""
        state = self._ranks.get(rank)
        return state.last if state else None

    def peak_rss_kib(self, rank: int) -> float:
        """Largest RSS the rank ever reported."""
        state = self._ranks.get(rank)
        return state.peak_rss_kib if state else 0.0

    def stalled_ranks(self) -> list[int]:
        """Ranks whose latest event carries a deadlock suspicion."""
        return [
            rank
            for rank, state in sorted(self._ranks.items())
            if state.last is not None and state.last.deadlock_suspected
        ]
