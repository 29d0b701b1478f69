"""Progress detection and deadlock suspicion (§3.3).

The paper's prototype periodically writes a heartbeat to stdout and
observes that the LWP state plus the idle/user/system counters would
suffice to "detect a deadlock condition and possibly terminate the
application to prevent wasting of allocation resources", leaving that
as future work.  We implement it: :class:`ProgressTracker` watches the
per-sample deltas of every application thread; if every thread is
blocked and no CPU time accrues for N consecutive samples, a deadlock
is flagged.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, NamedTuple, Optional

if TYPE_CHECKING:
    from repro.collect.faults import DegradationLedger
    from repro.detect.findings import AlertLedger

__all__ = [
    "ThreadSnapshot",
    "ProgressTracker",
    "HeartbeatWriter",
    "heartbeat_line",
]


def heartbeat_line(
    *,
    seconds: float,
    pid: int,
    threads: int,
    ledger: Optional["DegradationLedger"] = None,
    last_sample_age_s: Optional[float] = None,
    alerts: Optional["AlertLedger"] = None,
) -> str:
    """One heartbeat: liveness, thread count, and any degradation.

    A degraded pipeline heartbeats *louder*, not silent — the line
    names what is disabled or dropping rows so an operator watching
    stdout learns why a column will be missing before the final
    report.

    ``last_sample_age_s`` is the monotonic-clock age of the newest
    completed sample.  With it in every line, an external watchdog can
    detect a stalled sampler from the heartbeat file alone: a healthy
    monitor writes small ages, a wedged one writes growing ages (or
    stops writing, which the file's mtime betrays either way).

    ``alerts`` is the online detector's ledger; when it holds findings
    the line carries a per-code tally so the heartbeat file alone
    shows what the detector has seen and how often.
    """
    line = f"[zerosum] t={seconds:.1f}s pid={pid} viable, {threads} threads"
    if last_sample_age_s is not None:
        line += f" last_sample_age={last_sample_age_s:.1f}s"
    if ledger is not None and ledger.degraded:
        line += f" [degraded: {ledger.degraded_summary()}]"
    if alerts is not None and len(alerts):
        line += f" alerts=[{alerts.heartbeat_summary()}]"
    return line


class HeartbeatWriter:
    """Append-only heartbeat file with opt-in fsync-per-line.

    The default flushes each line to the OS (survives the process
    dying); ``fsync=True`` additionally forces it to stable storage so
    a node-level watchdog never reads a stale-but-acknowledged
    heartbeat after power loss.
    """

    def __init__(self, path: str | Path, *, fsync: bool = False):
        self.path = Path(path)
        self.fsync = fsync
        self._file = open(self.path, "a", encoding="utf-8")

    def write(self, line: str) -> None:
        """Append one heartbeat line, flushed (and fsynced if opted in)."""
        self._file.write(line.rstrip("\n") + "\n")
        self._file.flush()
        if self.fsync:
            os.fsync(self._file.fileno())

    def flush(self) -> None:
        """Force everything written so far to stable storage."""
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        """Close the file; idempotent."""
        if not self._file.closed:
            self._file.close()


class ThreadSnapshot(NamedTuple):
    """The per-thread facts one sample contributes to progress tracking
    (a named tuple: one is built per thread per sample)."""

    tid: int
    state: str  # /proc state letter
    total_jiffies: float  # utime + stime, cumulative


@dataclass
class ProgressTracker:
    """Stall counting over successive samples.

    ``threshold`` consecutive samples with zero progress and no
    runnable thread flag a suspected deadlock.  ``ignore_tids`` holds
    the monitor's own thread (it is always making progress) and other
    helper threads that legitimately idle.
    """

    threshold: int
    ignore_tids: set[int] = field(default_factory=set)
    stalled_samples: int = 0
    deadlock_sample: Optional[int] = None
    _last_totals: dict[int, float] = field(default_factory=dict)
    _samples_seen: int = 0

    def observe(self, snapshots: list[ThreadSnapshot]) -> bool:
        """Feed one sample; returns True if a deadlock is (now) flagged."""
        self._samples_seen += 1
        watched = [s for s in snapshots if s.tid not in self.ignore_tids]
        if not watched:
            return False

        progressed = False
        any_runnable = False
        for snap in watched:
            prev = self._last_totals.get(snap.tid)
            if prev is None or snap.total_jiffies > prev + 1e-9:
                progressed = True
            if snap.state == "R":
                any_runnable = True
            self._last_totals[snap.tid] = snap.total_jiffies

        if progressed or any_runnable:
            self.stalled_samples = 0
            return False

        self.stalled_samples += 1
        if (
            self.threshold > 0
            and self.stalled_samples >= self.threshold
            and self.deadlock_sample is None
        ):
            self.deadlock_sample = self._samples_seen
        return self.deadlock_sample is not None

    @property
    def deadlock_suspected(self) -> bool:
        return self.deadlock_sample is not None

    def describe(self) -> str:
        """Human-readable progress verdict."""
        if not self.deadlock_suspected:
            return "progress normal"
        return (
            f"suspected deadlock: no thread progress for "
            f"{self.stalled_samples} consecutive samples "
            f"(first flagged at sample {self.deadlock_sample})"
        )
