"""Fault containment for the sampling path (§3.1's always-on promise).

ZeroSum must survive anything the host does to it: threads dying
mid-sample, ``/proc`` entries vanishing, permissions missing, garbage
text from a half-written file.  Production monitoring stacks treat
such degradation as *data*, not death — this module holds the three
pieces that make the collector pipeline behave that way:

* :func:`classify_failure` — the transient/permanent taxonomy.  A
  vanished path (``ENOENT``/``ESRCH``, or a simulated reader's
  errno-less miss) or an I/O hiccup (``EIO``/``EAGAIN``) is
  *transient*: retrying the period may succeed.  A permission error
  (``EACCES``/``EPERM``) or a parse failure (the file existed but its
  content was not what the parser expects — usually a code bug or
  corrupted source) is *permanent*: retrying cannot help.
* :class:`FaultPolicy` — how the :class:`~repro.collect.engine.
  CollectionEngine` reacts: bounded in-period retries for
  transients, and disabling a collector after N
  consecutive failed periods, mirroring how the paper's ZeroSum
  degrades when a vendor SMI is absent (§3.4).
* :class:`DegradationLedger` — every containment decision, recorded on
  the :class:`~repro.collect.store.SampleStore` with tick and reason,
  surfaced in heartbeats, stream events, and the final report.

:class:`FaultyProc` is the deterministic fault injector used by the
fault-injection test suite: it wraps any
:class:`~repro.collect.reader.ProcReader` and, from a seeded RNG,
makes files vanish, turns reads into permission errors, truncates or
garbles text, and delays reads — the same menagerie a real compute
node produces, on demand and reproducibly.
"""

from __future__ import annotations

import errno as _errno
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import ProcFSError, ProcParseError

__all__ = [
    "TRANSIENT",
    "PERMANENT",
    "HangDetected",
    "classify_failure",
    "FaultPolicy",
    "DegradationEvent",
    "DegradationLedger",
    "FaultyProc",
]

TRANSIENT = "transient"
PERMANENT = "permanent"


class HangDetected(RuntimeError):
    """A worker stopped answering but its process is still alive.

    Distinct from death (``EOFError``/a reaped exit code): the process
    exists but makes no observable progress — a wedged ``/proc`` read,
    a livelock, a stuck barrier.  Classified *transient*: a wedge is
    usually a property of the moment (a blocked read, an overloaded
    host), unlike a deterministic crash that reproduces on every rerun.
    """

#: OS errors a retry may clear: the path vanished (dead thread, exited
#: process) or the read hit a momentary I/O problem.
_TRANSIENT_ERRNOS = frozenset(
    {_errno.ENOENT, _errno.ESRCH, _errno.EIO, _errno.EAGAIN}
)
#: OS errors no retry can clear within one monitoring session.
_PERMANENT_ERRNOS = frozenset({_errno.EACCES, _errno.EPERM})


def classify_failure(exc: BaseException) -> str:
    """``TRANSIENT`` or ``PERMANENT`` for one collector failure.

    ``ProcFSError`` carries the originating errno when the substrate
    had one; an errno-less ``ProcFSError`` (the simulated reader's
    "no such file") is treated as a vanished path, hence transient.
    A :class:`~repro.errors.ProcParseError` — the file was readable
    but its content was malformed — and anything that is not a
    ``ProcFSError`` at all (``ValueError`` from deeper code, an SMI
    backend error, a plain bug) are permanent: the same input will
    fail the same way.  :class:`HangDetected` — a live-but-silent
    worker — is transient: a rerun routinely clears it.
    """
    if isinstance(exc, ProcParseError):
        return PERMANENT
    if isinstance(exc, HangDetected):
        return TRANSIENT
    if isinstance(exc, ProcFSError):
        if exc.errno in _PERMANENT_ERRNOS:
            return PERMANENT
        return TRANSIENT
    return PERMANENT


def is_missing(exc: BaseException) -> bool:
    """Whether a failure means "the path is gone" (vs. denied/broken).

    Malformed content (:class:`~repro.errors.ProcParseError`) is never
    "missing" — the path was there — no matter what errno says.
    """
    if isinstance(exc, ProcParseError):
        return False
    return isinstance(exc, ProcFSError) and (
        exc.errno is None or exc.errno in (_errno.ENOENT, _errno.ESRCH)
    )


@dataclass
class FaultPolicy:
    """How the engine contains collector failures.

    ``max_retries`` bounds the in-period re-attempts after a transient
    failure; ``disable_after`` consecutive failed *periods* (of either
    class) disable the collector for the rest of the run (0 keeps it
    limping forever).  Retries are immediate re-reads.
    """

    max_retries: int = 2
    disable_after: int = 3


@dataclass(frozen=True)
class DegradationEvent:
    """One containment decision: what happened to whom, when, and why."""

    tick: float
    collector: str
    action: str  # "retry" | "failure" | "dropped-row" | "disabled" | "error"
    failure_class: str  # TRANSIENT | PERMANENT | ""
    reason: str

    def render(self) -> str:
        """One report line: ``tick 412: GpuCollector disabled: ...``."""
        cls = f" [{self.failure_class}]" if self.failure_class else ""
        return (
            f"tick {self.tick:g}: {self.collector} {self.action}{cls}: "
            f"{self.reason}"
        )


class DegradationLedger:
    """Degradation as data: the per-collector health record of a run.

    Counters are exact for the whole run; the event log is a bounded
    ring (``max_events``) so an always-on monitor cannot leak memory
    through its own failure bookkeeping.
    """

    def __init__(self, max_events: int = 1024):
        self.events: deque[DegradationEvent] = deque(maxlen=max_events)
        self.total_events = 0
        #: consecutive failed periods, reset by any success
        self.consecutive_failures: dict[str, int] = {}
        #: failed (rolled-back) periods per collector, lifetime
        self.failed_periods: dict[str, int] = {}
        #: in-period transient retries per collector
        self.retries: dict[str, int] = {}
        #: single rows dropped (dead-thread race) per collector
        self.dropped_rows: dict[str, int] = {}
        #: rows discarded by period rollbacks per collector
        self.rolled_back_rows: dict[str, int] = {}
        #: collector name -> the event that disabled it
        self.disabled: dict[str, DegradationEvent] = {}

    # -- recording ------------------------------------------------------
    def _record(
        self,
        tick: float,
        collector: str,
        action: str,
        failure_class: str,
        reason: str,
    ) -> DegradationEvent:
        event = DegradationEvent(
            tick=tick,
            collector=collector,
            action=action,
            failure_class=failure_class,
            reason=reason,
        )
        self.events.append(event)
        self.total_events += 1
        return event

    def record_retry(
        self, collector: str, tick: float, reason: str, failure_class: str
    ) -> None:
        """An in-period retry after a transient failure."""
        self.retries[collector] = self.retries.get(collector, 0) + 1
        self._record(tick, collector, "retry", failure_class, reason)

    def record_failure(
        self,
        collector: str,
        tick: float,
        reason: str,
        failure_class: str,
        *,
        rows_discarded: int = 0,
    ) -> int:
        """A failed (rolled-back) period; returns the consecutive count."""
        count = self.consecutive_failures.get(collector, 0) + 1
        self.consecutive_failures[collector] = count
        self.failed_periods[collector] = (
            self.failed_periods.get(collector, 0) + 1
        )
        if rows_discarded:
            self.rolled_back_rows[collector] = (
                self.rolled_back_rows.get(collector, 0) + rows_discarded
            )
        self._record(tick, collector, "failure", failure_class, reason)
        return count

    def record_success(self, collector: str) -> None:
        """A whole period landed: the consecutive-failure streak ends."""
        self.consecutive_failures.pop(collector, None)

    def record_dropped_row(
        self, collector: str, tick: float, reason: str
    ) -> None:
        """One row lost inside an otherwise whole period."""
        self.dropped_rows[collector] = self.dropped_rows.get(collector, 0) + 1
        self._record(tick, collector, "dropped-row", TRANSIENT, reason)

    def record_disable(self, collector: str, tick: float, reason: str) -> None:
        """The collector is out for the rest of the run."""
        self.disabled[collector] = self._record(
            tick, collector, "disabled", "", reason
        )

    def record_error(self, collector: str, tick: float, reason: str) -> None:
        """A driver-level problem (loop error, stop timeout, ...)."""
        self._record(tick, collector, "error", "", reason)

    # -- queries --------------------------------------------------------
    def is_disabled(self, collector: str) -> bool:
        """Whether the collector has been taken out of rotation."""
        return collector in self.disabled

    @property
    def degraded(self) -> bool:
        """Whether anything at all went wrong this run."""
        return self.total_events > 0

    def degraded_summary(self) -> str:
        """One short clause for heartbeat lines."""
        parts = [
            f"{name} disabled ({event.reason})"
            for name, event in sorted(self.disabled.items())
        ]
        dropped = sum(self.dropped_rows.values())
        if dropped:
            parts.append(f"{dropped} dropped rows")
        failed = sum(self.failed_periods.values())
        if failed:
            parts.append(f"{failed} failed periods")
        return "; ".join(parts) if parts else "ok"

    def summary_lines(self) -> list[str]:
        """The report's Degradation Summary section (empty when clean)."""
        if not self.degraded:
            return []
        lines = []
        for name in sorted(
            set(self.failed_periods) | set(self.dropped_rows) | set(self.disabled)
        ):
            counts = []
            if self.failed_periods.get(name):
                counts.append(f"{self.failed_periods[name]} failed periods")
            if self.rolled_back_rows.get(name):
                counts.append(
                    f"{self.rolled_back_rows[name]} rows rolled back"
                )
            if self.dropped_rows.get(name):
                counts.append(f"{self.dropped_rows[name]} dropped rows")
            if self.retries.get(name):
                counts.append(f"{self.retries[name]} retries")
            if name in self.disabled:
                counts.append("disabled")
            lines.append(f"{name}: " + ", ".join(counts))
        if self.total_events > len(self.events):
            lines.append(
                f"(event log capped: showing last {len(self.events)} of "
                f"{self.total_events} events)"
            )
        lines.extend(event.render() for event in self.events)
        return lines


# ---------------------------------------------------------------------------
#: injectable fault kinds, in draw order
_FAULT_KINDS = ("missing", "eacces", "garbage", "truncated", "slow")

#: text no /proc parser accepts — triggers the permanent/parse path
_GARBAGE = "@!garbage 0xZZ not-a-proc-file\n" * 2


@dataclass(frozen=True)
class _Injection:
    """One injected fault, for assertions and debugging."""

    call: int
    op: str  # "read", "listdir" or a snapshot-tier method's name
    path: str
    kind: str


class FaultyProc:
    """Deterministic fault-injecting wrapper around any ``ProcReader``.

    Each call draws once from a seeded RNG, so the fault schedule is a
    pure function of ``(seed, call sequence)`` — the same test run
    always sees the same faults.  ``match`` restricts injection to
    paths it accepts (e.g. only one thread's files); every call still
    consumes exactly one draw, so adding or changing the filter never
    shifts the schedule of the remaining calls.

    The snapshot tier (``read_tasks_raw``/``read_cpu_times_raw``/
    ``read_memory_raw``) is forwarded — one draw per call, with
    missing/EACCES/slow injection — only when the wrapped reader
    implements it, so collectors' ``getattr`` probing sees the same
    tier either way.
    """

    def __init__(
        self,
        base,
        *,
        seed: int = 0,
        missing_rate: float = 0.0,
        eacces_rate: float = 0.0,
        garbage_rate: float = 0.0,
        truncate_rate: float = 0.0,
        slow_rate: float = 0.0,
        slow_seconds: float = 0.0,
        match: Optional[Callable[[str], bool]] = None,
        sleep: Optional[Callable[[float], None]] = None,
    ):
        self.base = base
        self._rng = random.Random(seed)
        self._rates = (
            missing_rate,
            eacces_rate,
            garbage_rate,
            truncate_rate,
            slow_rate,
        )
        self.slow_seconds = slow_seconds
        self.match = match
        self._sleep = sleep
        self.calls = 0
        self.injected: list[_Injection] = []
        # expose the snapshot tier only when the base reader has it,
        # so getattr-probing collectors pick the same tier either way
        if hasattr(base, "read_tasks_raw"):
            self.read_tasks_raw = self._read_tasks_raw
        if hasattr(base, "read_cpu_times_raw"):
            self.read_cpu_times_raw = self._read_cpu_times_raw
        if hasattr(base, "read_memory_raw"):
            self.read_memory_raw = self._read_memory_raw

    # -- the draw -------------------------------------------------------
    def _draw(self, op: str, path: str, kinds=_FAULT_KINDS) -> Optional[str]:
        self.calls += 1
        r = self._rng.random()  # exactly one draw per call, always
        if self.match is not None and not self.match(path):
            return None
        edge = 0.0
        for kind, rate in zip(_FAULT_KINDS, self._rates):
            edge += rate
            if r < edge:
                if kind not in kinds:
                    return None
                self.injected.append(
                    _Injection(call=self.calls, op=op, path=path, kind=kind)
                )
                return kind
        return None

    def _raise(self, kind: str, path: str) -> None:
        if kind == "missing":
            raise ProcFSError(
                f"injected fault: no such file: {path}", errno=_errno.ENOENT
            )
        if kind == "eacces":
            raise ProcFSError(
                f"injected fault: permission denied: {path}",
                errno=_errno.EACCES,
            )

    # -- textual tier ---------------------------------------------------
    def read(self, path: str) -> str:
        """Read through the base, possibly injecting one fault."""
        kind = self._draw("read", path)
        if kind in ("missing", "eacces"):
            self._raise(kind, path)
        if kind == "slow" and self._sleep is not None:
            self._sleep(self.slow_seconds)
        text = self.base.read(path)
        if kind == "garbage":
            return _GARBAGE
        if kind == "truncated":
            return text[: max(1, len(text) // 3)]
        return text

    def listdir(self, path: str) -> list[str]:
        """List through the base; only vanish/deny/slow make sense here."""
        kind = self._draw("listdir", path, kinds=("missing", "eacces", "slow"))
        if kind in ("missing", "eacces"):
            self._raise(kind, path)
        if kind == "slow" and self._sleep is not None:
            self._sleep(self.slow_seconds)
        return self.base.listdir(path)

    # -- snapshot tier (bound in __init__ when the base has it) ---------
    def _snapshot_draw(self, op: str, path: str) -> None:
        """One draw for a structured read: it can vanish, deny or stall."""
        kind = self._draw(op, path, kinds=("missing", "eacces", "slow"))
        if kind in ("missing", "eacces"):
            self._raise(kind, path)
        if kind == "slow" and self._sleep is not None:
            self._sleep(self.slow_seconds)

    def _read_tasks_raw(self, pid):
        self._snapshot_draw("read_tasks_raw", f"/proc/{pid}/task")
        return self.base.read_tasks_raw(pid)

    def _read_cpu_times_raw(self, cpus):
        self._snapshot_draw("read_cpu_times_raw", "/proc/stat")
        return self.base.read_cpu_times_raw(cpus)

    def _read_memory_raw(self, pid):
        self._snapshot_draw("read_memory_raw", f"/proc/{pid}/status")
        return self.base.read_memory_raw(pid)
