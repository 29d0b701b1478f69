"""Stall watchdog for the live monitor (§3.3's liveness promise).

A monitor that silently stops sampling is worse than no monitor: the
heartbeat keeps the last good line, the journal keeps the last good
period, and nobody learns the run wedged until walltime.  The
:class:`SamplerWatchdog` watches two independent liveness signals:

* **sampler stall** — the wall-clock age of the newest *completed*
  sample exceeds the threshold: the sampling thread is hung (a blocked
  ``/proc`` read, a scheduler pathology) or dead;
* **jiffies stall** — samples keep landing but the monitored process's
  cumulative CPU time stops advancing: every application thread is
  blocked, the post-deadlock shape the paper's heartbeat exists to
  expose.

Detection is *edge-triggered*: each stall episode is reported once
when it crosses the threshold and re-arms when the signal recovers, so
a wedged run does not flood the ledger with one event per check.

The class is pure bookkeeping — the driver supplies the clock by
calling :meth:`check` (from its own watchdog thread, a test, or a
simulated loop), and routes the returned events into the ledger, the
heartbeat file, and the journal's durable note channel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import MonitorError

__all__ = ["StallEvent", "SamplerWatchdog"]


@dataclass(frozen=True)
class StallEvent:
    """One detected stall: what stopped moving, for how long."""

    kind: str  # "sampler-stalled" | "jiffies-stalled"
    age_seconds: float
    detail: str

    def render(self) -> str:
        """One diagnostic clause for heartbeats and ledger entries."""
        return f"{self.kind}: {self.detail}"


class SamplerWatchdog:
    """Threshold stall detection over two injected liveness probes.

    ``last_sample_time`` returns the monotonic timestamp of the newest
    completed sample (``None`` before the first one); ``jiffies_total``
    returns the monitored process's cumulative utime+stime, excluding
    the monitor's own thread.  Both are read fresh on every
    :meth:`check`, so the watchdog holds no reference that could keep
    a stopped monitor alive.
    """

    def __init__(
        self,
        *,
        stall_after_seconds: float,
        last_sample_time: Callable[[], Optional[float]],
        jiffies_total: Callable[[], float],
    ):
        if stall_after_seconds <= 0:
            raise MonitorError("stall_after_seconds must be positive")
        self.stall_after = stall_after_seconds
        self._last_sample_time = last_sample_time
        self._jiffies_total = jiffies_total
        self._sampler_stalled = False
        self._jiffies_last: Optional[float] = None
        self._jiffies_since: Optional[float] = None
        self._jiffies_stalled = False
        #: every stall event ever raised, for diagnostics and tests
        self.events: list[StallEvent] = []

    def reset(self) -> None:
        """Forget episode state across a stop()/start() cycle.

        A restarted monitor has (by definition) taken no sample yet:
        carrying the previous run's jiffies watermark or an armed
        stall episode over would report a spurious stall against state
        that belongs to a sampler thread that no longer exists.  The
        ``events`` list is diagnostics history and is kept.
        """
        self._sampler_stalled = False
        self._jiffies_last = None
        self._jiffies_since = None
        self._jiffies_stalled = False

    def check(self, now: float) -> list[StallEvent]:
        """One probe; returns newly crossed stall thresholds (if any)."""
        fired: list[StallEvent] = []

        last = self._last_sample_time()
        if last is not None:
            age = now - last
            if age >= self.stall_after:
                if not self._sampler_stalled:
                    self._sampler_stalled = True
                    fired.append(
                        StallEvent(
                            kind="sampler-stalled",
                            age_seconds=age,
                            detail=(
                                f"no completed sample for {age:.1f}s "
                                f"(threshold {self.stall_after:g}s)"
                            ),
                        )
                    )
            else:
                self._sampler_stalled = False

        total = self._jiffies_total()
        if (
            self._jiffies_last is None
            or total > self._jiffies_last + 1e-9
        ):
            self._jiffies_last = total
            self._jiffies_since = now
            self._jiffies_stalled = False
        else:
            still = now - (self._jiffies_since if self._jiffies_since is not None else now)
            if still >= self.stall_after and not self._jiffies_stalled:
                self._jiffies_stalled = True
                fired.append(
                    StallEvent(
                        kind="jiffies-stalled",
                        age_seconds=still,
                        detail=(
                            f"monitored process accrued no CPU time for "
                            f"{still:.1f}s (threshold {self.stall_after:g}s)"
                        ),
                    )
                )

        self.events.extend(fired)
        return fired

    @property
    def stalled(self) -> bool:
        """Whether either signal is currently past its threshold."""
        return self._sampler_stalled or self._jiffies_stalled
