"""ZeroSum monitor configuration.

Mirrors the runtime knobs of the paper's prototype: sampling period
(1 s default), placement of the asynchronous monitoring thread (last
hardware thread of the process by default, user configurable), which
subsystems to collect, and export behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MonitorError

__all__ = ["ZeroSumConfig"]


@dataclass
class ZeroSumConfig:
    """Configuration for one ZeroSum monitor instance."""

    #: sampling period in seconds (paper default: once per second)
    period_seconds: float = 1.0
    #: fixed CPU cost of taking one sample, in jiffies (drives the
    #: measured overhead; 0.15 jiffy/s ≈ 0.15 % of one core)
    sample_cost_jiffies: float = 0.15
    #: user fraction of the sampling work (the rest is system calls —
    #: /proc reads are syscall heavy)
    sample_user_frac: float = 0.4
    #: where the async thread goes: "last" | "first" | an explicit OS CPU
    #: index | None for unbound
    monitor_cpu: str | int | None = "last"
    collect_hwt: bool = True
    collect_gpu: bool = True
    collect_memory: bool = True
    #: print a heartbeat line every N samples (0 disables)
    heartbeat_every: int = 0
    #: flag a suspected deadlock after N consecutive stalled samples
    #: (0 disables detection)
    deadlock_after: int = 3
    #: what to do when a deadlock is flagged: "report" (default) or
    #: "terminate" — kill the hung process to stop burning allocation
    deadlock_action: str = "report"
    #: how OpenMP threads are identified: "ompt" uses the 5.1+ tool
    #: callback; "probe" is the pre-5.1 fallback that queries the team
    #: directly (the paper's GNU-runtime path)
    openmp_detection: str = "ompt"
    #: install the abnormal-exit backtrace handler
    signal_handler: bool = True
    #: keep per-sample time series (needed for CSV export and Figures 6-7)
    keep_series: bool = True
    #: cap each series at this many rows (ring buffer: oldest rows are
    #: overwritten); None keeps everything.  For long-running live
    #: sessions that still want a trailing window of raw samples.
    max_series_rows: int | None = None
    #: in-period retries after a transient collector failure (vanished
    #: path, I/O hiccup); permanent failures are never retried
    fault_retries: int = 2
    #: disable a collector after N consecutive failed periods and
    #: record why (0 keeps retrying forever)
    fault_disable_after: int = 3
    #: crash durability: spool every committed period to this spill
    #: journal so a kill -9'd run stays recoverable (None disables)
    journal_path: str | None = None
    #: journal checkpoint every N periods: fsync (seal) what was
    #: appended since the last one; a bounded store (ring, summary
    #: mode) also compacts the journal into an atomic snapshot then
    journal_checkpoint_every: int = 10
    #: fsync the journal at checkpoints (power-loss durability; plain
    #: per-record appends already survive a process kill)
    journal_fsync: bool = True
    #: write heartbeat lines to this file as well as keeping them in
    #: memory (None keeps them in memory only)
    heartbeat_path: str | None = None
    #: fsync the heartbeat file after every line, so an external
    #: watchdog reading it never sees a stale-but-buffered heartbeat
    heartbeat_fsync: bool = False
    #: last-gasp flush: install SIGTERM/SIGINT + atexit handlers that
    #: fsync the journal before the process dies (live monitor only;
    #: effective only when a journal is configured)
    last_gasp: bool = True
    #: watchdog: flag a stalled sampler thread or a monitored process
    #: whose jiffies stop advancing after this many sampling periods
    #: of silence (0 disables the watchdog)
    watchdog_stall_periods: float = 0.0
    #: online detection: evaluate the §3.5 contention rules and the
    #: precursor detectors once per committed sampling period
    detect_online: bool = False

    def __post_init__(self) -> None:
        if self.period_seconds <= 0:
            raise MonitorError("period_seconds must be positive")
        if self.sample_cost_jiffies < 0:
            raise MonitorError("sample_cost_jiffies must be >= 0")
        if not 0.0 <= self.sample_user_frac <= 1.0:
            raise MonitorError("sample_user_frac must be in [0, 1]")
        if isinstance(self.monitor_cpu, str) and self.monitor_cpu not in (
            "last",
            "first",
        ):
            raise MonitorError(
                "monitor_cpu must be 'last', 'first', an int, or None"
            )
        if self.deadlock_after < 0:
            raise MonitorError("deadlock_after must be >= 0")
        if self.max_series_rows is not None and self.max_series_rows < 1:
            raise MonitorError("max_series_rows must be >= 1 (or None)")
        if self.fault_retries < 0:
            raise MonitorError("fault_retries must be >= 0")
        if self.fault_disable_after < 0:
            raise MonitorError("fault_disable_after must be >= 0")
        if self.journal_checkpoint_every < 1:
            raise MonitorError("journal_checkpoint_every must be >= 1")
        if self.watchdog_stall_periods < 0:
            raise MonitorError("watchdog_stall_periods must be >= 0")
        if self.deadlock_action not in ("report", "terminate"):
            raise MonitorError("deadlock_action must be 'report' or 'terminate'")
        if self.openmp_detection not in ("ompt", "probe"):
            raise MonitorError("openmp_detection must be 'ompt' or 'probe'")
