"""Time-series assembly for the stacked utilization charts.

Figures 6 and 7 of the paper plot, per sampling interval, the
user/system/idle split of every LWP and every HWT.  The monitor stores
cumulative jiffy counters; these functions difference them into
per-interval percentages.  Output is plain numpy arrays, so no
plotting stack is required to inspect the shapes.

These functions accept *any* monitor driver — simulated
(:class:`repro.core.ZeroSum`), live
(:class:`repro.live.LiveZeroSum`), or replayed
(:class:`repro.collect.ReplayZeroSum`) — since all three expose the
same ``lwp_series``/``hwt_series``/``classify``/``hz`` surface over a
shared :class:`~repro.collect.store.SampleStore`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MonitorError

__all__ = [
    "UtilizationSeries",
    "observed_processors",
    "observed_migrations",
    "lwp_series",
    "hwt_series",
    "all_lwp_series",
    "all_hwt_series",
]


@dataclass
class UtilizationSeries:
    """Stacked idle/system/user percentages over time for one entity."""

    label: str
    seconds: np.ndarray  # interval end times
    user_pct: np.ndarray
    system_pct: np.ndarray
    idle_pct: np.ndarray

    def __len__(self) -> int:
        return len(self.seconds)

    @property
    def busy_pct(self) -> np.ndarray:
        return self.user_pct + self.system_pct

    def mean_user(self) -> float:
        """Mean user% across the series."""
        return float(self.user_pct.mean()) if len(self.user_pct) else 0.0

    def noisiness(self) -> float:
        """Std-dev of the busy series — Figure 6's visual 'noise'."""
        return float(self.busy_pct.std()) if len(self.busy_pct) else 0.0


def _differences(ticks: np.ndarray, *counters: np.ndarray):
    """Per-interval deltas over strictly increasing sample ticks.

    A duplicated tick (the same period journaled twice, a recovered
    run replaying its torn tail) or a regressed one (clock skew in a
    merged log) yields a zero- or negative-width interval.  Clamping
    its width to one tick — the old behaviour — fabricates utilization
    out of thin air: the counters advanced over *zero* observed time,
    so a 100%-busy thread shows a spurious 1000%+ spike.  Instead the
    offending rows are dropped: each kept sample must strictly exceed
    the running maximum of the ticks kept before it, and the counter
    deltas are taken over the kept rows only, so every reported
    interval has positive width and honest rates.
    """
    if len(ticks) < 2:
        raise MonitorError("need at least two samples for a time series")
    runmax = np.maximum.accumulate(ticks)
    keep = np.ones(len(ticks), dtype=bool)
    keep[1:] = ticks[1:] > runmax[:-1]
    kept = ticks[keep]
    if len(kept) < 2:
        raise MonitorError(
            "need at least two distinct sample ticks for a time series"
        )
    dt = np.diff(kept)
    return kept, dt, [np.diff(c[keep]) for c in counters]


def lwp_series(monitor, tid: int) -> UtilizationSeries:
    """Figure 6: one thread's user/system/idle over time."""
    series = monitor.lwp_series[tid]
    ticks = series.column("tick")
    kept, dt, (du, ds) = _differences(
        ticks, series.column("utime"), series.column("stime")
    )
    user = 100.0 * du / dt
    system = 100.0 * ds / dt
    idle = np.clip(100.0 - user - system, 0.0, 100.0)
    hz = monitor.hz
    return UtilizationSeries(
        label=f"LWP {tid} ({monitor.classify(tid)})",
        seconds=kept[1:] / hz,
        user_pct=user,
        system_pct=system,
        idle_pct=idle,
    )


def hwt_series(monitor, cpu: int) -> UtilizationSeries:
    """Figure 7: one hardware thread's utilization over time."""
    series = monitor.hwt_series[cpu]
    ticks = series.column("tick")
    kept, dt, (du, ds, di) = _differences(
        ticks,
        series.column("user"),
        series.column("system"),
        series.column("idle"),
    )
    hz = monitor.hz
    return UtilizationSeries(
        label=f"CPU {cpu}",
        seconds=kept[1:] / hz,
        user_pct=100.0 * du / dt,
        system_pct=100.0 * ds / dt,
        idle_pct=100.0 * di / dt,
    )


def all_lwp_series(monitor) -> list[UtilizationSeries]:
    """Figure 6: one series per observed thread (needs >= 2 samples)."""
    out = []
    for tid in monitor.observed_tids():
        if len(monitor.lwp_series[tid]) >= 2:
            out.append(lwp_series(monitor, tid))
    return out


def all_hwt_series(monitor) -> list[UtilizationSeries]:
    """Figure 7: one series per monitored CPU (needs >= 2 samples)."""
    out = []
    for cpu in sorted(monitor.hwt_series):
        if len(monitor.hwt_series[cpu]) >= 2:
            out.append(hwt_series(monitor, cpu))
    return out


def observed_processors(monitor, tid: int) -> np.ndarray:
    """The CPU the thread was last seen on, per sample — the §4 data
    behind "the OpenMP threads were all migrated at least once during
    execution, as captured by ZeroSum recording the core on which the
    thread last executed at each periodic measurement"."""
    return monitor.lwp_series[tid].column("processor").astype(int)


def observed_migrations(monitor, tid: int) -> int:
    """Number of processor changes visible at sampling granularity."""
    procs = observed_processors(monitor, tid)
    if len(procs) < 2:
        return 0
    return int((np.diff(procs) != 0).sum())
