"""``ReportBuilder`` and ``StoreBackedRun``: store → the Listing 2 report.

The delta math that turns cumulative ``/proc`` counters into the
paper's utilization percentages lives in :class:`ReportBuilder` and
only there; :class:`StoreBackedRun` is the one surface the simulated
monitor, the live monitor, the trace-replay driver and a recovered
journal all inherit — the view of their store, the identity record,
and the single ``report()`` that calls the builder.  Two baselines
cover the substrates:

* ``"zero"`` — counters started at zero when the process did (the
  simulated kernel), so the latest cumulative value over the
  observation window *is* the utilization.  Per-thread windows run
  from ``start_tick`` to the thread's last sample, so a thread that
  exits early keeps the utilization it showed while observable.
* ``"first"`` — counters predate the monitor (a live ``/proc``), so
  utilization is the last-minus-first delta over the first-to-last
  window; a single-row series falls back to the zero baseline.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.collect.store import SampleStore
from repro.core.reports import GpuStat, HwtRow, LwpRow, UtilizationReport
from repro.detect.rules import TopologyFacts
from repro.errors import MonitorError
from repro.gpu.metrics import METRIC_LABELS, METRIC_ORDER
from repro.topology.cpuset import CpuSet
from repro.units import USER_HZ

__all__ = ["ReportBuilder", "StoreBackedRun"]

_TICK, _STATE, _UTIME, _STIME, _NV_CTX, _CTX = 0, 1, 2, 3, 4, 5


class ReportBuilder:
    """Summarize one store into a :class:`UtilizationReport`."""

    def __init__(
        self,
        store: SampleStore,
        *,
        baseline: str = "zero",
        start_tick: float = 0.0,
        duration_ticks: Optional[float] = None,
        classify: Optional[Callable[[int], str]] = None,
    ):
        if baseline not in ("zero", "first"):
            raise MonitorError("baseline must be 'zero' or 'first'")
        self.store = store
        self.baseline = baseline
        self.start_tick = start_tick
        self.duration_ticks = duration_ticks
        self.classify = classify or (lambda tid: "Other")

    # -- per-table assembly --------------------------------------------
    def _lwp_row(self, tid: int) -> Optional[LwpRow]:
        arr = self.store.lwp_series[tid].array
        if len(arr) == 0:
            return None
        first, last = arr[0], arr[-1]
        if self.baseline == "zero":
            window = max(1.0, last[_TICK] - self.start_tick)
            d_utime, d_stime = last[_UTIME], last[_STIME]
        else:
            window = max(
                1.0, last[_TICK] - (0.0 if len(arr) == 1 else first[_TICK])
            )
            d_utime = last[_UTIME] - (first[_UTIME] if len(arr) > 1 else 0)
            d_stime = last[_STIME] - (first[_STIME] if len(arr) > 1 else 0)
        return LwpRow(
            tid=tid,
            kind=self.classify(tid),
            stime_pct=100.0 * d_stime / window,
            utime_pct=100.0 * d_utime / window,
            nv_ctx=int(last[_NV_CTX]),
            ctx=int(last[_CTX]),
            cpus=self.store.lwp_affinity.get(tid, CpuSet()),
        )

    def _hwt_row(self, cpu: int) -> Optional[HwtRow]:
        series = self.store.hwt_series[cpu]
        if self.baseline == "zero":
            duration = self.duration_ticks
            if duration is None:
                raise MonitorError("zero-baseline HWT rows need duration_ticks")
            if len(series) == 0:
                return None
            return HwtRow(
                cpu=cpu,
                idle_pct=100.0 * series.last("idle") / duration,
                system_pct=100.0 * series.last("system") / duration,
                user_pct=100.0 * series.last("user") / duration,
            )
        arr = series.array
        if len(arr) < 2:
            return None
        d = arr[-1] - arr[0]
        window = max(1.0, d[0])
        return HwtRow(
            cpu=cpu,
            idle_pct=100.0 * d[3] / window,
            system_pct=100.0 * d[2] / window,
            user_pct=100.0 * d[1] / window,
        )

    def _gpu_stats(self, visible: int) -> list[GpuStat]:
        series = self.store.gpu_series[visible]
        stats = []
        for metric in METRIC_ORDER:
            col = series.column(metric)
            if len(col) == 0:
                continue
            stats.append(
                GpuStat(
                    label=METRIC_LABELS[metric],
                    minimum=float(np.min(col)),
                    average=float(np.mean(col)),
                    maximum=float(np.max(col)),
                )
            )
        return stats

    # -- assembly -------------------------------------------------------
    def build(
        self,
        *,
        duration_seconds: float,
        rank: Optional[int],
        pid: int,
        hostname: str,
        cpus_allowed: CpuSet,
        deadlock_note: str = "",
    ) -> UtilizationReport:
        """Assemble the full Listing 2 report from the store."""
        report = UtilizationReport(
            duration_seconds=duration_seconds,
            rank=rank,
            pid=pid,
            hostname=hostname,
            cpus_allowed=cpus_allowed,
            deadlock_note=deadlock_note,
        )
        for tid in self.store.observed_tids():
            row = self._lwp_row(tid)
            if row is not None:
                report.lwp_rows.append(row)
        for cpu in sorted(self.store.hwt_series):
            hrow = self._hwt_row(cpu)
            if hrow is not None:
                report.hwt_rows.append(hrow)
        for visible in sorted(self.store.gpu_series):
            report.gpu_stats[visible] = self._gpu_stats(visible)
        # degradation as data: why a column above is missing or short
        report.degradation_notes = self.store.ledger.summary_lines()
        alerts = getattr(self.store, "alerts", None)
        if alerts is not None:
            report.alert_notes = alerts.summary_lines()
        return report


class StoreBackedRun:
    """The one surface of a store-backed run, whatever produced it.

    A run is a :class:`SampleStore` plus the identity record below
    (exactly the journal's meta dict, see :meth:`journal_meta`).  The
    four drivers — simulated ``ZeroSum``, ``LiveZeroSum``,
    ``ReplayZeroSum`` and a ``RecoveredRun`` — set ``store`` and the
    identity, provide ``duration_seconds``, and keep only what is
    theirs (scheduling, lifecycle, ``classify``, deadlock and
    degradation notes).  The log exporter and the archiver are written
    against this class alone.
    """

    store: SampleStore
    #: which substrate sampled the run: "sim" or "live"
    driver: str = "sim"
    #: ReportBuilder baseline: "zero" (sim) or "first" (live /proc)
    baseline: str = "zero"
    #: tick rate of the recorded series
    hz: float = USER_HZ
    start_tick: float = 0.0
    pid: int
    rank: Optional[int] = None
    hostname: str
    cpus_allowed: CpuSet
    #: observation window in seconds (attribute or property per driver)
    duration_seconds: float
    #: driver-specific extras, exported when the run has them
    heartbeats: Sequence[str] = ()
    crash_reports: Sequence[str] = ()
    recorder = None  # the rank's P2PRecorder, if MPI was interposed
    #: (tick, pid) of every OOM kill on the node (simulated runs only)
    oom_events: Sequence[tuple[int, int]] = ()

    # -- the view of the store ------------------------------------------
    @property
    def lwp_series(self):
        return self.store.lwp_series

    @property
    def lwp_affinity(self):
        return self.store.lwp_affinity

    @property
    def lwp_names(self):
        return self.store.lwp_names

    @property
    def hwt_series(self):
        return self.store.hwt_series

    @property
    def gpu_series(self):
        return self.store.gpu_series

    @property
    def mem_series(self):
        return self.store.mem_series

    @property
    def samples_taken(self) -> int:
        return self.store.samples_taken

    def observed_tids(self) -> list[int]:
        """Every thread id the run ever sampled, sorted."""
        return self.store.observed_tids()

    @property
    def facts(self) -> TopologyFacts:
        """§3.5 node context; a driver that can see the node overrides it.

        A replayed or recovered run cannot: the union of the affinities
        it recorded stands in for the node's CPU set.
        """
        return TopologyFacts(
            node_cpus=frozenset().union(*self.store.lwp_affinity.values())
        )

    # -- identity -------------------------------------------------------
    def journal_meta(self) -> dict:
        """The identity record, as the spill journal's meta dict."""
        return {
            "driver": self.driver,
            "baseline": self.baseline,
            "hz": self.hz,
            "start_tick": self.start_tick,
            "pid": self.pid,
            "rank": self.rank,
            "hostname": self.hostname,
            "cpus_allowed": self.cpus_allowed.to_list(),
        }

    def banner_lines(self) -> list[str]:
        """Startup banner of the run's log; names the driver."""
        live = " (live)" if self.driver == "live" else ""
        return [
            f"ZeroSum{live} attached to PID {self.pid} on {self.hostname}",
            f"CPUs allowed: [{self.cpus_allowed.to_list()}]",
        ]

    @property
    def duration_ticks(self) -> float:
        return self.duration_seconds * self.hz

    def classify(self, tid: int) -> str:
        """Thread kind label of the LWP table."""
        return "Main" if tid == self.pid else "Other"

    def deadlock_note(self) -> str:
        """The report's closing deadlock line ("" when none)."""
        return ""

    # -- the report -----------------------------------------------------
    def report(self) -> UtilizationReport:
        """The Listing 2 report of the run's samples so far."""
        builder = ReportBuilder(
            self.store,
            baseline=self.baseline,
            start_tick=self.start_tick,
            duration_ticks=self.duration_ticks,
            classify=self.classify,
        )
        return builder.build(
            duration_seconds=self.duration_seconds,
            rank=self.rank,
            pid=self.pid,
            hostname=self.hostname,
            cpus_allowed=self.cpus_allowed,
            deadlock_note=self.deadlock_note(),
        )
