"""End-of-execution utilization report (§3.4, Listing 2).

Rank 0 writes this summary to stdout; every rank writes the same to its
log file.  The layout reproduces the paper's Listing 2: duration,
process summary, the LWP table, the HWT table, and per-GPU
min/avg/max sensor statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.topology.cpuset import CpuSet

if TYPE_CHECKING:
    from repro.collect.report import StoreBackedRun

__all__ = ["LwpRow", "HwtRow", "GpuStat", "UtilizationReport", "build_report", "format_cpus"]


def format_cpus(cpuset: CpuSet, expand_limit: int = 16) -> str:
    """``[1,2,3]`` for short sets, range syntax for long ones."""
    if len(cpuset) <= expand_limit:
        return "[" + ",".join(str(c) for c in cpuset) + "]"
    return "[" + cpuset.to_list() + "]"


@dataclass(frozen=True)
class LwpRow:
    """One line of the LWP (thread) summary table."""

    tid: int
    kind: str
    stime_pct: float
    utime_pct: float
    nv_ctx: int
    ctx: int
    cpus: CpuSet

    def render(self) -> str:
        """The Listing 2 LWP table line."""
        return (
            f"LWP {self.tid}: {self.kind} - "
            f"stime: {self.stime_pct:.2f}, utime: {self.utime_pct:.2f}, "
            f"nv_ctx: {self.nv_ctx}, ctx: {self.ctx}, "
            f"CPUs: {format_cpus(self.cpus)}"
        )


@dataclass(frozen=True)
class HwtRow:
    """One line of the hardware (HWT) summary table."""

    cpu: int
    idle_pct: float
    system_pct: float
    user_pct: float

    def render(self) -> str:
        """The Listing 2 hardware table line."""
        return (
            f"CPU {self.cpu:03d} - idle: {self.idle_pct:.2f}, "
            f"system: {self.system_pct:.2f}, user: {self.user_pct:.2f}"
        )


@dataclass(frozen=True)
class GpuStat:
    """min/avg/max of one metric on one device."""

    label: str
    minimum: float
    average: float
    maximum: float

    def render(self) -> str:
        """The Listing 2 GPU metric line (min avg max)."""
        return (
            f"    {self.label}: {self.minimum:f}  {self.average:f}  "
            f"{self.maximum:f}"
        )


@dataclass
class UtilizationReport:
    """Structured report; ``render()`` emits the Listing 2 text."""

    duration_seconds: float
    rank: Optional[int]
    pid: int
    hostname: str
    cpus_allowed: CpuSet
    lwp_rows: list[LwpRow] = field(default_factory=list)
    hwt_rows: list[HwtRow] = field(default_factory=list)
    gpu_stats: dict[int, list[GpuStat]] = field(default_factory=dict)
    deadlock_note: str = ""
    #: degradation ledger lines — why a column is missing ("GpuCollector
    #: disabled at tick 412: permission denied"); empty for a clean run
    degradation_notes: list[str] = field(default_factory=list)
    #: online-detector findings rendered for the report ("[CRITICAL]
    #: t=900 mem-leak-oom (mem): ..."); empty when no detector ran
    alert_notes: list[str] = field(default_factory=list)

    def render(self) -> str:
        """The complete Listing 2 text report."""
        lines = [f"Duration of execution: {self.duration_seconds:.3f} s", ""]
        lines.append("Process Summary:")
        rank_part = f"MPI {self.rank:03d} - " if self.rank is not None else ""
        lines.append(
            f"{rank_part}PID {self.pid} - Node {self.hostname} - "
            f"CPUs allowed: {format_cpus(self.cpus_allowed)}"
        )
        lines += ["", "LWP (thread) Summary:"]
        for row in self.lwp_rows:
            lines.append(row.render())
        if self.hwt_rows:
            lines += ["", "Hardware Summary:"]
            for hrow in self.hwt_rows:
                lines.append(hrow.render())
        for visible in sorted(self.gpu_stats):
            lines += ["", f"GPU {visible} - (metric:  min  avg  max)"]
            for stat in self.gpu_stats[visible]:
                lines.append(stat.render())
        if self.alert_notes:
            lines += ["", "Alerts:"]
            lines.extend(self.alert_notes)
        if self.degradation_notes:
            lines += ["", "Degradation Summary:"]
            lines.extend(self.degradation_notes)
        if self.deadlock_note:
            lines += ["", f"*** {self.deadlock_note} ***"]
        return "\n".join(lines) + "\n"

    # -- structured accessors used by tests and analysis ----------------
    def lwp_by_kind(self, kind: str) -> list[LwpRow]:
        """LWP rows whose kind label contains ``kind``."""
        return [r for r in self.lwp_rows if kind in r.kind]

    def total_nv_ctx(self) -> int:
        """Sum of non-voluntary context switches over all rows."""
        return sum(r.nv_ctx for r in self.lwp_rows)

    def idle_cpus(self, threshold_pct: float = 95.0) -> list[int]:
        """Allocated CPUs idling above the threshold."""
        return [r.cpu for r in self.hwt_rows if r.idle_pct >= threshold_pct]


def build_report(run: "StoreBackedRun") -> UtilizationReport:
    """The run's Listing 2 report: ``run.report()`` in functional form."""
    return run.report()
