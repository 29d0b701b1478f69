"""Contention report and misconfiguration detection (§3.2, §3.5).

The paper's §3.5 reads contention off the utilization data (high
non-voluntary context switches, high system-call time, overlapping
affinity lists, memory pressure) and §3.2 names automatic
misconfiguration detection as future work.  Both are implemented here:
:func:`analyze` inspects a finalized monitor and produces a list of
typed findings with severities, covering

* **oversubscription** — multiple busy LWPs sharing hardware threads
  (the Table 1 pathology);
* **undersubscription** — allocated CPUs sitting idle (the Listing 2
  observation that half the cores did nothing);
* **affinity overlap** — bound LWPs whose masks intersect;
* **forced time-slicing** — high non-voluntary context-switch rates;
* **GPU locality mismatch** — a rank driving a GPU that is not
  attached to its NUMA domain;
* **NUMA spanning** — a thread's affinity mask crossing NUMA domains;
* **memory pressure / OOM** — low MemAvailable or recorded OOM kills,
  distinguishing application RSS growth from external consumers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.monitor import ZeroSum
from repro.core.reports import UtilizationReport
from repro.detect import DetectThresholds, is_bound
from repro.topology.cpuset import CpuSet

__all__ = ["Severity", "Finding", "ContentionReport", "analyze"]


class Severity(enum.Enum):
    """How urgent a finding is."""

    INFO = "info"
    WARNING = "warning"
    CRITICAL = "critical"


@dataclass(frozen=True)
class Finding:
    """One detected issue."""

    code: str
    severity: Severity
    message: str

    def render(self) -> str:
        """Single-line gauge form."""
        return f"[{self.severity.value.upper():8s}] {self.code}: {self.message}"


@dataclass
class ContentionReport:
    """All findings for one rank, plus the underlying report."""

    rank: int | None
    findings: list[Finding] = field(default_factory=list)

    def by_code(self, code: str) -> list[Finding]:
        """Findings of one kind."""
        return [f for f in self.findings if f.code == code]

    def worst(self) -> Severity:
        """Highest severity present (INFO when clean)."""
        order = [Severity.INFO, Severity.WARNING, Severity.CRITICAL]
        worst = Severity.INFO
        for f in self.findings:
            if order.index(f.severity) > order.index(worst):
                worst = f.severity
        return worst

    def render(self) -> str:
        """Warning-lights style listing of every finding."""
        head = f"Contention report (rank {self.rank}):"
        if not self.findings:
            return head + "\n  no issues detected\n"
        return head + "\n" + "\n".join(
            "  " + f.render() for f in self.findings
        ) + "\n"


#: the §3.5 trip points shared with the streaming catalog — busy
#: threshold (low: time-sliced threads may each see only a small share
#: of one core, e.g. ~11 % for 9 threads on one core), nv_ctx rate,
#: saturation demand — live in DetectThresholds and only there
_THRESHOLDS = DetectThresholds()
#: a CPU with idle above this is "unused"
_IDLE_PCT = 95.0
#: MemAvailable below this fraction of MemTotal is pressure ("will I
#: soon run out of a limited resource?", §2)
_MEM_PRESSURE = 0.10


def analyze(monitor: ZeroSum, report: UtilizationReport | None = None) -> ContentionReport:
    """Derive findings from a finalized monitor."""
    report = report or monitor.report()
    out = ContentionReport(rank=report.rank)
    node_cpus = monitor.process.node.machine.cpuset()
    duration_s = max(monitor.duration_seconds, 1e-9)

    busy_rows = [
        r
        for r in report.lwp_rows
        if r.utime_pct + r.stime_pct >= _THRESHOLDS.busy_pct
    ]
    bound_busy = [r for r in busy_rows if is_bound(r.cpus, node_cpus)]

    # oversubscription: more busy bound threads than distinct CPUs,
    # with the shared CPUs effectively saturated
    cpus_used: CpuSet = CpuSet()
    demand_pct = 0.0
    for row in bound_busy:
        cpus_used = cpus_used | row.cpus
        demand_pct += row.utime_pct + row.stime_pct
    saturated = bool(cpus_used) and demand_pct >= (
        _THRESHOLDS.demand_saturation_pct * len(cpus_used)
    )
    if bound_busy and len(bound_busy) > len(cpus_used) and saturated:
        out.findings.append(
            Finding(
                "oversubscription",
                Severity.CRITICAL,
                f"{len(bound_busy)} busy threads share only "
                f"{len(cpus_used)} hardware thread(s) "
                f"({format_over(bound_busy, cpus_used)})",
            )
        )

    # affinity overlap between *pinned* busy threads: threads bound to
    # one or two CPUs that are forced to share them.  Unbound threads
    # (affinity == whole process cpuset) are the scheduler's problem,
    # not a pinning mistake, so they are excluded here.
    pinned = [r for r in busy_rows if 0 < len(r.cpus) <= 2]
    per_cpu: dict[int, list[int]] = {}
    for row in pinned:
        for cpu in row.cpus:
            per_cpu.setdefault(cpu, []).append(row.tid)
    for cpu, tids in sorted(per_cpu.items()):
        if len(tids) > 1:
            out.findings.append(
                Finding(
                    "affinity-overlap",
                    Severity.WARNING,
                    f"{len(tids)} busy threads are pinned to CPU {cpu}: "
                    f"LWPs {sorted(tids)}",
                )
            )

    # forced time-slicing (high nv_ctx rate)
    for row in report.lwp_rows:
        rate = row.nv_ctx / duration_s
        if rate > _THRESHOLDS.nvctx_rate:
            out.findings.append(
                Finding(
                    "time-slicing",
                    Severity.WARNING,
                    f"LWP {row.tid} ({row.kind}) suffered "
                    f"{row.nv_ctx} non-voluntary context switches "
                    f"({rate:.1f}/s): CPU over-commitment",
                )
            )

    # undersubscription: allocated CPUs that stayed idle
    idle = report.idle_cpus(_IDLE_PCT)
    if idle and len(idle) < len(report.hwt_rows):
        out.findings.append(
            Finding(
                "undersubscription",
                Severity.WARNING,
                f"{len(idle)} of {len(report.hwt_rows)} allocated CPUs "
                f"stayed >= {_IDLE_PCT:.0f}% idle: {idle}",
            )
        )
    elif idle and len(idle) == len(report.hwt_rows):
        out.findings.append(
            Finding(
                "no-utilization",
                Severity.CRITICAL,
                "every allocated CPU stayed idle — wrong binding or hung job?",
            )
        )

    # GPU locality vs --gpu-bind=closest expectations
    machine = monitor.process.node.machine
    if monitor.smi is not None and len(machine.numa_domains()) > 1:
        rank_numas = {
            machine.numa_of(cpu).os_index
            for cpu in monitor.initial.cpus_allowed
            if machine.numa_of(cpu) is not None
        }
        for visible in range(monitor.smi.num_devices()):
            dev = monitor.smi.device(visible)
            if dev.info.numa not in rank_numas:
                out.findings.append(
                    Finding(
                        "gpu-locality",
                        Severity.WARNING,
                        f"GPU {dev.info.physical_index} (visible {visible}) "
                        f"is on NUMA {dev.info.numa} but the rank runs on "
                        f"NUMA {sorted(rank_numas)}",
                    )
                )

    # threads spanning NUMA domains
    if len(machine.numa_domains()) > 1:
        for row in report.lwp_rows:
            if not is_bound(row.cpus, node_cpus):
                continue
            domains = {
                machine.numa_of(cpu).os_index
                for cpu in row.cpus
                if machine.numa_of(cpu) is not None
            }
            if len(domains) > 1:
                out.findings.append(
                    Finding(
                        "numa-span",
                        Severity.INFO,
                        f"LWP {row.tid} affinity spans NUMA domains "
                        f"{sorted(domains)}",
                    )
                )

    # GPU memory exhaustion: §3.5's periodic used/free VRAM check
    for visible in sorted(monitor.gpu_series):
        series = monitor.gpu_series[visible]
        if len(series) == 0 or monitor.smi is None:
            continue
        capacity = monitor.smi.device(visible).info.memory_bytes
        peak = float(series.column("used_vram_bytes").max())
        if capacity > 0 and peak > 0.9 * capacity:
            out.findings.append(
                Finding(
                    "gpu-memory-pressure",
                    Severity.CRITICAL,
                    f"GPU {visible} VRAM peaked at "
                    f"{100 * peak / capacity:.1f}% of "
                    f"{capacity // (1024**2)} MiB: the next allocation "
                    f"may fail",
                )
            )

    # I/O-bound cores: allocated CPUs spending their time in iowait
    for cpu in sorted(monitor.hwt_series):
        series = monitor.hwt_series[cpu]
        if "iowait" not in series.columns or len(series) == 0:
            continue
        iowait_pct = 100.0 * series.last("iowait") / max(1, duration_s * 100)
        if iowait_pct > 20.0:
            out.findings.append(
                Finding(
                    "io-bound",
                    Severity.WARNING,
                    f"CPU {cpu} spent {iowait_pct:.1f}% of the run waiting "
                    f"on file I/O: the filesystem, not the CPU, is the "
                    f"bottleneck",
                )
            )

    # memory pressure / OOM
    if len(monitor.mem_series):
        import numpy as np

        total = monitor.mem_series.last("mem_total_kib")
        avail_col = monitor.mem_series.column("mem_available_kib")
        avail = float(avail_col.min())
        if total > 0 and avail < _MEM_PRESSURE * total:
            # blame assessed at the moment of peak pressure, since a
            # dead (reaped) process reports zero RSS afterwards
            at_peak = int(np.argmin(avail_col))
            rss = float(monitor.mem_series.column("rss_kib")[at_peak])
            blame = (
                "this process's RSS"
                if rss > 0.5 * (total - avail)
                else "another consumer on the node"
            )
            out.findings.append(
                Finding(
                    "memory-pressure",
                    Severity.CRITICAL,
                    f"MemAvailable dropped to {avail:.0f} kB "
                    f"({100 * avail / total:.1f}% of MemTotal); "
                    f"dominant consumer appears to be {blame}",
                )
            )
    for tick, pid in monitor.process.node.memory.oom_events:
        out.findings.append(
            Finding(
                "oom",
                Severity.CRITICAL,
                f"process {pid} was OOM-killed at t={tick / 100:.2f}s",
            )
        )

    return out


def format_over(rows, cpus_used: CpuSet) -> str:
    tids = ",".join(str(r.tid) for r in rows[:6])
    more = "..." if len(rows) > 6 else ""
    return f"LWPs {tids}{more} on CPUs [{cpus_used.to_list()}]"
