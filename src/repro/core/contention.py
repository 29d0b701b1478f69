"""Contention report and misconfiguration detection (§3.2, §3.5).

The paper's §3.5 reads contention off the utilization data (high
non-voluntary context switches, high system-call time, overlapping
affinity lists, memory pressure) and §3.2 names automatic
misconfiguration detection as future work.  Both are implemented here:
:func:`analyze` takes any store-backed run — simulated, live, replayed
or recovered from a journal — and produces a list of typed findings
with severities, covering

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

The first five decisions are the shared §3.5 catalog of
:mod:`repro.detect.rules`, fed rows built from the whole-run report
(post hoc, the window is the whole run); the rest need the whole
run's series and live only here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.core.reports import LwpRow, UtilizationReport
from repro.detect.rules import (
    affinity_overlaps,
    busy_set,
    is_bound,
    lwp_list,
    oversubscription,
    remote_gpus,
    time_sliced,
)
from repro.topology.cpuset import CpuSet

if TYPE_CHECKING:
    from repro.collect.report import StoreBackedRun

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


#: a CPU with idle above this is "unused"
_IDLE_PCT = 95.0
#: MemAvailable below this fraction of MemTotal is pressure ("will I
#: soon run out of a limited resource?", §2)
_MEM_PRESSURE = 0.10


def _nv_ctx_in_window(run: StoreBackedRun, row: LwpRow) -> int:
    """Non-voluntary switches the run observed, not the thread's lifetime."""
    if run.baseline == "first":  # the counters predate the monitor
        first = run.lwp_series[row.tid].column("nv_ctx")[0]
        return row.nv_ctx - int(first)
    return row.nv_ctx


def analyze(
    run: StoreBackedRun, report: UtilizationReport | None = None
) -> ContentionReport:
    """Derive findings from any store-backed run."""
    report = report or run.report()
    out = ContentionReport(rank=report.rank)
    facts = run.facts
    duration_s = max(run.duration_seconds, 1e-9)

    by_tid = {r.tid: r for r in report.lwp_rows}
    nv_ctx = {r.tid: _nv_ctx_in_window(run, r) for r in report.lwp_rows}
    rows = [
        (r.tid, r.utime_pct + r.stime_pct, nv_ctx[r.tid] / duration_s, r.cpus)
        for r in report.lwp_rows
    ]
    busy = busy_set(rows)

    tripped = oversubscription(busy, facts.node_cpus)
    if tripped is not None:
        bound_busy, cpus_used = tripped
        out.findings.append(
            Finding(
                "oversubscription",
                Severity.CRITICAL,
                f"{len(bound_busy)} busy threads share only "
                f"{len(cpus_used)} hardware thread(s) "
                f"(LWPs {lwp_list(bound_busy)} on CPUs "
                f"[{CpuSet(cpus_used).to_list()}])",
            )
        )

    for cpu, tids in affinity_overlaps(busy):
        out.findings.append(
            Finding(
                "affinity-overlap",
                Severity.WARNING,
                f"{len(tids)} busy threads are pinned to CPU {cpu}: "
                f"LWPs {tids}",
            )
        )

    for tid, _busy, rate, _cpus in time_sliced(rows):
        out.findings.append(
            Finding(
                "time-slicing",
                Severity.WARNING,
                f"LWP {tid} ({by_tid[tid].kind}) suffered "
                f"{nv_ctx[tid]} non-voluntary context switches "
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
    for visible, gpu in remote_gpus(facts):
        out.findings.append(
            Finding(
                "gpu-locality",
                Severity.WARNING,
                f"GPU {gpu.physical_index} (visible {visible}) "
                f"is on NUMA {gpu.numa} but the rank runs on "
                f"NUMA {sorted(facts.rank_numas)}",
            )
        )

    # threads spanning NUMA domains (needs the driver's CPU -> NUMA map)
    cpu_numa = facts.cpu_numa
    for row in report.lwp_rows:
        if not is_bound(row.cpus, facts.node_cpus):
            continue
        domains = {cpu_numa[cpu] for cpu in row.cpus if cpu in cpu_numa}
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
    for visible in sorted(run.gpu_series):
        series = run.gpu_series[visible]
        if len(series) == 0 or visible not in facts.gpus:
            continue
        capacity = facts.gpus[visible].memory_bytes
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
    for cpu in sorted(run.hwt_series):
        series = run.hwt_series[cpu]
        if "iowait" not in series.columns or len(series) == 0:
            continue
        iowait = series.column("iowait")
        waited = iowait[-1] - (iowait[0] if run.baseline == "first" else 0.0)
        iowait_pct = 100.0 * waited / max(1, duration_s * run.hz)
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
    if len(run.mem_series):
        total = run.mem_series.last("mem_total_kib")
        avail_col = run.mem_series.column("mem_available_kib")
        avail = float(avail_col.min())
        if total > 0 and avail < _MEM_PRESSURE * total:
            # blame assessed at the moment of peak pressure, since a
            # dead (reaped) process reports zero RSS afterwards
            at_peak = int(np.argmin(avail_col))
            rss = float(run.mem_series.column("rss_kib")[at_peak])
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
    for tick, pid in run.oom_events:
        out.findings.append(
            Finding(
                "oom",
                Severity.CRITICAL,
                f"process {pid} was OOM-killed at t={tick / run.hz:.2f}s",
            )
        )

    return out
