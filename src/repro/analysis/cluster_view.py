"""Job-wide aggregation: the "htop for the whole allocation" view.

§2 motivates ZeroSum with the htop screenshot: what users want is that
view "for all nodes in a given allocation, and for all resources at
their disposal".  This module merges the per-rank monitors of a job
into exactly that: per-rank utilization rows, per-node rollups with
utilization bars, GPU busyness, memory headroom, and a load-imbalance
metric across ranks.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.collect.report import StoreBackedRun
from repro.core.reports import UtilizationReport
from repro.errors import MonitorError

__all__ = [
    "RankSummary",
    "NodeSummary",
    "ClusterView",
    "build_cluster_view",
    "rank_summary",
]

_BAR = "█"


def _bar(fraction: float, width: int = 20) -> str:
    fraction = min(1.0, max(0.0, fraction))
    filled = round(fraction * width)
    return _BAR * filled + "·" * (width - filled)


@dataclass(frozen=True)
class RankSummary:
    """One rank's rollup."""

    rank: int
    hostname: str
    pid: int
    threads: int
    cpus_allowed: int
    mean_user_pct: float
    mean_system_pct: float
    total_nv_ctx: int
    rss_kib: float
    gpu_busy_pct: float  # -1 if no GPU

    @property
    def busy_pct(self) -> float:
        return self.mean_user_pct + self.mean_system_pct


@dataclass(frozen=True)
class NodeSummary:
    """One node's rollup across its ranks."""

    hostname: str
    ranks: int
    threads: int
    mean_busy_pct: float
    mem_used_frac: float
    gpu_busy_pct: float  # -1 if no GPUs observed


@dataclass
class ClusterView:
    """The whole allocation at a glance."""

    ranks: list[RankSummary] = field(default_factory=list)
    nodes: list[NodeSummary] = field(default_factory=list)

    def imbalance(self) -> float:
        """(max - min) / mean of per-rank busy%, 0 for a balanced job."""
        busy = np.array([r.busy_pct for r in self.ranks])
        if len(busy) == 0 or busy.mean() <= 0:
            return 0.0
        return float((busy.max() - busy.min()) / busy.mean())

    def laggards(self, threshold: float = 0.8) -> list[RankSummary]:
        """Ranks whose busy% is below ``threshold`` × the job median."""
        if not self.ranks:
            return []
        median = float(np.median([r.busy_pct for r in self.ranks]))
        return [r for r in self.ranks if r.busy_pct < threshold * median]

    def render(self, bar_width: int = 20) -> str:
        """Text dashboard: node rollups, per-rank rows, imbalance."""
        lines = ["Allocation overview:"]
        lines.append(
            f"{'node':<16} {'ranks':>5} {'thr':>4} {'cpu busy':>9}  "
            f"{'':{bar_width}}  {'mem':>5} {'gpu':>6}"
        )
        for node in self.nodes:
            gpu = f"{node.gpu_busy_pct:5.1f}%" if node.gpu_busy_pct >= 0 else "   --"
            lines.append(
                f"{node.hostname:<16} {node.ranks:>5} {node.threads:>4} "
                f"{node.mean_busy_pct:>8.1f}%  "
                f"{_bar(node.mean_busy_pct / 100, bar_width)}  "
                f"{node.mem_used_frac * 100:>4.0f}% {gpu:>6}"
            )
        lines.append("")
        lines.append(
            f"{'rank':>4} {'node':<16} {'pid':>6} {'thr':>4} {'user':>6} "
            f"{'sys':>5} {'nv_ctx':>7} {'rss MiB':>8} {'gpu':>6}"
        )
        for r in self.ranks:
            gpu = f"{r.gpu_busy_pct:5.1f}%" if r.gpu_busy_pct >= 0 else "   --"
            lines.append(
                f"{r.rank:>4} {r.hostname:<16} {r.pid:>6} {r.threads:>4} "
                f"{r.mean_user_pct:>5.1f}% {r.mean_system_pct:>4.1f}% "
                f"{r.total_nv_ctx:>7} {r.rss_kib / 1024:>8.1f} {gpu:>6}"
            )
        lines.append("")
        lines.append(f"load imbalance ((max-min)/mean busy): "
                     f"{self.imbalance() * 100:.1f} %")
        lag = self.laggards()
        if lag:
            lines.append(
                "laggard ranks: " + ", ".join(str(r.rank) for r in lag)
            )
        return "\n".join(lines) + "\n"


def rank_summary(monitor: StoreBackedRun, report: UtilizationReport) -> RankSummary:
    # normalize by the *job* window, not each thread's own observation
    # window, so ranks that finish early correctly read as less busy —
    # that asymmetry is what the imbalance metric measures
    duration = monitor.duration_ticks
    rows = []
    for tid in monitor.observed_tids():
        if "ZeroSum" in monitor.classify(tid):
            continue
        series = monitor.lwp_series[tid]
        user = 100.0 * series.last("utime") / duration
        system = 100.0 * series.last("stime") / duration
        if user + system >= 1.0:
            rows.append((user, system))
    if not rows:
        rows = [(0.0, 0.0)]
    gpu_busy = -1.0
    if monitor.gpu_series:
        vals = []
        for series in monitor.gpu_series.values():
            col = series.column("busy_percent")
            if len(col):
                vals.append(float(col.mean()))
        if vals:
            gpu_busy = float(np.mean(vals))
    rss = 0.0
    if len(monitor.mem_series):
        rss = float(monitor.mem_series.column("rss_kib").max())
    return RankSummary(
        rank=report.rank if report.rank is not None else -1,
        hostname=report.hostname,
        pid=report.pid,
        threads=len(report.lwp_rows),
        cpus_allowed=len(report.cpus_allowed),
        mean_user_pct=float(np.mean([u for u, _ in rows])),
        mean_system_pct=float(np.mean([s for _, s in rows])),
        total_nv_ctx=report.total_nv_ctx(),
        rss_kib=rss,
        gpu_busy_pct=gpu_busy,
    )


def build_cluster_view(monitors: list[StoreBackedRun]) -> ClusterView:
    """Merge all ranks' runs into the allocation-wide view.

    Each run is a simulated rank's monitor, or the run a sharded
    launcher's worker sent home; the node rollups take the used-memory
    fraction of the first run seen on each node.
    """
    if not monitors:
        raise MonitorError("no monitors to aggregate")
    view = ClusterView()
    per_node: dict[str, list[RankSummary]] = {}
    node_mem: dict[str, float] = {}
    for monitor in monitors:
        summary = rank_summary(monitor, monitor.report())
        view.ranks.append(summary)
        per_node.setdefault(summary.hostname, []).append(summary)
        node_mem.setdefault(summary.hostname, monitor.mem_used_frac)
    view.ranks.sort(key=lambda r: r.rank)

    for hostname, node_summaries in sorted(per_node.items()):
        gpu_vals = [s.gpu_busy_pct for s in node_summaries if s.gpu_busy_pct >= 0]
        view.nodes.append(
            NodeSummary(
                hostname=hostname,
                ranks=len(node_summaries),
                threads=sum(s.threads for s in node_summaries),
                mean_busy_pct=float(
                    np.mean([s.busy_pct for s in node_summaries])
                ),
                mem_used_frac=float(node_mem[hostname]),
                gpu_busy_pct=float(np.mean(gpu_vals)) if gpu_vals else -1.0,
            )
        )
    return view
