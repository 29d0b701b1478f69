"""Post-processing: time series, overhead statistics, rank reordering."""

from repro.analysis.logparse import CsvTable, ParsedLog, parse_log
from repro.analysis.cluster_view import (
    ClusterView,
    NodeSummary,
    RankSummary,
    build_cluster_view,
)
from repro.analysis.overhead import (
    DistributionSummary,
    OverheadResult,
    compare_distributions,
)
from repro.analysis.reorder import (
    offnode_bytes,
    placement_improvement,
    suggest_placement,
)
from repro.analysis.timeseries import (
    UtilizationSeries,
    all_hwt_series,
    all_lwp_series,
    hwt_series,
    lwp_series,
)

__all__ = [
    "ParsedLog",
    "CsvTable",
    "parse_log",
    "ClusterView",
    "NodeSummary",
    "RankSummary",
    "build_cluster_view",
    "DistributionSummary",
    "OverheadResult",
    "compare_distributions",
    "offnode_bytes",
    "suggest_placement",
    "placement_improvement",
    "UtilizationSeries",
    "lwp_series",
    "hwt_series",
    "all_lwp_series",
    "all_hwt_series",
]
