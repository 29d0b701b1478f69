"""Online contention detection and anomaly scoring.

The per-period analysis tier over the shared collection pipeline: a
bounded per-entity metric history, delta-over-history features, the
§3.5 contention catalog (:mod:`repro.detect.rules` — its decisions are
shared with the post-hoc :func:`repro.core.contention.analyze`), and
precursor detectors that project terminal events (OOM, thermal
throttle) before they happen.  Findings are typed records carried by
every existing channel: the heartbeat line, the report's "Alerts:"
section, and the spill journal's durable note stream.
"""

from repro.detect.findings import SEVERITIES, AlertLedger, OnlineFinding
from repro.detect.online import EntityHistory, OnlineDetector
from repro.detect.precursors import (
    PRECURSORS,
    precursor_gpu_thermal,
    precursor_io_stall,
    precursor_memory_leak,
    precursor_runqueue_starvation,
)
from repro.detect.rules import (
    RULES,
    Condition,
    DetectThresholds,
    GpuFacts,
    TopologyFacts,
    is_bound,
    rule_affinity_overlap,
    rule_gpu_locality,
    rule_oversubscription,
    rule_time_slicing,
)

__all__ = [
    "AlertLedger",
    "OnlineFinding",
    "SEVERITIES",
    "OnlineDetector",
    "EntityHistory",
    "DetectThresholds",
    "TopologyFacts",
    "GpuFacts",
    "is_bound",
    "Condition",
    "RULES",
    "rule_oversubscription",
    "rule_time_slicing",
    "rule_affinity_overlap",
    "rule_gpu_locality",
    "PRECURSORS",
    "precursor_memory_leak",
    "precursor_gpu_thermal",
    "precursor_runqueue_starvation",
    "precursor_io_stall",
]
