"""The §3.5 contention catalog: each decision taken once, over a window.

The paper reads contention off the utilization data — the same data
whichever way it was sampled — so the decisions (busy set,
oversubscription, pinned-affinity overlap, forced time-slicing,
GPU↔NUMA locality) live here as pure functions over plain ``(tid,
busy %, nv_ctx/s, affinity)`` rows plus one immutable
:class:`TopologyFacts` record.  Two callers feed them, differing only
in the window the rows cover:
the streaming ``rule_*`` functions below build rows from the online
detector's trailing :class:`~repro.detect.online.EntityHistory` window
once per committed period, and the post-hoc
:func:`repro.core.contention.analyze` builds them from the whole-run
report (the window is the whole run).  Each side words its own
message and keeps its own finding type.

A :class:`Condition` is a *currently true* statement; the detector
edge-triggers it into an :class:`~repro.detect.findings.OnlineFinding`
only on the period it first becomes true (and re-arms once it clears).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Collection, Iterable, Mapping, Optional

from repro.topology.cpuset import CpuSet

if TYPE_CHECKING:
    from repro.detect.online import OnlineDetector

__all__ = [
    "DetectThresholds",
    "THRESHOLDS",
    "GpuFacts",
    "TopologyFacts",
    "is_bound",
    "busy_set",
    "oversubscription",
    "lwp_list",
    "affinity_overlaps",
    "time_sliced",
    "remote_gpus",
    "Condition",
    "rule_oversubscription",
    "rule_time_slicing",
    "rule_affinity_overlap",
    "rule_gpu_locality",
    "RULES",
]

#: one thread over one window: (tid, busy % of one CPU, non-voluntary
#: context switches per second, affinity mask)
Row = tuple[int, float, float, Collection[int]]


@dataclass(frozen=True)
class GpuFacts:
    """What §3.5 needs to know about one visible GPU."""

    numa: int
    physical_index: int
    memory_bytes: int


@dataclass(frozen=True)
class TopologyFacts:
    """The static node context of one rank, derived once per driver.

    The simulated driver builds it from the machine tree and its SMI
    session, the live driver from the ``cpuN`` rows of ``/proc/stat``;
    a detached sim rank keeps its driver's.  For a run recovered from
    a journal or replayed from a log the union of recorded affinities
    stands in for ``node_cpus`` and the rest stays empty.
    """

    #: every CPU of the node (not just the rank's allowed set)
    node_cpus: frozenset[int]
    #: CPU -> NUMA domain OS index
    cpu_numa: Mapping[int, int] = field(default_factory=dict)
    #: NUMA domains the rank's allowed CPUs live on
    rank_numas: frozenset[int] = frozenset()
    #: visible GPU index -> its facts
    gpus: Mapping[int, GpuFacts] = field(default_factory=dict)
    #: cores the node's largest L3 region offers outside the reserved
    #: CPUs, the most a rank can ask for and stay local (0: unknown)
    l3_cores: int = 0


@dataclass(frozen=True)
class DetectThresholds:
    """Tunable trip points of the rule and precursor catalogs.

    The rule thresholds are read by the shared decisions below,
    whichever window feeds them; the precursor thresholds control how
    far ahead of the terminal event the early warnings fire.
    """

    #: a thread busier than this % of its window counts as "busy" (low:
    #: time-sliced threads may each see only a small share of one core,
    #: e.g. ~11 % for 9 threads on one core)
    busy_pct: float = 5.0
    #: nv_ctx per observed second above this is forced time-slicing
    nvctx_rate: float = 2.5
    #: shared CPUs count as saturated above this % demand per CPU
    demand_saturation_pct: float = 70.0
    #: fire the leak precursor when projected OOM is within this
    oom_horizon_s: float = 600.0
    #: ignore leaks slower than this (KiB/s of RSS growth)
    leak_min_slope_kib_s: float = 1.0
    #: GPU temperature at which vendors start pulling clocks
    gpu_throttle_temp_c: float = 90.0
    #: fire the thermal precursor when throttle is within this horizon
    gpu_temp_horizon_s: float = 600.0
    #: minimum rising slope (deg C/s) for the thermal precursor
    gpu_temp_min_slope: float = 1e-3
    #: runnable-state fraction of the window that means "starved"
    starvation_runnable_frac: float = 0.9
    #: a starved thread runs below this busy % despite being runnable
    starvation_busy_pct: float = 1.0
    #: D-state fraction of the window that means "I/O stalled"
    io_stall_d_frac: float = 0.9


#: the one set of trip points both windows are judged by
THRESHOLDS = DetectThresholds()


# -- the decisions ----------------------------------------------------------
def is_bound(cpus: Collection[int], node_cpus: Collection[int]) -> bool:
    """Whether an affinity mask pins a thread.

    Unbound helper threads carry the whole node's usable mask, so a
    mask counts as bound when it covers under half of the node.
    """
    return 0 < len(cpus) < max(1, len(node_cpus) // 2)


def busy_set(rows: Iterable[Row]) -> list[Row]:
    """Rows at or over the busy threshold."""
    busy_pct = THRESHOLDS.busy_pct
    return [row for row in rows if row[1] >= busy_pct]


def oversubscription(
    busy: Iterable[Row], node_cpus: Collection[int]
) -> Optional[tuple[list[Row], set[int]]]:
    """(busy bound rows, the CPUs they share), or None when not tripped.

    Trips when more busy bound threads exist than distinct CPUs under
    them and those CPUs are effectively saturated by their demand.
    """
    bound_busy: list[Row] = []
    cpus_used: set[int] = set()
    demand_pct = 0.0
    for row in busy:
        if not is_bound(row[3], node_cpus):
            continue
        bound_busy.append(row)
        cpus_used.update(row[3])
        demand_pct += row[1]
    if (
        len(bound_busy) > len(cpus_used)
        and demand_pct >= THRESHOLDS.demand_saturation_pct * len(cpus_used)
    ):
        return bound_busy, cpus_used
    return None


def lwp_list(rows: list[Row]) -> str:
    """``tid,tid,...`` of the first six rows, elided beyond (for messages)."""
    tids = ",".join(str(row[0]) for row in rows[:6])
    return tids + ("..." if len(rows) > 6 else "")


def affinity_overlaps(busy: Iterable[Row]) -> list[tuple[int, list[int]]]:
    """(cpu, tids) of every CPU more than one busy *pinned* thread sits on.

    Pinned means bound to one or two CPUs; unbound threads sharing the
    process cpuset are the scheduler's problem, not a pinning mistake.
    """
    per_cpu: dict[int, list[int]] = {}
    for tid, _busy, _rate, cpus in busy:
        if 0 < len(cpus) <= 2:
            for cpu in cpus:
                per_cpu.setdefault(cpu, []).append(tid)
    return [
        (cpu, sorted(tids))
        for cpu, tids in sorted(per_cpu.items())
        if len(tids) > 1
    ]


def time_sliced(rows: Iterable[Row]) -> list[Row]:
    """Rows whose non-voluntary context-switch rate means time-slicing."""
    nvctx_rate = THRESHOLDS.nvctx_rate
    return [row for row in rows if row[2] > nvctx_rate]


def remote_gpus(facts: TopologyFacts) -> list[tuple[int, GpuFacts]]:
    """(visible index, facts) of GPUs on a NUMA domain the rank is not on."""
    if not facts.rank_numas:
        return []
    return [
        (visible, gpu)
        for visible, gpu in sorted(facts.gpus.items())
        if gpu.numa not in facts.rank_numas
    ]


# -- the streaming window ---------------------------------------------------
_NO_CPUS = CpuSet()


@dataclass(frozen=True)
class Condition:
    """One rule/precursor verdict for the current period.

    The message is a ``str.format`` template plus the values it takes:
    it is formatted (:attr:`message`) only when the detector fires the
    episode, never for a condition still inside a reported one.
    """

    code: str
    severity: str
    entity: str
    template: str
    args: tuple = ()
    eta_s: Optional[float] = None

    @property
    def message(self) -> str:
        return self.template.format(*self.args)


def _busy_windows(det: "OnlineDetector") -> tuple[list[Row], list[Row]]:
    """(rows, busy set): one row per thread with a trailing window to judge.

    Cached on the detector for the current period — every thread rule
    consumes them, and recomputing them per rule would repeat the
    per-period walk over every thread history.  The windowed busy % of
    each row also lands in ``det._busy_all`` for the precursors.
    """
    cached = det._busy_cache
    if cached is not None:
        return cached
    rows = []
    busy_all = det._busy_all
    busy_all.clear()
    hz, ignore, affinity = det.hz, det.ignore_tids, det.store.lwp_affinity
    for tid, history in det.lwps.items():
        ticks = history.ticks
        if tid in ignore or len(ticks) < 2:
            continue
        span = ticks[-1] - ticks[0]
        nv = history.metrics["nv_ctx"]
        rate = (nv[-1] - nv[0]) * hz / span if span > 0 else 0.0
        busy = busy_all[tid] = history.busy_pct(hz)
        rows.append((tid, busy, rate, affinity.get(tid, _NO_CPUS)))
    det._busy_cache = rows, busy_set(rows)
    return det._busy_cache


def rule_oversubscription(det: "OnlineDetector") -> list[Condition]:
    """More busy *bound* threads than distinct CPUs, CPUs saturated."""
    tripped = oversubscription(_busy_windows(det)[1], det.facts.node_cpus)
    if tripped is None:
        return []
    bound_busy, cpus_used = tripped
    return [
        Condition(
            code="oversubscription",
            severity="critical",
            entity="proc",
            template=(
                "{} busy threads share only {} hardware thread(s) over the "
                "last {} periods (LWPs {} on CPUs {})"
            ),
            args=(len(bound_busy), len(cpus_used), det.window,
                  lwp_list(bound_busy), sorted(cpus_used)),
        )
    ]


def rule_time_slicing(det: "OnlineDetector") -> list[Condition]:
    """High non-voluntary context-switch rate over the window."""
    return [
        Condition(
            code="time-slicing",
            severity="warning",
            entity=f"lwp:{tid}",
            template=(
                "LWP {} is being time-sliced: {:.1f} non-voluntary "
                "context switches/s over the last {} periods"
            ),
            args=(tid, rate, len(det.lwps[tid])),
        )
        for tid, _busy, rate, _cpus in time_sliced(_busy_windows(det)[0])
    ]


def rule_affinity_overlap(det: "OnlineDetector") -> list[Condition]:
    """Busy threads pinned (<= 2 CPUs) onto the same hardware thread."""
    return [
        Condition(
            code="affinity-overlap",
            severity="warning",
            entity=f"hwt:{cpu}",
            template="{} busy threads are pinned to CPU {}: LWPs {}",
            args=(len(tids), cpu, tids),
        )
        for cpu, tids in affinity_overlaps(_busy_windows(det)[1])
    ]


def rule_gpu_locality(det: "OnlineDetector") -> list[Condition]:
    """A visible GPU attached to a NUMA domain the rank never runs on.

    Static configuration, not a trend — it is evaluated from the
    topology facts the driver supplied and raised once (the episode
    never clears, so edge triggering reports it exactly once).
    """
    return [
        Condition(
            code="gpu-locality",
            severity="warning",
            entity=f"gpu:{visible}",
            template="GPU {} is on NUMA {} but the rank runs on NUMA {}",
            args=(visible, gpu.numa, sorted(det.facts.rank_numas)),
        )
        for visible, gpu in remote_gpus(det.facts)
    ]


#: the streaming evaluation order of the shared catalog
RULES = (
    rule_oversubscription,
    rule_time_slicing,
    rule_affinity_overlap,
    rule_gpu_locality,
)
