"""The online detection engine: per-period anomaly scoring over the store.

Evaluated once per *committed* sampling period from
:meth:`repro.collect.engine.CollectionEngine.commit`, in the style of
Intel PRM's container analyzer: every monitored entity (LWP, HWT, GPU,
node memory) keeps a bounded :class:`EntityHistory` deque of its last
``window`` samples, and each period the detector differences the
newest sample against that history — window deltas, least-squares
slopes, EWMAs — and evaluates two catalogs over the features:

* the **§3.5 contention catalog** (:mod:`repro.detect.rules`) over
  the trailing window: oversubscription, forced time-slicing,
  affinity overlap, GPU locality;
* the **precursors** (:mod:`repro.detect.precursors`): conditions
  whose *trend* predicts a terminal event minutes ahead — memory-leak
  slope with a projected OOM ETA, GPU thermal-throttle onset,
  runqueue starvation, I/O stall.

Detection is edge-triggered per ``(code, entity)`` episode, exactly
like the live watchdog: a persistent condition raises one
:class:`~repro.detect.findings.OnlineFinding` when it crosses the
threshold and re-arms when it clears, so a wedged run does not flood
the alert ledger with one finding per period.

The detector is a *pure function of committed store state*: it reads
only what :class:`~repro.collect.store.SampleStore` holds after
``commit``, never the substrate underneath.  That is what makes alert
history reproducible across the simulated, live, and replayed drivers
— the acceptance contract the journal's alert notes rely on.
"""

from __future__ import annotations

from collections import deque
from operator import itemgetter
from typing import Iterable, Optional

import numpy as np

from repro.core.records import GPU_COLUMNS, LWP_COLUMNS, MEM_COLUMNS
from repro.detect.findings import SEVERITIES, AlertLedger, OnlineFinding
from repro.detect.precursors import PRECURSORS
from repro.detect.rules import RULES, THRESHOLDS, Condition, Row, TopologyFacts

__all__ = ["EntityHistory", "OnlineDetector"]

#: LWP metrics mirrored into per-entity history (store column names).
#: Only what the rule and precursor catalogs actually read: every name
#: here costs one deque append per LWP per period.
_LWP_METRICS = ("state", "utime", "stime", "nv_ctx")
#: GPU metrics the precursors read (subset of the sensor sweep)
_GPU_METRICS = (
    "temperature_c",
    "busy_percent",
    "power_avg_w",
    "clock_gfx_mhz",
    "used_vram_bytes",
)
#: node memory metrics
_MEM_METRICS = (
    "mem_total_kib",
    "mem_available_kib",
    "rss_kib",
    "io_read_kib",
    "io_write_kib",
)


#: per family, the metric values of one period-block row (store column
#: positions, resolved once; ``tick`` leads every column tuple)
_LWP_PICK = itemgetter(*map(LWP_COLUMNS.index, _LWP_METRICS))
_GPU_PICK = itemgetter(*map(GPU_COLUMNS.index, _GPU_METRICS))
_MEM_PICK = itemgetter(*map(MEM_COLUMNS.index, _MEM_METRICS))
#: smoothing of :meth:`EntityHistory.ewma`
_EWMA_ALPHA = 0.3


class EntityHistory:
    """Bounded metric history of one entity (the PRM-style deque).

    One deque per metric plus one for the tick column, all capped at
    ``window`` samples, with the delta-over-history feature extractors
    the rules and precursors consume: window deltas, least-squares
    slopes, and EWMAs folded over the retained history.

    The metric layout is fixed at construction (``names``) and
    :meth:`push` takes values in that order: the push path runs for
    every entity on every sampling period, so it must not allocate a
    dict or resolve names per sample.
    """

    __slots__ = (
        "window",
        "ticks",
        "names",
        "metrics",
        "_deques",
    )

    def __init__(self, window: int, names: tuple[str, ...]):
        self.window = window
        self.names = tuple(names)
        self.ticks: deque[float] = deque(maxlen=window)
        self._deques = [deque(maxlen=window) for _ in self.names]
        #: name -> deque, for the named feature accessors
        self.metrics: dict[str, deque[float]] = dict(
            zip(self.names, self._deques)
        )

    def push(self, tick: float, values: Iterable[float]) -> None:
        """Append one sample (ordered like ``names``)."""
        self.ticks.append(tick)
        for series, value in zip(self._deques, values):
            series.append(value)

    def __len__(self) -> int:
        return len(self.ticks)

    @property
    def full(self) -> bool:
        return len(self.ticks) == self.window

    @property
    def span_ticks(self) -> float:
        """Tick width of the retained window (0 before two samples)."""
        if len(self.ticks) < 2:
            return 0.0
        return self.ticks[-1] - self.ticks[0]

    # -- delta-over-history features -----------------------------------
    def last(self, name: str) -> float:
        return self.metrics[name][-1]

    def delta(self, name: str) -> float:
        """Newest minus oldest retained value (the window delta)."""
        series = self.metrics.get(name)
        if series is None or len(series) < 2:
            return 0.0
        return series[-1] - series[0]

    def slope(self, name: str, hz: float) -> float:
        """Least-squares slope of the metric, per second."""
        series = self.metrics.get(name)
        if series is None or len(series) < 3 or self.span_ticks <= 0:
            return 0.0
        t = np.asarray(self.ticks, dtype=np.float64) / hz
        y = np.asarray(series, dtype=np.float64)
        t = t - t.mean()
        denom = float(np.dot(t, t))
        if denom <= 0.0:
            return 0.0
        return float(np.dot(t, y - y.mean()) / denom)

    def ewma(self, name: str) -> float:
        """EWMA of the retained samples (oldest-seeded).

        Folded on demand over the bounded window rather than maintained
        incrementally: only the GPU thermal precursor consumes it, and
        paying a per-metric dict update on every push for every entity
        costs more than the occasional 16-step fold.
        """
        series = self.metrics.get(name)
        if not series:
            return 0.0
        alpha = _EWMA_ALPHA
        it = iter(series)
        acc = next(it)
        for value in it:
            acc += alpha * (value - acc)
        return acc

    def frac_eq(self, name: str, value: float) -> float:
        """Fraction of retained samples equal to ``value``.

        For exact-coded metrics (the state column): ``deque.count``
        runs at C speed, with no per-element Python call.
        """
        series = self.metrics.get(name)
        if not series:
            return 0.0
        return series.count(value) / len(series)

    def busy_pct(self, hz: float) -> float:
        """utime+stime window rate as a % of one CPU (LWP histories).

        Deques are indexed directly instead of going through
        :meth:`delta`: this runs for every LWP on every period.
        """
        ticks = self.ticks
        if len(ticks) < 2:
            return 0.0
        span = ticks[-1] - ticks[0]
        if span <= 0:
            return 0.0
        metrics = self.metrics
        utime = metrics["utime"]
        stime = metrics["stime"]
        busy = (utime[-1] - utime[0]) + (stime[-1] - stime[0])
        return 100.0 * busy / span


class OnlineDetector:
    """Per-period rule + precursor evaluation over one sample store.

    ``observe`` is called by the collection engine after every store
    commit; it mirrors the period block the commit sealed
    (``store.period``) into the bounded per-entity histories,
    evaluates the catalogs, edge-triggers the resulting conditions,
    and records the newly fired findings in the
    :class:`~repro.detect.findings.AlertLedger` (also returning them so
    the engine can spool each one to the journal's durable note
    channel).
    """

    def __init__(
        self,
        *,
        hz: float,
        window: int = 16,
        facts: TopologyFacts = TopologyFacts(frozenset()),
    ):
        if window < 4:
            raise ValueError("detection window must be >= 4 periods")
        self.hz = float(hz)
        self.window = int(window)
        self.thresholds = THRESHOLDS
        #: the driver's static node context (the default knows no node:
        #: no thread counts as bound, no GPU as remote)
        self.facts = facts
        #: threads exempt from per-thread rules (the monitor itself)
        self.ignore_tids: set[int] = set()
        self.alerts = AlertLedger()

        self.lwps: dict[int, EntityHistory] = {}
        self.gpus: dict[int, EntityHistory] = {}
        self.mem = EntityHistory(self.window, _MEM_METRICS)
        #: currently firing (code, entity) episodes, for edge triggering
        self._active: set[tuple[str, str]] = set()
        #: store (duck-typed) being observed this period
        self.store = None
        #: per-period cache of (the window's rows, their busy set) —
        #: several rules need each
        self._busy_cache: Optional[tuple[list[Row], list[Row]]] = None
        #: per-period windowed busy % of every eligible LWP (filled
        #: alongside _busy_cache; precursors reuse it)
        self._busy_all: dict[int, float] = {}

    # -- history maintenance -------------------------------------------
    def _update(self, store) -> None:
        # HWT counters are deliberately *not* mirrored: no streaming
        # rule reads them (affinity overlap derives from LWP affinity,
        # I/O stalls from LWP D-state + io counters), and mirroring a
        # Table-2 node's 64 HWTs would double the per-period push cost
        # for nothing.  The post-hoc tier still gets them from the store.
        period = store.period
        for histories, block, metrics, pick in (
            (self.lwps, period.lwp, _LWP_METRICS, _LWP_PICK),
            (self.gpus, period.gpu, _GPU_METRICS, _GPU_PICK),
            ({0: self.mem}, period.mem, _MEM_METRICS, _MEM_PICK),
        ):
            for key, row in zip(block.keys, block.rows):
                history = histories.get(key)
                if history is None:
                    history = histories[key] = EntityHistory(self.window, metrics)
                # as float64, the way the series (and a recovered journal)
                # hold the row: collectors hand integer jiffies
                history.push(float(row[0]), map(float, pick(row)))

    # -- the per-period evaluation -------------------------------------
    def observe(self, store, tick: float) -> list[OnlineFinding]:
        """One committed period: update histories, evaluate, edge-trigger."""
        self.store = store
        self._update(store)
        self._busy_cache = None  # recomputed lazily by the rules

        conditions: list[Condition] = []
        for rule in RULES:
            conditions.extend(rule(self))
        for precursor in PRECURSORS:
            conditions.extend(precursor(self))

        fired: list[OnlineFinding] = []
        present: set[tuple[str, str]] = set()
        for condition in conditions:
            key = (condition.code, condition.entity)
            if key in present:
                continue  # one episode per (code, entity) per period
            present.add(key)
            if key in self._active:
                continue  # still inside the already-reported episode
            if condition.severity not in SEVERITIES:
                raise ValueError(
                    f"bad severity {condition.severity!r} from rule "
                    f"{condition.code!r}"
                )
            fired.append(
                OnlineFinding(
                    tick=tick,
                    code=condition.code,
                    severity=condition.severity,
                    entity=condition.entity,
                    message=condition.message,
                    eta_s=condition.eta_s,
                )
            )
        # re-arm cleared episodes, remember the still-firing ones
        self._active = present
        self.alerts.extend(fired)
        return fired
