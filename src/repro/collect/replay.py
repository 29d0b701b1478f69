"""Trace replay: the third driver over the shared collection pipeline.

A ZeroSum log (§3.6) carries the raw CSV dump of every sample.  This
driver re-ingests that dump into a fresh
:class:`~repro.collect.store.SampleStore` and rebuilds the Listing 2
report with the very same
:class:`~repro.collect.report.ReportBuilder` the simulated and live
monitors use — the offline login-node workflow, and the proof that the
store/report seam is real: a report recomputed from the exported
samples matches the one the original run printed.

Thread kinds and affinities are identity metadata, not samples; the
replay recovers them from the report embedded in the log so the
rebuilt rows carry the same labels.
"""

from __future__ import annotations

import re

import numpy as np

from repro.collect.report import StoreBackedRun
from repro.collect.store import KEYED_FAMILIES, SampleStore
from repro.core.records import MEM_COLUMNS, PeriodBlock
from repro.core.reports import UtilizationReport
from repro.errors import MonitorError
from repro.topology.cpuset import CpuSet
from repro.units import USER_HZ

__all__ = ["ReplayZeroSum"]

_ATTACH_RE = re.compile(
    r"^ZeroSum(?P<live> \(live\))? attached to PID (?P<pid>\d+) "
    r"on (?P<host>\S+)"
)
_CPUS_RE = re.compile(r"^CPUs allowed: \[(?P<cpus>[^\]]*)\]")
# the report's Process Summary line: every exporter of a ranked run
# writes it, whereas the banner's "MPI rank R of N" needs the world size
_RANK_RE = re.compile(r"^MPI (?P<rank>\d+) - PID \d+ - Node ")
#: family -> the leading key column of its CSV section
_KEY_COLUMN = {"lwp": "tid", "hwt": "cpu", "gpu": "gpu"}
#: report section heading -> the report's list of its note lines
_NOTE_SECTIONS = {
    "Alerts:": "alert_notes",
    "Degradation Summary:": "degradation_notes",
}
_LWP_LINE_RE = re.compile(
    r"^LWP (?P<tid>\d+): (?P<kind>.+?) - stime: .*"
    r"CPUs: \[(?P<cpus>[^\]]*)\]$"
)


class ReplayZeroSum(StoreBackedRun):
    """Re-run the report pipeline from one exported log's text."""

    def __init__(self, log_text: str, *, hz: float = USER_HZ):
        # lazy import: logparse sits above core.monitor in the import
        # graph (via core.heatmap), and core.monitor imports this package
        from repro.analysis.logparse import parse_log

        parsed = parse_log(log_text)
        self.hz = hz
        self.pid = 0
        self.hostname = "?"
        self.cpus_allowed = CpuSet()
        for line in parsed.header.splitlines():
            if m := _ATTACH_RE.match(line):
                # the banner names the driver, and with it the baseline
                if m.group("live") is not None:
                    self.driver, self.baseline = "live", "first"
                self.pid = int(m.group("pid"))
                self.hostname = m.group("host")
            elif m := _CPUS_RE.match(line):
                self.cpus_allowed = CpuSet.from_list(m.group("cpus"))
        self.duration_seconds = parsed.duration_seconds()

        self.store = SampleStore()
        self._kinds: dict[int, str] = {}
        self._notes: dict[str, list[str]] = {
            attr: [] for attr in _NOTE_SECTIONS.values()
        }
        self._ingest_samples(parsed)
        self._ingest_identity(parsed.report_text)

    # -- ingestion ------------------------------------------------------
    def _ingest_samples(self, parsed) -> None:
        for family, (_, columns) in KEYED_FAMILIES.items():
            table, key = getattr(parsed, family), _KEY_COLUMN[family]
            if table is not None:
                self._check(table.columns, (key,) + columns, family.upper())
                # one staged family: the store splits it into per-entity
                # series in first-seen order, each in log order
                keys = table.rows[:, 0].astype(np.int64).tolist()
                self.store.stage(family, keys, table.rows[:, 1:])
        if parsed.memory is not None:
            self._check(parsed.memory.columns, MEM_COLUMNS, "memory")
            rows = parsed.memory.rows
            self.store.stage("mem", [0] * len(rows), rows)
        # a log is one ingest, not a period: close it and drop the block
        # nobody reads, or the store holds every row a second time
        self.store.commit(self.store.prev_tick, ())
        self.store.period = PeriodBlock()

    @staticmethod
    def _check(columns, expected, section: str) -> None:
        if tuple(columns) != tuple(expected):
            raise MonitorError(
                f"unexpected {section} CSV columns in log: {columns}"
            )

    def _ingest_identity(self, report_text: str) -> None:
        notes = None
        for line in report_text.splitlines():
            # alerts and degradation events are identity metadata too:
            # the rebuilt report must still say what the detector saw
            # and why a column of the original is gone
            if line in _NOTE_SECTIONS:
                notes = self._notes[_NOTE_SECTIONS[line]]
                continue
            if notes is not None:
                if not line.strip():
                    notes = None
                else:
                    notes.append(line)
                continue
            if m := _RANK_RE.match(line):
                self.rank = int(m.group("rank"))
                continue
            m = _LWP_LINE_RE.match(line)
            if not m:
                continue
            tid = int(m.group("tid"))
            self._kinds[tid] = m.group("kind")
            self.store.lwp_affinity[tid] = CpuSet.from_list(m.group("cpus"))

    def classify(self, tid: int) -> str:
        """Thread kind as recorded in the original report."""
        return self._kinds.get(tid) or super().classify(tid)

    def report(self) -> UtilizationReport:
        """Rebuild the Listing 2 report from the replayed samples."""
        report = super().report()
        # the replay store never degrades nor detects; carry the
        # original run's notes
        for attr, notes in self._notes.items():
            setattr(report, attr, list(notes))
        return report
