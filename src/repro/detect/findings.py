"""Typed online findings and the bounded alert ledger.

This module is the *vocabulary* of the online detection tier: an
:class:`OnlineFinding` is one detector decision (a streaming §3.5 rule
or a precursor crossing its threshold), stamped with the sampling tick
it fired on; an :class:`AlertLedger` is the bounded, replayable record
of every finding a run raised — the alerts-as-data analogue of the
:class:`~repro.collect.faults.DegradationLedger`.

Deliberately import-light: nothing here imports ``repro.collect`` or
``repro.core``, so the store, the journal, the heartbeat, and the
report can all reference these types without creating a cycle.
Findings serialize to plain dicts of scalars (:meth:`OnlineFinding.to_state`)
so the journal's ``note`` records can carry them and recovery can
rebuild the ledger bit-identically.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional

__all__ = ["SEVERITIES", "OnlineFinding", "AlertLedger"]

#: allowed severity labels, mirroring repro.core.contention.Severity
SEVERITIES = ("info", "warning", "critical")


@dataclass(frozen=True)
class OnlineFinding:
    """One online detection, raised mid-run at a specific period.

    ``entity`` names what the finding is about, in the store's own key
    space: ``"lwp:<tid>"``, ``"hwt:<cpu>"``, ``"gpu:<visible>"``,
    ``"mem"`` for the node memory series, or ``"proc"`` for whole-
    process conditions.  ``eta_s`` is set by precursors that project a
    terminal event (seconds until projected OOM / throttle).
    """

    tick: float
    code: str
    severity: str  # one of SEVERITIES
    entity: str
    message: str
    eta_s: Optional[float] = None

    def render(self) -> str:
        """Single-line gauge form, like a post-hoc Finding with a time."""
        line = (
            f"[{self.severity.upper():8s}] t={self.tick:g} "
            f"{self.code} ({self.entity}): {self.message}"
        )
        if self.eta_s is not None:
            line += f" [ETA {self.eta_s:.0f}s]"
        return line

    # -- journal round-trip --------------------------------------------
    def to_state(self) -> dict:
        """JSON-safe dict for the journal's note channel."""
        return {
            "tick": self.tick,
            "code": self.code,
            "severity": self.severity,
            "entity": self.entity,
            "message": self.message,
            "eta_s": self.eta_s,
        }

    @classmethod
    def from_state(cls, state: dict) -> "OnlineFinding":
        """Rebuild a finding from :meth:`to_state` output."""
        eta = state.get("eta_s")
        return cls(
            tick=float(state.get("tick", 0.0)),
            code=str(state.get("code", "?")),
            severity=str(state.get("severity", "info")),
            entity=str(state.get("entity", "proc")),
            message=str(state.get("message", "")),
            eta_s=None if eta is None else float(eta),
        )


class AlertLedger:
    """Bounded ring of raised findings plus exact lifetime counters.

    Like the degradation ledger, the event list is capped
    (``max_alerts``) so an always-on monitor cannot leak memory through
    its own alerting, while ``total`` and the per-code ``counts`` stay
    exact for the whole run.
    """

    def __init__(self, max_alerts: int = 256):
        self.max_alerts = max(1, int(max_alerts))
        self.findings: deque[OnlineFinding] = deque(maxlen=self.max_alerts)
        self.total = 0
        self.counts: dict[str, int] = {}

    def record(self, finding: OnlineFinding) -> None:
        """Append one finding (oldest is evicted when the ring is full)."""
        self.findings.append(finding)
        self.total += 1
        self.counts[finding.code] = self.counts.get(finding.code, 0) + 1

    def extend(self, findings: Iterable[OnlineFinding]) -> None:
        for finding in findings:
            self.record(finding)

    def __len__(self) -> int:
        return self.total

    def by_code(self, code: str) -> list[OnlineFinding]:
        """Retained findings of one kind, oldest first."""
        return [f for f in self.findings if f.code == code]

    def worst(self) -> str:
        """Highest severity retained ("info" when clean)."""
        worst = 0
        for finding in self.findings:
            if finding.severity in SEVERITIES:
                worst = max(worst, SEVERITIES.index(finding.severity))
        return SEVERITIES[worst]

    # -- rendering ------------------------------------------------------
    def heartbeat_summary(self) -> str:
        """Compact ``code:count`` clause for the heartbeat line."""
        return ",".join(
            f"{code}:{count}" for code, count in sorted(self.counts.items())
        )

    def summary_lines(self) -> list[str]:
        """The report's "Alerts:" section body (empty when clean)."""
        if not self.total:
            return []
        lines = [finding.render() for finding in self.findings]
        dropped = self.total - len(self.findings)
        if dropped:
            lines.append(
                f"({dropped} earlier alert(s) evicted from the "
                f"{self.max_alerts}-entry ring)"
            )
        return lines

    # -- journal round-trip --------------------------------------------
    def state(self) -> dict:
        """Everything needed to rebuild this ledger bit-identically."""
        return {
            "max_alerts": self.max_alerts,
            "total": self.total,
            "counts": dict(self.counts),
            "findings": [f.to_state() for f in self.findings],
        }

    @classmethod
    def from_state(cls, state: dict) -> "AlertLedger":
        """Rebuild from :meth:`state` output (a journal snapshot)."""
        ledger = cls(max_alerts=int(state.get("max_alerts") or 256))
        for entry in state.get("findings", []):
            ledger.findings.append(OnlineFinding.from_state(entry))
        ledger.total = int(state.get("total", len(ledger.findings)))
        ledger.counts = {
            str(code): int(count)
            for code, count in (state.get("counts") or {}).items()
        }
        return ledger

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AlertLedger):
            return NotImplemented
        return (
            self.max_alerts == other.max_alerts
            and self.total == other.total
            and self.counts == other.counts
            and list(self.findings) == list(other.findings)
        )
