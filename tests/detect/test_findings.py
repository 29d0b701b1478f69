"""OnlineFinding / AlertLedger: rendering, bounds, state round trips."""

from repro.detect import AlertLedger, OnlineFinding


def finding(tick=10.0, code="time-slicing", severity="warning",
            entity="lwp:7", message="sliced", eta_s=None):
    return OnlineFinding(tick=tick, code=code, severity=severity,
                         entity=entity, message=message, eta_s=eta_s)


class TestFinding:
    def test_render_shape(self):
        line = finding().render()
        assert "WARNING" in line
        assert "t=10" in line
        assert "time-slicing" in line
        assert "(lwp:7)" in line
        assert "sliced" in line

    def test_render_carries_eta(self):
        line = finding(code="mem-leak-oom", severity="critical",
                       entity="mem", eta_s=92.4).render()
        assert "[ETA 92s]" in line

    def test_state_round_trip(self):
        f = finding(eta_s=5.0)
        assert OnlineFinding.from_state(f.to_state()) == f


class TestLedger:
    def test_record_and_counts(self):
        ledger = AlertLedger()
        ledger.record(finding())
        ledger.record(finding(tick=20.0))
        ledger.record(finding(code="oversubscription",
                              severity="critical", entity="proc"))
        assert len(ledger) == 3
        assert ledger.counts["time-slicing"] == 2
        assert [f.code for f in ledger.by_code("oversubscription")] == [
            "oversubscription"
        ]

    def test_worst(self):
        ledger = AlertLedger()
        assert ledger.worst() == "info"  # clean ledger
        ledger.record(finding(severity="info"))
        ledger.record(finding(severity="critical"))
        ledger.record(finding(severity="warning"))
        assert ledger.worst() == "critical"

    def test_bounded_retention_keeps_totals(self):
        ledger = AlertLedger(max_alerts=2)
        for t in range(5):
            ledger.record(finding(tick=float(t)))
        assert len(ledger) == 5  # total survives eviction
        assert [f.tick for f in ledger.findings] == [3.0, 4.0]
        assert any("5" in line or "evicted" in line.lower()
                   for line in ledger.summary_lines())

    def test_heartbeat_summary_sorted(self):
        ledger = AlertLedger()
        ledger.record(finding(code="time-slicing"))
        ledger.record(finding(code="affinity-overlap", entity="hwt:0"))
        ledger.record(finding(code="time-slicing", entity="lwp:8"))
        assert ledger.heartbeat_summary() == \
            "affinity-overlap:1,time-slicing:2"

    def test_state_round_trip_is_equal(self):
        ledger = AlertLedger(max_alerts=3)
        for t in range(5):
            ledger.record(finding(tick=float(t)))
        restored = AlertLedger.from_state(ledger.state())
        assert restored == ledger

    def test_inequality_on_divergence(self):
        a, b = AlertLedger(), AlertLedger()
        a.record(finding())
        assert a != b
