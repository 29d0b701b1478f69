"""Streaming §3.5 rules: trip conditions and edge-triggered episodes."""

from tests.detect.conftest import node_facts
from repro.detect import GpuFacts


def busy_kwargs(periods, *, jiffies=10.0, nv=0.0):
    """Row kwargs for a thread that computed the whole period."""
    return {"utime": jiffies * periods, "nv_ctx": nv * periods}


class TestOversubscription:
    def test_three_busy_bound_threads_one_cpu(self, driver):
        d = driver()
        for p in range(1, 4):
            d.period(lwps=[
                (tid, busy_kwargs(p), [0]) for tid in (10, 11, 12)
            ])
        codes = [f.code for f in d.fired]
        assert "oversubscription" in codes
        # the same shape also overlaps all three pins on CPU 0
        assert "affinity-overlap" in codes
        worst = next(f for f in d.fired if f.code == "oversubscription")
        assert worst.severity == "critical"
        assert worst.entity == "proc"
        assert "3 busy threads" in worst.message

    def test_unbound_threads_do_not_count(self, driver):
        d = driver()  # affinity = the whole 16-CPU node: not bound
        for p in range(1, 6):
            fired = d.period(lwps=[
                (tid, busy_kwargs(p), range(16)) for tid in (10, 11, 12)
            ])
            assert fired == []

    def test_idle_pinned_threads_do_not_trip(self, driver):
        d = driver()
        for _ in range(6):
            fired = d.period(lwps=[
                (tid, {}, [0]) for tid in (10, 11, 12)
            ])
            assert fired == []


class TestTimeSlicing:
    def test_nvctx_rate_trips(self, driver):
        d = driver()
        for p in range(1, 3):
            fired = d.period(lwps=[(7, busy_kwargs(p, nv=5.0), [0])])
        # 5 nv_ctx per 10-jiffy period at 100 Hz = 50/s >> 2.5/s
        assert [f.code for f in fired] == ["time-slicing"]
        assert fired[0].entity == "lwp:7"

    def test_voluntary_switching_is_quiet(self, driver):
        d = driver()
        for p in range(1, 6):
            fired = d.period(lwps=[(7, busy_kwargs(p, nv=0.0), [0])])
            assert fired == []


class TestAffinityOverlap:
    def test_two_busy_threads_pinned_to_one_cpu(self, driver):
        d = driver()
        for p in range(1, 3):
            fired = d.period(lwps=[
                (20, busy_kwargs(p), [3]),
                (21, busy_kwargs(p), [3]),
            ])
        codes = {f.code for f in fired}
        assert "affinity-overlap" in codes
        overlap = next(f for f in fired if f.code == "affinity-overlap")
        assert overlap.entity == "hwt:3"
        assert "20" in overlap.message and "21" in overlap.message

    def test_disjoint_pins_are_clean(self, driver):
        d = driver()
        for p in range(1, 4):
            fired = d.period(lwps=[
                (20, busy_kwargs(p), [3]),
                (21, busy_kwargs(p), [4]),
            ])
            assert all(f.code != "affinity-overlap" for f in fired)


class TestGpuLocality:
    def test_remote_gpu_flagged_once(self, driver):
        d = driver(facts=node_facts(
            rank_numas=frozenset([0]), gpus={0: GpuFacts(3, 0, 0)}
        ))
        first = d.period(lwps=[(1, {}, [0])])
        assert [f.code for f in first] == ["gpu-locality"]
        assert first[0].entity == "gpu:0"
        # static condition: stays active, never re-fires
        for _ in range(3):
            assert d.period(lwps=[(1, {}, [0])]) == []

    def test_local_gpu_is_clean(self, driver):
        d = driver(facts=node_facts(
            rank_numas=frozenset([0]), gpus={0: GpuFacts(0, 0, 0)}
        ))
        assert d.period(lwps=[(1, {}, [0])]) == []


class TestEdgeTriggering:
    def test_persistent_condition_fires_once(self, driver):
        d = driver()
        for p in range(1, 8):
            d.period(lwps=[(7, busy_kwargs(p, nv=5.0), [0])])
        slicing = [f for f in d.fired if f.code == "time-slicing"]
        assert len(slicing) == 1

    def test_cleared_condition_rearms(self, driver):
        d = driver(window=4)
        p = 0
        for _ in range(3):  # trip it
            p += 1
            d.period(lwps=[(7, busy_kwargs(p, nv=5.0), [0])])
        for _ in range(6):  # let the window drain of nv_ctx deltas
            d.period(lwps=[(7, busy_kwargs(p, nv=5.0), [0])])
        for _ in range(3):  # trip it again
            p += 10
            d.period(lwps=[(7, busy_kwargs(p, nv=5.0), [0])])
        slicing = [f for f in d.fired if f.code == "time-slicing"]
        assert len(slicing) == 2

    def test_alerts_land_in_ledger(self, driver):
        d = driver()
        for p in range(1, 4):
            d.period(lwps=[(7, busy_kwargs(p, nv=5.0), [0])])
        assert d.detector.alerts.total == len(d.fired) == 1
        assert d.detector.alerts.counts == {"time-slicing": 1}
