"""Precursor detectors: early warnings with projected ETAs."""

import pytest


class TestMemoryLeak:
    def leak_mem(self, p, *, rss_step=1000.0, avail_step=-1000.0):
        return {
            "rss": 100_000.0 + rss_step * p,
            "available": 500_000.0 + avail_step * p,
        }

    def test_leak_projects_oom_eta(self, driver):
        d = driver()
        for p in range(1, 9):
            d.period(mem=self.leak_mem(p))
        leaks = [f for f in d.fired if f.code == "mem-leak-oom"]
        assert len(leaks) == 1
        leak = leaks[0]
        assert leak.severity == "critical"
        assert leak.entity == "mem"
        # available falls 1000 KiB per 10-jiffy period = 10,000 KiB/s;
        # the pool drains from ~500,000 KiB in roughly 50 s
        assert leak.eta_s == pytest.approx(50.0, rel=0.2)
        assert "projected OOM" in leak.message

    def test_stable_rss_is_quiet(self, driver):
        d = driver()
        for p in range(1, 9):
            d.period(mem=self.leak_mem(p, rss_step=0.0, avail_step=0.0))
        assert d.fired == []

    def test_distant_oom_outside_horizon_is_quiet(self, driver):
        d = driver()
        # same slope, but an ocean of available memory: ETA >> horizon
        for p in range(1, 9):
            d.period(mem={
                "rss": 100_000.0 + 1000.0 * p,
                "available": 9_000_000_000.0 - 1000.0 * p,
            })
        assert d.fired == []

    def test_needs_half_window_of_history(self, driver):
        d = driver()  # window 8: under 4 samples no trend is trusted
        for p in range(1, 4):
            assert d.period(mem=self.leak_mem(p)) == []


class TestGpuThermal:
    def test_rising_temperature_under_load(self, driver):
        d = driver()
        for p in range(1, 9):
            d.period(gpus=[(0, {"temperature": 70.0 + 2.0 * p,
                                "busy": 90.0})])
        thermal = [f for f in d.fired if f.code == "gpu-thermal-throttle"]
        assert len(thermal) == 1
        f = thermal[0]
        assert f.entity == "gpu:0"
        assert f.eta_s is not None and f.eta_s > 0.0

    def test_already_at_throttle_point_is_eta_zero(self, driver):
        d = driver()
        for p in range(1, 9):
            d.period(gpus=[(0, {"temperature": 95.0, "busy": 90.0})])
        thermal = [f for f in d.fired if f.code == "gpu-thermal-throttle"]
        assert len(thermal) == 1
        assert thermal[0].eta_s == 0.0

    def test_idle_device_is_quiet(self, driver):
        d = driver()
        for p in range(1, 9):
            d.period(gpus=[(0, {"temperature": 70.0 + 2.0 * p,
                                "busy": 0.0})])
        assert d.fired == []

    def test_hot_but_cooling_is_quiet(self, driver):
        d = driver()
        for p in range(1, 9):
            d.period(gpus=[(0, {"temperature": 85.0 - 1.0 * p,
                                "busy": 90.0})])
        assert d.fired == []


class TestRunqueueStarvation:
    def test_runnable_but_never_running(self, driver):
        d = driver()
        for _ in range(9):  # full window of R state, no CPU accrual
            d.period(lwps=[(5, {"state": "R"}, [0])])
        starved = [f for f in d.fired if f.code == "runqueue-starvation"]
        assert len(starved) == 1
        assert starved[0].entity == "lwp:5"

    def test_running_thread_is_quiet(self, driver):
        d = driver()
        for p in range(1, 10):
            d.period(lwps=[(5, {"state": "R", "utime": 10.0 * p}, [0])])
        assert all(f.code != "runqueue-starvation" for f in d.fired)

    def test_sleeping_thread_is_quiet(self, driver):
        d = driver()
        for _ in range(9):
            d.period(lwps=[(5, {"state": "S"}, [0])])
        assert d.fired == []


class TestIoStall:
    def test_stuck_in_d_with_frozen_counters(self, driver):
        d = driver()
        for _ in range(9):
            d.period(lwps=[(6, {"state": "D"}, [0])],
                     mem={"io_read": 500.0, "io_write": 500.0})
        stalls = [f for f in d.fired if f.code == "io-stall"]
        assert len(stalls) == 1
        assert stalls[0].entity == "lwp:6"

    def test_advancing_io_counters_suppress(self, driver):
        d = driver()
        for p in range(1, 10):
            d.period(lwps=[(6, {"state": "D"}, [0])],
                     mem={"io_read": 500.0 * p, "io_write": 0.0})
        assert all(f.code != "io-stall" for f in d.fired)
