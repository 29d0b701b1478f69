"""EntityHistory: the bounded per-entity feature window."""

import pytest

from repro.detect import EntityHistory, OnlineDetector

HZ = 100.0


def make(window=8, names=("a", "b")):
    return EntityHistory(window, names)


def fill(history, pairs):
    for tick, values in pairs:
        history.push(tick, values)


class TestWindow:
    def test_bounded_at_window(self):
        h = make(window=4, names=("a",))
        fill(h, [(float(t), [float(t)]) for t in range(10)])
        assert len(h) == 4
        assert list(h.ticks) == [6.0, 7.0, 8.0, 9.0]
        assert list(h.metrics["a"]) == [6.0, 7.0, 8.0, 9.0]

    def test_full_flag(self):
        h = make(window=4, names=("a",))
        assert not h.full
        fill(h, [(float(t), [0.0]) for t in range(4)])
        assert h.full

    def test_span_needs_two_samples(self):
        h = make()
        h.push(5.0, [1.0, 2.0])
        assert h.span_ticks == 0.0
        h.push(9.0, [1.0, 2.0])
        assert h.span_ticks == 4.0

    def test_metrics_alias_push_order(self):
        h = make(names=("x", "y"))
        h.push(1.0, [10.0, 20.0])
        assert h.last("x") == 10.0
        assert h.last("y") == 20.0


class TestFeatures:
    def test_delta_and_rate(self):
        h = make(names=("c",))
        fill(h, [(0.0, [0.0]), (10.0, [5.0]), (20.0, [12.0])])
        assert h.delta("c") == 12.0

    def test_delta_of_short_series_is_zero(self):
        h = make(names=("c",))
        h.push(0.0, [3.0])
        assert h.delta("c") == 0.0

    def test_slope_of_linear_series(self):
        h = make(names=("c",))
        # value climbs 2 per jiffy = 200 per second at 100 Hz
        fill(h, [(float(t), [2.0 * t]) for t in range(6)])
        assert h.slope("c", HZ) == pytest.approx(200.0)

    def test_slope_needs_three_points(self):
        h = make(names=("c",))
        fill(h, [(0.0, [0.0]), (1.0, [5.0])])
        assert h.slope("c", HZ) == 0.0

    def test_ewma_seeds_at_oldest(self):
        h = make(names=("c",))
        h.push(0.0, [10.0])
        assert h.ewma("c") == 10.0
        h.push(1.0, [20.0])
        assert h.ewma("c") == pytest.approx(10.0 + 0.3 * 10.0)

    def test_frac_and_frac_eq(self):
        h = make(names=("s",))
        fill(h, [(float(t), [float(t % 2)]) for t in range(8)])
        assert h.frac_eq("s", 0.0) == pytest.approx(0.5)

    def test_busy_pct(self):
        h = make(names=("utime", "stime"))
        # 6 + 2 = 8 jiffies of CPU over a 10-jiffy window = 80 %
        fill(h, [(0.0, [0.0, 0.0]), (10.0, [6.0, 2.0])])
        assert h.busy_pct(HZ) == pytest.approx(80.0)

    def test_busy_pct_short_series_is_zero(self):
        h = make(names=("utime", "stime"))
        h.push(0.0, [5.0, 5.0])
        assert h.busy_pct(HZ) == 0.0


class TestDetectorConstruction:
    def test_window_floor(self):
        with pytest.raises(ValueError):
            OnlineDetector(hz=HZ, window=3)

    def test_minimum_window_accepted(self):
        assert OnlineDetector(hz=HZ, window=4).window == 4
