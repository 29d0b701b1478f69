"""Time-series assembly (Figures 6-7) tests."""

import numpy as np
import pytest

from tests.helpers import run_miniqmc
from repro.analysis import (
    all_hwt_series,
    all_lwp_series,
    hwt_series,
    lwp_series,
)
from repro.errors import MonitorError

T3_CMD = ("OMP_NUM_THREADS=7 OMP_PROC_BIND=spread OMP_PLACES=cores "
          "srun -n8 -c7 zerosum-mpi miniqmc")


@pytest.fixture(scope="module")
def monitor():
    step = run_miniqmc(T3_CMD, blocks=12, block_jiffies=60)
    return step.monitors[0]


class TestLwpSeries:
    def test_busy_thread_high_user(self, monitor):
        pid = monitor.process.pid
        series = lwp_series(monitor, pid)
        assert series.mean_user() > 70.0
        assert len(series) >= 5

    def test_idle_helper_low_user(self, monitor):
        other = [t for t in monitor.observed_tids()
                 if monitor.classify(t) == "Other"][0]
        series = lwp_series(monitor, other)
        assert series.mean_user() < 2.0

    def test_stacked_sums_to_100(self, monitor):
        pid = monitor.process.pid
        s = lwp_series(monitor, pid)
        total = s.user_pct + s.system_pct + s.idle_pct
        assert np.all(total <= 100.0 + 1e-6)
        assert np.all(total >= 0.0)

    def test_label_includes_kind(self, monitor):
        s = lwp_series(monitor, monitor.process.pid)
        assert "Main" in s.label

    def test_needs_two_samples(self, monitor):
        from repro.core.records import LWP_COLUMNS, SeriesBuffer

        monitor_copy_series = SeriesBuffer(LWP_COLUMNS)
        monitor_copy_series.append((0,) * len(LWP_COLUMNS))
        monitor.lwp_series[999999] = monitor_copy_series
        with pytest.raises(MonitorError):
            lwp_series(monitor, 999999)
        del monitor.lwp_series[999999]

    def test_noisiness_metric(self, monitor):
        s = lwp_series(monitor, monitor.process.pid)
        assert s.noisiness() >= 0.0


class TestHwtSeries:
    def test_busy_cpu(self, monitor):
        s = hwt_series(monitor, 1)
        assert s.user_pct.mean() > 60.0

    def test_stacked_sums_near_100(self, monitor):
        s = hwt_series(monitor, 3)
        total = s.user_pct + s.system_pct + s.idle_pct
        assert np.allclose(total, 100.0, atol=8.0)

    def test_all_series(self, monitor):
        lwps = all_lwp_series(monitor)
        hwts = all_hwt_series(monitor)
        assert len(lwps) == 9
        assert len(hwts) == 7


class TestDegenerateIntervals:
    """Duplicated or regressed ticks must not fabricate utilization."""

    def test_duplicated_tick_rows_are_dropped(self):
        from repro.analysis.timeseries import _differences

        ticks = np.array([0.0, 100.0, 100.0, 200.0])
        utime = np.array([0.0, 50.0, 60.0, 120.0])
        kept, dt, (du,) = _differences(ticks, utime)
        assert kept.tolist() == [0.0, 100.0, 200.0]
        assert dt.tolist() == [100.0, 100.0]
        # rates over the *kept* rows: 50% then 70% — the old one-tick
        # clamp reported a 1000%+ spike for the duplicated interval
        assert (100.0 * du / dt).tolist() == [50.0, 70.0]

    def test_regressed_tick_rows_are_dropped(self):
        from repro.analysis.timeseries import _differences

        ticks = np.array([0.0, 100.0, 90.0, 200.0])
        utime = np.array([0.0, 50.0, 55.0, 120.0])
        kept, dt, (du,) = _differences(ticks, utime)
        assert kept.tolist() == [0.0, 100.0, 200.0]
        assert np.all(dt > 0.0)

    def test_all_duplicate_ticks_raise(self):
        from repro.analysis.timeseries import _differences

        with pytest.raises(MonitorError):
            _differences(np.array([50.0, 50.0, 50.0]),
                         np.array([0.0, 1.0, 2.0]))

    def test_replayed_period_never_spikes_past_100(self, monitor):
        """A journal replay of the torn tail repeats the last period;
        the assembled series must stay physical (≤100% per thread)."""
        from repro.core.records import LWP_COLUMNS, SeriesBuffer

        pid = monitor.process.pid
        original = monitor.lwp_series[pid]
        replayed = SeriesBuffer(LWP_COLUMNS)
        rows = original.array
        for row in rows:
            replayed.append(row)
        replayed.append(rows[-1])  # torn-tail duplicate
        monitor.lwp_series[pid] = replayed
        try:
            s = lwp_series(monitor, pid)
        finally:
            monitor.lwp_series[pid] = original
        assert np.all(s.user_pct + s.system_pct <= 100.0 + 1e-6)
        baseline = lwp_series(monitor, pid)
        assert len(s) == len(baseline)
