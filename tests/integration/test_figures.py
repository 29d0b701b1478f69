"""Integration reproduction of Figures 5-8 (shapes)."""

import numpy as np
import pytest

from tests.helpers import run_miniqmc
from repro.analysis import (
    all_hwt_series,
    all_lwp_series,
    compare_distributions,
    lwp_series,
)
from repro.apps import PicConfig, pic_app
from repro.core import ZeroSumConfig, merge_monitors, zerosum_mpi
from repro.launch import SrunOptions, launch_job
from repro.reproduce import PIC_CMD, T3_CMD, TWO_PER_CORE_CMD
from repro.topology import frontier_node


class TestFigure5Heatmap:
    """512-rank gyrokinetic PIC nearest-neighbour heatmap."""

    @pytest.fixture(scope="class")
    def matrix(self):
        # 512 ranks over 10 Frontier nodes (56 usable cores each)
        nodes = [frontier_node(name=f"frontier{i:05d}") for i in range(10)]
        step = launch_job(
            nodes,
            SrunOptions.parse(PIC_CMD),
            pic_app(PicConfig(steps=3)),
            monitor_factory=zerosum_mpi(
                ZeroSumConfig(collect_hwt=False, collect_gpu=False,
                              collect_memory=False)
            ),
        )
        step.run()
        step.finalize()
        return merge_monitors(step.monitors)

    def test_512_ranks(self, matrix):
        assert matrix.size == 512

    def test_strong_diagonal(self, matrix):
        """'a strong nearest-neighbor pattern along the central diagonal'"""
        assert matrix.diagonal_dominance(band=1) > 0.9

    def test_secondary_band_exists(self, matrix):
        cfg = PicConfig()
        band = matrix.bytes[np.arange(512), (np.arange(512) + cfg.shift_distance) % 512]
        assert band.sum() > 0

    def test_every_rank_participates(self, matrix):
        assert (matrix.bytes.sum(axis=1) > 0).all()
        assert (matrix.bytes.sum(axis=0) > 0).all()

    def test_binned_render(self, matrix):
        text = matrix.render(bins=64)
        assert len(text.splitlines()) == 65


@pytest.fixture(scope="module")
def t3_long():
    return run_miniqmc(T3_CMD, blocks=15, block_jiffies=60, jitter=0.02, seed=5)


class TestFigure6LwpTimeSeries:
    def test_series_per_thread(self, t3_long):
        series = all_lwp_series(t3_long.monitors[0])
        assert len(series) == 9

    def test_busy_threads_high_flat(self, t3_long):
        zs = t3_long.monitors[0]
        s = lwp_series(zs, zs.process.pid)
        assert s.mean_user() > 70.0

    def test_noise_visible(self, t3_long):
        """Figure 6 'is rather noisy' — jiffy-granular /proc sampling
        cannot be perfectly smooth."""
        zs = t3_long.monitors[0]
        s = lwp_series(zs, zs.process.pid)
        assert s.noisiness() > 0.0

    def test_monitor_thread_mostly_idle(self, t3_long):
        zs = t3_long.monitors[0]
        s = lwp_series(zs, zs.monitor_lwp.tid)
        assert s.idle_pct.mean() > 90.0


class TestFigure7HwtTimeSeries:
    def test_all_seven_cores(self, t3_long):
        series = all_hwt_series(t3_long.monitors[0])
        assert len(series) == 7

    def test_cores_busy_through_run(self, t3_long):
        for s in all_hwt_series(t3_long.monitors[0]):
            assert s.user_pct.mean() > 60.0

    def test_stack_sums_to_100(self, t3_long):
        for s in all_hwt_series(t3_long.monitors[0]):
            total = s.user_pct + s.system_pct + s.idle_pct
            assert np.allclose(total, 100.0, atol=10.0)


class TestFigure8Overhead:
    """10 runs with and without ZeroSum, 1 and 2 threads per core."""

    @staticmethod
    def _runtimes(cmd, monitored, n, threads_per_core=1):
        out = []
        for seed in range(n):
            step = run_miniqmc(
                cmd, blocks=5, block_jiffies=40, jitter=0.01,
                seed=seed, monitor=monitored,
            )
            out.append(step.duration_seconds)
        return out

    ONE_PER_CORE = T3_CMD
    TWO_PER_CORE = TWO_PER_CORE_CMD

    def test_one_thread_per_core_no_significant_overhead(self):
        base = self._runtimes(self.ONE_PER_CORE, False, 8)
        with_zs = self._runtimes(self.ONE_PER_CORE, True, 8)
        result = compare_distributions(base, with_zs)
        assert abs(result.mean_overhead_percent) < 1.0

    def test_two_threads_per_core_small_overhead(self):
        base = self._runtimes(self.TWO_PER_CORE, False, 8)
        with_zs = self._runtimes(self.TWO_PER_CORE, True, 8)
        result = compare_distributions(base, with_zs)
        # overhead exists but stays under the paper's 0.5 % bound
        assert 0.0 <= result.mean_overhead_percent < 0.5

    def test_overhead_scales_with_sampling_cost(self):
        """Sanity: a deliberately expensive monitor is visible."""
        base = self._runtimes(self.TWO_PER_CORE, False, 5)
        heavy = []
        for seed in range(5):
            step = run_miniqmc(
                self.TWO_PER_CORE, blocks=5, block_jiffies=40,
                jitter=0.01, seed=seed,
                zs_config=ZeroSumConfig(period_seconds=0.1,
                                        sample_cost_jiffies=2.0),
            )
            heavy.append(step.duration_seconds)
        result = compare_distributions(base, heavy)
        assert result.mean_overhead_percent > 0.5
