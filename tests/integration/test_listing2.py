"""Integration reproduction of Listing 2: the GPU-offload report."""

import pytest

from tests.helpers import run_miniqmc
from repro.core import analyze, build_report
from repro.reproduce import LISTING2_CMD


@pytest.fixture(scope="module")
def step():
    return run_miniqmc(LISTING2_CMD, blocks=10, offload=True, seed=2)


@pytest.fixture(scope="module")
def report(step):
    return build_report(step.monitors[0])


class TestProcessSummary:
    def test_rank0_layout(self, report):
        assert report.rank == 0
        assert report.cpus_allowed.to_list() == "1-7"

    def test_duration_line(self, report):
        assert report.render().startswith("Duration of execution:")


class TestLwpTable:
    def test_walkers_on_alternating_cores(self, report):
        """4 spread threads over 7 core places: cores 1, 3, 5, 7 —
        exactly Listing 2's Main@1 and OpenMP@3,5,7."""
        main = report.lwp_by_kind("Main")[0]
        assert list(main.cpus) == [1]
        omp_cores = sorted(
            row.cpus[0] for row in report.lwp_rows if row.kind == "OpenMP"
        )
        assert omp_cores == [3, 5, 7]

    def test_zerosum_thread_row(self, report):
        zs = report.lwp_by_kind("ZeroSum")[0]
        assert list(zs.cpus) == [7]
        assert zs.utime_pct < 5.0

    def test_offload_threads_show_system_time(self, report):
        """Kernel launches/transfers put walker threads in syscalls."""
        for row in report.lwp_rows:
            if "OpenMP" in row.kind:
                assert row.stime_pct > 1.0


class TestHardwareSummary:
    def test_even_cores_idle(self, report):
        """Listing 2: CPUs 2, 4, 6 ~99.8% idle (no thread bound there)."""
        idle = {r.cpu: r.idle_pct for r in report.hwt_rows}
        for cpu in (2, 4, 6):
            assert idle[cpu] > 95.0

    def test_walker_cores_partially_idle(self, report):
        """Walker cores idle while blocked on the GPU (paper: ~22.7%)."""
        busy_cores = {r.cpu: r for r in report.hwt_rows}
        for cpu in (1, 3, 5):
            assert busy_cores[cpu].idle_pct > 10.0
            assert busy_cores[cpu].system_pct > 1.0


class TestGpuTable:
    def test_rank0_sees_one_visible_gpu(self, step, report):
        assert list(report.gpu_stats) == [0]
        # visible index 0 maps to physical GCD 4 (NUMA 0, Figure 2)
        assert step.contexts[0].gpus[0].info.physical_index == 4

    def test_metric_rows_match_listing(self, report):
        labels = [s.label for s in report.gpu_stats[0]]
        assert labels == [
            "Clock Frequency, GLX (MHz)",
            "Clock Frequency, SOC (MHz)",
            "Device Busy %",
            "Energy Average (J)",
            "GFX Activity",
            "GFX Activity %",
            "Memory Activity",
            "Memory Busy %",
            "Memory Controller Activity",
            "Power Average (W)",
            "Temperature (C)",
            "UVD|VCN Activity",
            "Used GTT Bytes",
            "Used VRAM Bytes",
            "Used Visible VRAM Bytes",
            "Voltage (mV)",
        ]

    def test_clock_range(self, report):
        clock = report.gpu_stats[0][0]
        assert clock.minimum >= 799.0
        assert clock.maximum <= 1701.0
        assert clock.minimum < clock.maximum

    def test_device_busy_intermittent(self, report):
        """Listing 2: busy min 0, avg ~14.6, max ~52: bursty offload."""
        busy = [s for s in report.gpu_stats[0] if s.label == "Device Busy %"][0]
        assert busy.minimum < 5.0
        assert busy.maximum > 20.0
        assert busy.minimum < busy.average < busy.maximum

    def test_power_and_temperature_ranges(self, report):
        power = [s for s in report.gpu_stats[0] if "Power" in s.label][0]
        temp = [s for s in report.gpu_stats[0] if "Temperature" in s.label][0]
        assert 85.0 <= power.minimum <= power.maximum <= 145.0
        assert 30.0 <= temp.minimum <= temp.maximum <= 45.0

    def test_vram_reflects_walker_buffers(self, report):
        vram = [s for s in report.gpu_stats[0] if s.label == "Used VRAM Bytes"][0]
        assert vram.maximum - vram.minimum >= 4 * 512 * 1024**2 * 0.9

    def test_soc_clock_constant(self, report):
        soc = report.gpu_stats[0][1]
        assert soc.minimum == soc.maximum == 1090.0


class TestContentionOnOffload:
    def test_undersubscription_finding(self, step):
        codes = {f.code for f in analyze(step.monitors[0]).findings}
        assert "undersubscription" in codes
