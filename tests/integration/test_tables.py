"""Integration reproduction of the paper's Tables 1-3 and §4 runtimes.

Shape assertions, not absolute numbers: who is starved, who is bound
where, which configuration wins, and by how many orders of magnitude
context switches differ.
"""

import pytest

from tests.helpers import run_miniqmc
from repro.core import analyze, build_report
from repro.reproduce import T1_CMD, T2_CMD, T3_CMD

BLOCKS, BJ = 12, 80.0


@pytest.fixture(scope="module")
def t1():
    return run_miniqmc(T1_CMD, blocks=BLOCKS, block_jiffies=BJ, seed=3)


@pytest.fixture(scope="module")
def t2():
    return run_miniqmc(T2_CMD, blocks=BLOCKS, block_jiffies=BJ, seed=3)


@pytest.fixture(scope="module")
def t3():
    return run_miniqmc(T3_CMD, blocks=BLOCKS, block_jiffies=BJ, seed=3)


class TestTable1DefaultConfig:
    def test_nine_lwps(self, t1):
        report = build_report(t1.monitors[0])
        assert len(report.lwp_rows) == 9

    def test_all_compute_threads_on_core_1(self, t1):
        """Default srun -n8: everything bound to the first usable core."""
        report = build_report(t1.monitors[0])
        for row in report.lwp_rows:
            if "OpenMP" in row.kind or row.kind == "ZeroSum":
                assert list(row.cpus) == [1]

    def test_starved_utilization(self, t1):
        """9 threads share one core: each sees ~1/7 of it (paper: 13-15)."""
        report = build_report(t1.monitors[0])
        for row in report.lwp_rows:
            if "OpenMP" in row.kind:
                assert 8.0 < row.utime_pct < 20.0

    def test_huge_nvctx(self, t1):
        report = build_report(t1.monitors[0])
        omp = [r.nv_ctx for r in report.lwp_rows if "OpenMP" in r.kind]
        assert min(omp) > 100

    def test_helper_thread_unbound(self, t1):
        report = build_report(t1.monitors[0])
        other = report.lwp_by_kind("Other")[0]
        assert len(other.cpus) == 112  # 1-7,9-15,...,121-127
        assert other.nv_ctx == 0

    def test_core_fully_busy(self, t1):
        report = build_report(t1.monitors[0])
        cpu1 = [r for r in report.hwt_rows if r.cpu == 1][0]
        assert cpu1.idle_pct < 5.0


class TestTable2SevenCores:
    def test_threads_unbound_across_seven_cores(self, t2):
        report = build_report(t2.monitors[0])
        for row in report.lwp_rows:
            if row.kind == "OpenMP":
                assert row.cpus.to_list() == "1-7"

    def test_high_utilization(self, t2):
        report = build_report(t2.monitors[0])
        for row in report.lwp_rows:
            if "OpenMP" in row.kind:
                assert row.utime_pct > 80.0

    def test_low_nvctx(self, t2):
        report = build_report(t2.monitors[0])
        omp = sorted(r.nv_ctx for r in report.lwp_rows if "OpenMP" in r.kind)
        assert omp[0] <= 5  # most threads essentially unpreempted
        assert omp[-1] < 150  # even the ZeroSum-sharing one stays low

    def test_threads_migrated(self, t2):
        """Paper: the OpenMP threads were all migrated at least once."""
        proc = t2.processes[0]
        migrated = [t for t in proc.threads.values() if t.migrations > 0]
        assert len(migrated) >= 3

    def test_speedup_over_default(self, t1, t2):
        """Paper: 63.67 s -> 27.33 s.  Shape: at least 2x faster."""
        assert t1.duration_seconds / t2.duration_seconds > 2.0


class TestTable3BoundSpread:
    def test_one_thread_per_core(self, t3):
        report = build_report(t3.monitors[0])
        cores = sorted(
            row.cpus[0]
            for row in report.lwp_rows
            if "OpenMP" in row.kind
        )
        assert cores == [1, 2, 3, 4, 5, 6, 7]

    def test_no_migrations(self, t3):
        proc = t3.processes[0]
        team = [t for t in proc.threads.values()
                if len(t.affinity) == 1 and t.total_jiffies > 10]
        assert all(t.migrations == 0 for t in team)

    def test_only_zerosum_sharing_thread_preempted(self, t3):
        """Paper Table 3: nv_ctx 0 everywhere except the thread that
        shares core 7 with the ZeroSum monitor (208 there)."""
        report = build_report(t3.monitors[0])
        zs_core = 7
        for row in report.lwp_rows:
            if row.kind != "OpenMP":
                continue
            if list(row.cpus) == [zs_core]:
                assert row.nv_ctx > 0
            else:
                assert row.nv_ctx <= 2

    def test_runtime_close_to_table2(self, t2, t3):
        """Paper: 27.33 s vs 27.40 s — binding neither helps nor hurts
        at this scale."""
        ratio = t3.duration_seconds / t2.duration_seconds
        assert 0.9 < ratio < 1.1

    def test_clean_contention_report(self, t3):
        assert analyze(t3.monitors[0]).findings == []

    def test_table1_flags_all_pathologies(self, t1):
        codes = {f.code for f in analyze(t1.monitors[0]).findings}
        assert {"oversubscription", "time-slicing", "affinity-overlap"} <= codes


class TestCrossRankConsistency:
    def test_all_ranks_report(self, t3):
        assert len(t3.monitors) == 8
        for monitor in t3.monitors:
            report = build_report(monitor)
            assert len(report.lwp_rows) == 9

    def test_ranks_on_distinct_l3_regions(self, t3):
        allowed = [m.initial.cpus_allowed.to_list() for m in t3.monitors]
        assert allowed == [
            "1-7", "9-15", "17-23", "25-31", "33-39", "41-47", "49-55", "57-63"
        ]
