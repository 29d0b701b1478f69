"""Fault containment: injection, rollback watermarks, and the ledger.

The §3.1 always-on promise made testable: under seeded ``FaultyProc``
injection (missing files, EACCES, garbage text) the engine never
raises out of ``sample()``, never commits a torn period, and every
containment decision is recorded with tick and reason — against both
the simulated and materialized-real substrates and both sampling
tiers.
"""

import errno

import numpy as np
import pytest

from repro.collect import (
    CollectionEngine,
    FaultPolicy,
    FaultyProc,
    HwtCollector,
    LwpCollector,
    MemoryCollector,
    SampleStore,
    classify_failure,
    replay_log,
)
from repro.collect.faults import PERMANENT, TRANSIENT, is_missing
from repro.core.heartbeat import ThreadSnapshot, heartbeat_line
from repro.core.records import HWT_COLUMNS, LWP_COLUMNS, PeriodBlock
from repro.errors import MonitorError, ProcessVanishedError, ProcFSError
from repro.kernel import Compute, SimKernel, Sleep
from repro.procfs import ProcFS
from repro.topology import CpuSet, generic_node


@pytest.fixture
def world():
    kernel = SimKernel(generic_node(cores=2))

    def main():
        yield Compute(12, user_frac=0.8)
        yield Sleep(5)
        yield Compute(40)

    proc = kernel.spawn_process(
        kernel.nodes[0], CpuSet([0, 1]), main(), command="demo"
    )

    def worker():
        yield Compute(30)

    kernel.spawn_thread(proc, worker(), name="w")
    kernel.run(max_ticks=8)  # stop mid-run so every thread is alive
    fs = ProcFS(kernel, kernel.nodes[0], self_pid=proc.pid)
    return kernel, proc, fs


def materialize(fs: ProcFS, pid: int, root):
    """Copy the rendered /proc files a monitor touches to a real tree."""
    from repro.collect import RealProc

    for name in ("stat", "meminfo", "uptime"):
        (root / name).write_text(fs.read(f"/proc/{name}"))
    piddir = root / str(pid)
    piddir.mkdir()
    for name in ("stat", "status", "io"):
        (piddir / name).write_text(fs.read(f"/proc/{pid}/{name}"))
    for tid in fs.listdir(f"/proc/{pid}/task"):
        taskdir = piddir / "task" / tid
        taskdir.mkdir(parents=True)
        for name in ("stat", "status"):
            (taskdir / name).write_text(
                fs.read(f"/proc/{pid}/task/{tid}/{name}")
            )
    return RealProc(root)


def make_engine(reader, pid, *, snapshots=True, policy=None, gpu=None):
    store = SampleStore()
    collectors = [
        LwpCollector(
            reader, store, pid, missing_process="ignore", snapshots=snapshots
        ),
        HwtCollector(reader, store, [0, 1], snapshots=snapshots),
        MemoryCollector(reader, store, pid, snapshots=snapshots),
    ]
    if gpu is not None:
        collectors.append(gpu)
    return CollectionEngine(store, collectors, policy=policy)


def lwp_row(tick: float, utime: float = 0.0) -> tuple:
    row = [0.0] * len(LWP_COLUMNS)
    row[0], row[2] = tick, utime
    return tuple(row)


# ---------------------------------------------------------------------------
class TestClassification:
    def test_missing_is_transient(self):
        assert classify_failure(ProcFSError("gone")) == TRANSIENT
        assert (
            classify_failure(ProcFSError("gone", errno=errno.ENOENT))
            == TRANSIENT
        )
        assert (
            classify_failure(ProcFSError("gone", errno=errno.ESRCH))
            == TRANSIENT
        )

    def test_io_hiccup_is_transient(self):
        assert (
            classify_failure(ProcFSError("eio", errno=errno.EIO)) == TRANSIENT
        )

    def test_permissions_are_permanent(self):
        for eno in (errno.EACCES, errno.EPERM):
            assert classify_failure(ProcFSError("denied", errno=eno)) == PERMANENT

    def test_parse_errors_are_permanent(self):
        assert classify_failure(ValueError("bad int")) == PERMANENT
        assert classify_failure(IndexError("short stat")) == PERMANENT

    def test_is_missing_distinguishes_denied(self):
        assert is_missing(ProcFSError("x"))
        assert is_missing(ProcFSError("x", errno=errno.ENOENT))
        assert not is_missing(ProcFSError("x", errno=errno.EACCES))
        assert not is_missing(ValueError("x"))


class TestRealProcErrno:
    """RealProc must not collapse every OSError into 'no such file'."""

    def test_enoent_preserved(self, tmp_path):
        from repro.collect import RealProc

        with pytest.raises(ProcFSError) as exc_info:
            RealProc(tmp_path).read("/proc/nope")
        assert exc_info.value.errno == errno.ENOENT
        assert "no such file" in str(exc_info.value)

    def test_eacces_reported_as_denied(self, tmp_path):
        import os as _os

        from repro.collect import RealProc

        target = tmp_path / "secret"
        target.write_text("data")
        target.chmod(0o000)
        if _os.access(target, _os.R_OK):  # running as root: cannot deny
            pytest.skip("permissions not enforced for this user")
        with pytest.raises(ProcFSError) as exc_info:
            RealProc(tmp_path).read("/proc/secret")
        assert exc_info.value.errno == errno.EACCES
        assert "no such file" not in str(exc_info.value)

    def test_listdir_enoent_preserved(self, tmp_path):
        from repro.collect import RealProc

        with pytest.raises(ProcFSError) as exc_info:
            RealProc(tmp_path).listdir("/proc/123/task")
        assert exc_info.value.errno == errno.ENOENT

    @pytest.mark.parametrize(
        "eno, shape",
        [
            (errno.ENOENT, "no such file: /proc/x"),
            (errno.ESRCH, "no such file: /proc/x"),
            (errno.EACCES, "Permission denied: /proc/x"),
        ],
    )
    def test_errno_and_message_shape_through_wrap(
        self, tmp_path, monkeypatch, eno, shape
    ):
        """Whichever system call fails, ``_wrap`` sees its errno."""
        import os

        from repro.collect import RealProc

        def failing_read(fd, n):
            raise OSError(eno, os.strerror(eno))

        (tmp_path / "x").write_text("data")
        with monkeypatch.context() as patched:
            patched.setattr(os, "read", failing_read)
            with pytest.raises(ProcFSError) as exc_info:
                RealProc(tmp_path).read("/proc/x")
        assert exc_info.value.errno == eno
        assert str(exc_info.value) == shape

    def test_reading_a_directory_is_eisdir_and_leaks_no_descriptor(
        self, tmp_path
    ):
        """open() succeeds on a directory, read() fails: close anyway."""
        import os

        from repro.collect import RealProc

        (tmp_path / "7" / "task").mkdir(parents=True)
        before = len(os.listdir("/proc/self/fd"))
        for _ in range(50):
            with pytest.raises(ProcFSError) as exc_info:
                RealProc(tmp_path).read("/proc/7/task")
        assert exc_info.value.errno == errno.EISDIR
        assert str(exc_info.value) == "Is a directory: /proc/7/task"
        assert len(os.listdir("/proc/self/fd")) == before

    def test_file_larger_than_one_read_chunk_comes_back_whole(self, tmp_path):
        """/proc/stat of a 512-CPU node: > 64 KiB, several os.read calls."""
        from repro.collect import RealProc
        from repro.collect.reader import _READ_CHUNK
        from repro.procfs.parsers import parse_proc_stat

        lines = ["cpu  " + " ".join(["123456789012"] * 10)]
        lines += [
            f"cpu{n} " + " ".join([f"{n}{field:011d}" for field in range(10)])
            for n in range(512)
        ]
        text = "\n".join(lines) + "\nintr 1 2 3\n"
        assert len(text) > _READ_CHUNK
        (tmp_path / "stat").write_text(text)
        got = RealProc(tmp_path).read("/proc/stat")
        assert got == text
        assert len(parse_proc_stat(got)) == 513

    @pytest.mark.parametrize(
        "path",
        [
            "/proc/../etc/passwd",
            "/proc/1/../../etc/passwd",
            "/proc/..",
            "//proc/x",
            "/procfs/x",
            "proc/x",
            "/etc/passwd",
            "",
        ],
    )
    def test_paths_outside_proc_are_rejected_typed(self, tmp_path, path):
        from repro.collect import RealProc

        (tmp_path / "root").mkdir()
        (tmp_path / "root" / "x").write_text("inside")
        (tmp_path / "etc").mkdir()
        (tmp_path / "etc" / "passwd").write_text("outside")
        reader = RealProc(tmp_path / "root")
        for call in (reader.read, reader.listdir):
            with pytest.raises(ProcFSError, match="not a /proc path") as exc_info:
                call(path)
            assert exc_info.value.errno is None

    def test_rerooted_tree_and_the_proc_directory_itself(self, tmp_path):
        from repro.collect import RealProc

        (tmp_path / "12" / "task" / "13").mkdir(parents=True)
        (tmp_path / "12" / "task" / "13" / "stat").write_text("13 (a..b) S")
        (tmp_path / "uptime").write_text("1.0 2.0\n")
        reader = RealProc(str(tmp_path))
        assert reader.root == tmp_path
        assert reader.listdir("/proc") == ["12", "uptime"]
        assert reader.listdir("/proc/12/task") == ["13"]
        # dots inside a name are not a ".." component
        assert reader.read("/proc/12/task/13/stat") == "13 (a..b) S"
        assert reader.read("/proc/uptime") == "1.0 2.0\n"


# ---------------------------------------------------------------------------
class TestStoreWatermark:
    def _store_state(self, store):
        return (
            {t: s.array.copy() for t, s in store.lwp_series.items()},
            dict(store.lwp_names),
            dict(store.lwp_affinity),
            store.mem_series.array.copy(),
        )

    def test_rollback_restores_everything(self):
        store = SampleStore()
        store.add_row("lwp", 1, lwp_row(1.0), name="main", affinity=CpuSet([0]))
        before = self._store_state(store)

        store.begin()
        store.add_row("lwp", 1, lwp_row(2.0), name="renamed", affinity=CpuSet([1]))
        store.add_row("lwp", 77, lwp_row(2.0), name="new")  # new series
        store.add_row("mem", 0, (2.0, 0, 0, 0, 0, 0, 0))
        discarded = store.rollback()

        assert discarded == 3
        series, names, affinity, mem = self._store_state(store)
        np.testing.assert_array_equal(series[1], before[0][1])
        assert 77 not in store.lwp_series
        assert names == before[1]
        assert affinity == before[2]
        np.testing.assert_array_equal(mem, before[3])

    def test_release_keeps_rows(self):
        store = SampleStore()
        store.begin()
        store.add_row("lwp", 1, lwp_row(1.0))
        store.release()
        assert len(store.lwp_series[1]) == 1

    def test_nested_begin_rejected(self):
        store = SampleStore()
        store.begin()
        with pytest.raises(MonitorError):
            store.begin()
        store.release()
        with pytest.raises(MonitorError):
            store.release()
        with pytest.raises(MonitorError):
            store.rollback()


# ---------------------------------------------------------------------------
class TestFaultyProc:
    def test_deterministic_schedule(self, world):
        _, proc, fs = world

        def run(seed):
            faulty = FaultyProc(
                fs, seed=seed, missing_rate=0.2, garbage_rate=0.2
            )
            engine = make_engine(faulty, proc.pid, snapshots=False)
            for t in range(20):
                engine.sample(float(t))
            return [(i.call, i.op, i.path, i.kind) for i in faulty.injected]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_zero_rates_pass_through(self, world):
        _, proc, fs = world
        faulty = FaultyProc(fs, seed=1)
        path = f"/proc/{proc.pid}/stat"
        assert faulty.read(path) == fs.read(path)
        assert faulty.listdir(f"/proc/{proc.pid}/task") == fs.listdir(
            f"/proc/{proc.pid}/task"
        )
        assert faulty.injected == []

    def test_snapshot_tier_only_when_base_has_it(self, world, tmp_path):
        _, proc, fs = world
        tier = ("read_tasks_raw", "read_cpu_times_raw", "read_memory_raw")
        assert all(hasattr(FaultyProc(fs), attr) for attr in tier)
        real = materialize(fs, proc.pid, tmp_path)
        assert not any(hasattr(FaultyProc(real), attr) for attr in tier)

    def test_match_filter_scopes_injection(self, world):
        _, proc, fs = world
        faulty = FaultyProc(
            fs,
            seed=3,
            missing_rate=1.0,
            match=lambda p: p.endswith("/meminfo"),
        )
        assert faulty.read(f"/proc/{proc.pid}/stat")  # untouched
        with pytest.raises(ProcFSError):
            faulty.read("/proc/meminfo")


# ---------------------------------------------------------------------------
class _FlakyCollector:
    """Fails the first ``failures`` calls, then writes one row."""

    name = "FlakyCollector"

    def __init__(self, store, exc_factory, failures):
        self.store = store
        self.exc_factory = exc_factory
        self.failures = failures
        self.calls = 0

    def collect(self, tick):
        self.calls += 1
        self.store.add_row("lwp", 900, lwp_row(tick, utime=1.0))
        if self.calls <= self.failures:
            self.store.add_row("lwp", 901, lwp_row(tick))  # torn partial row
            raise self.exc_factory()
        return [ThreadSnapshot(tid=900, state="R", total_jiffies=1.0)]


class TestContainment:
    def test_transient_retried_within_period(self):
        store = SampleStore()
        flaky = _FlakyCollector(store, lambda: ProcFSError("gone"), failures=2)
        engine = CollectionEngine(
            store, [flaky], policy=FaultPolicy(max_retries=2)
        )
        snaps = engine.sample(1.0)
        assert [s.tid for s in snaps] == [900]
        assert flaky.calls == 3
        assert store.ledger.retries["FlakyCollector"] == 2
        assert store.ledger.failed_periods.get("FlakyCollector") is None
        # only the successful attempt's rows survive
        assert len(store.lwp_series[900]) == 1
        assert 901 not in store.lwp_series

    def test_permanent_not_retried_and_rolled_back(self):
        store = SampleStore()
        flaky = _FlakyCollector(store, lambda: ValueError("bug"), failures=99)
        engine = CollectionEngine(
            store, [flaky], policy=FaultPolicy(max_retries=5, disable_after=0)
        )
        assert engine.sample(1.0) == []
        assert flaky.calls == 1  # no retry for permanent failures
        assert store.lwp_series == {}  # the period is absent, never torn
        assert store.ledger.failed_periods["FlakyCollector"] == 1
        assert store.ledger.rolled_back_rows["FlakyCollector"] == 2
        event = store.ledger.events[-1]
        assert event.tick == 1.0 and event.failure_class == PERMANENT
        assert "bug" in event.reason

    def test_disable_after_consecutive_failures(self):
        store = SampleStore()
        flaky = _FlakyCollector(store, lambda: ValueError("bug"), failures=99)
        engine = CollectionEngine(
            store, [flaky], policy=FaultPolicy(max_retries=0, disable_after=3)
        )
        for t in range(6):
            engine.sample(float(t))
        assert flaky.calls == 3  # skipped once disabled
        assert store.ledger.is_disabled("FlakyCollector")
        event = store.ledger.disabled["FlakyCollector"]
        assert event.tick == 2.0
        assert "3 consecutive failed periods" in event.reason
        assert store.samples_taken == 6  # the engine itself kept going

    def test_success_resets_streak(self):
        store = SampleStore()
        flaky = _FlakyCollector(store, lambda: ProcFSError("gone"), failures=2)
        engine = CollectionEngine(
            store, [flaky], policy=FaultPolicy(max_retries=0, disable_after=3)
        )
        for t in range(5):
            engine.sample(float(t))
        assert not store.ledger.is_disabled("FlakyCollector")
        assert store.ledger.consecutive_failures.get("FlakyCollector") is None

    def test_one_bad_collector_never_blanks_the_others(self, world):
        _, proc, fs = world

        class DoomedCollector:
            name = "DoomedCollector"

            def collect(self, tick):
                raise ValueError("always broken")

        store = SampleStore()
        engine = CollectionEngine(
            store,
            [
                DoomedCollector(),
                LwpCollector(fs, store, proc.pid, missing_process="ignore"),
            ],
            policy=FaultPolicy(disable_after=2),
        )
        for t in range(4):
            snaps = engine.sample(float(t))
        assert snaps  # LWP data kept flowing
        assert store.ledger.is_disabled("DoomedCollector")
        assert len(store.lwp_series[proc.pid]) == 4

    def test_process_vanished_escapes_after_rollback(self):
        store = SampleStore()

        class VanishingCollector:
            name = "VanishingCollector"

            def collect(self, tick):
                store.add_row("lwp", 55, lwp_row(tick))
                raise ProcessVanishedError("process 1 vanished")

        engine = CollectionEngine(store, [VanishingCollector()])
        with pytest.raises(ProcessVanishedError):
            engine.sample(1.0)
        assert 55 not in store.lwp_series  # still no torn period

    def test_row_numpy_cannot_store_is_contained_whole(self):
        store = SampleStore()

        class TextMetricCollector:
            name = "TextMetricCollector"

            def collect(self, tick):
                store.add_row("hwt", 0, (tick,) + (0.0,) * (len(HWT_COLUMNS) - 1))
                bad = list(lwp_row(tick))
                bad[3] = "n/a"  # right width: only the apply step can tell
                store.add_row("lwp", 55, bad, name="main", affinity=CpuSet([0]))
                return []

        engine = CollectionEngine(
            store, [TextMetricCollector()], policy=FaultPolicy(disable_after=0)
        )
        assert engine.sample(1.0) == []
        assert (store.hwt_series, store.lwp_series, store.lwp_names) == ({}, {}, {})
        assert store.ledger.rolled_back_rows["TextMetricCollector"] == 2
        assert store.ledger.events[-1].failure_class == PERMANENT
        engine.commit(1.0, [])  # the bracket is closed, the block empty
        assert store.period == PeriodBlock()


# ---------------------------------------------------------------------------
def _tick_columns_consistent(series_map):
    """Per-subsystem wholeness: every key saw exactly the same ticks."""
    columns = [tuple(s.column("tick")) for s in series_map.values()]
    return len(set(columns)) <= 1


class TestInjectionSweep:
    """The acceptance sweep: seeded chaos, no raise, no torn periods."""

    RATES = dict(
        missing_rate=0.06,
        eacces_rate=0.04,
        garbage_rate=0.04,
        truncate_rate=0.04,
    )

    def _sweep(self, reader, pid, *, snapshots, periods=60):
        engine = make_engine(
            reader,
            pid,
            snapshots=snapshots,
            policy=FaultPolicy(max_retries=1, disable_after=10),
        )
        for t in range(periods):
            snaps = engine.sample(float(t))
            engine.commit(float(t), snaps)
        return engine.store

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("snapshots", [False, True])
    def test_simulated_substrate(self, world, seed, snapshots):
        _, proc, fs = world
        store = self._sweep(
            FaultyProc(fs, seed=seed, **self.RATES),
            proc.pid,
            snapshots=snapshots,
        )
        assert store.samples_taken == 60
        assert _tick_columns_consistent(store.hwt_series)
        assert store.ledger.degraded  # chaos did land somewhere
        lines = store.ledger.summary_lines()
        assert lines and any("tick" in ln for ln in lines)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_real_substrate(self, world, tmp_path, seed):
        _, proc, fs = world
        real = materialize(fs, proc.pid, tmp_path)
        store = self._sweep(
            FaultyProc(real, seed=seed, **self.RATES),
            proc.pid,
            snapshots=False,
        )
        assert store.samples_taken == 60
        assert _tick_columns_consistent(store.hwt_series)
        assert store.ledger.degraded

    def test_garbage_text_recorded_as_permanent(self, world):
        _, proc, fs = world
        faulty = FaultyProc(fs, seed=4, garbage_rate=0.5)
        store = self._sweep(faulty, proc.pid, snapshots=False, periods=20)
        assert any(
            e.failure_class == PERMANENT and "Error" in e.reason
            for e in store.ledger.events
        )

    def test_no_faults_is_bit_identical_to_bare_reader(self, world):
        _, proc, fs = world
        bare = make_engine(fs, proc.pid, snapshots=False)
        wrapped = make_engine(
            FaultyProc(fs, seed=9), proc.pid, snapshots=False
        )
        for t in range(10):
            bare.commit(float(t), bare.sample(float(t)))
            wrapped.commit(float(t), wrapped.sample(float(t)))
        a, b = bare.store, wrapped.store
        assert a.observed_tids() == b.observed_tids()
        for tid in a.observed_tids():
            np.testing.assert_array_equal(
                a.lwp_series[tid].array, b.lwp_series[tid].array
            )
        np.testing.assert_array_equal(a.mem_series.array, b.mem_series.array)
        assert not a.ledger.degraded and not b.ledger.degraded


# ---------------------------------------------------------------------------
class TestDeadThreadRace:
    """A tid vanishing between listdir and read drops only that row."""

    def _fault_one_thread(self, reader, victim_tid, pid):
        return FaultyProc(
            reader,
            seed=0,
            missing_rate=1.0,
            match=lambda p: f"/task/{victim_tid}/" in p,
        )

    @pytest.mark.parametrize("substrate", ["sim", "real"])
    def test_drop_counted_in_ledger(self, world, tmp_path, substrate):
        _, proc, fs = world
        reader = (
            fs if substrate == "sim" else materialize(fs, proc.pid, tmp_path)
        )
        tids = [int(t) for t in reader.listdir(f"/proc/{proc.pid}/task")]
        victim = tids[-1]
        store = SampleStore()
        collector = LwpCollector(
            self._fault_one_thread(reader, victim, proc.pid),
            store,
            proc.pid,
            missing_process="ignore",
            snapshots=False,
        )
        engine = CollectionEngine(store, [collector])
        snaps = engine.sample(3.0)
        surviving = [t for t in tids if t != victim]
        assert [s.tid for s in snaps] == surviving
        assert victim not in store.lwp_series
        assert store.ledger.dropped_rows["LwpCollector"] == 1
        event = store.ledger.events[-1]
        assert event.action == "dropped-row" and event.tick == 3.0
        assert str(victim) in event.reason

    def test_parser_bug_is_not_swallowed(self, world):
        """Garbage in a thread's stat is a failure, not a dead thread."""
        _, proc, fs = world
        tids = [int(t) for t in fs.listdir(f"/proc/{proc.pid}/task")]
        victim = tids[-1]
        faulty = FaultyProc(
            fs,
            seed=0,
            garbage_rate=1.0,
            match=lambda p: p.endswith(f"/task/{victim}/stat"),
        )
        store = SampleStore()
        engine = CollectionEngine(
            store,
            [
                LwpCollector(
                    faulty,
                    store,
                    proc.pid,
                    missing_process="ignore",
                    snapshots=False,
                )
            ],
            policy=FaultPolicy(max_retries=0, disable_after=0),
        )
        assert engine.sample(1.0) == []
        # rolled back whole: the readable threads are NOT half-recorded
        assert store.lwp_series == {}
        assert store.ledger.failed_periods["LwpCollector"] == 1
        assert store.ledger.dropped_rows.get("LwpCollector") is None

    @pytest.mark.parametrize(
        "fault, contained",
        [("garbage_rate", True), ("truncate_rate", True), ("eacces_rate", False)],
    )
    def test_memory_collector_io_unreadable_vs_unparsable(
        self, world, fault, contained
    ):
        """An unreadable ``io`` (it needs privileges) reads as 0/0; text
        that *was* readable and does not parse is a collector failure.
        A rule of the text tier: the snapshot read has no ``io`` file."""
        _, proc, fs = world
        faulty = FaultyProc(
            fs, seed=0, match=lambda p: p.endswith("/io"), **{fault: 1.0}
        )
        store = SampleStore()
        engine = CollectionEngine(
            store,
            [MemoryCollector(faulty, store, proc.pid, snapshots=False)],
            policy=FaultPolicy(max_retries=0, disable_after=0),
        )
        engine.sample(1.0)
        assert faulty.injected
        if contained:
            assert len(store.mem_series) == 0  # rolled back, not 0/0
            assert store.ledger.failed_periods["MemoryCollector"] == 1
            assert store.ledger.events[-1].failure_class == PERMANENT
        else:
            assert not store.ledger.degraded
            assert store.mem_series.last("io_read_kib") == 0
            assert store.mem_series.last("mem_total_kib") > 0


# ---------------------------------------------------------------------------
class TestDegradationSurfaces:
    def test_report_lists_disable_event_with_tick_and_reason(self):
        store = SampleStore()

        class DeniedSmi:
            def num_devices(self):
                raise ProcFSError("permission denied", errno=errno.EACCES)

        from repro.collect import GpuCollector, ReportBuilder

        engine = CollectionEngine(
            store,
            [GpuCollector(store, DeniedSmi())],
            policy=FaultPolicy(max_retries=0, disable_after=2),
        )
        for t in (410.0, 412.0, 420.0):
            engine.sample(t)
        report = ReportBuilder(store, baseline="first").build(
            duration_seconds=1.0,
            rank=None,
            pid=1,
            hostname="n",
            cpus_allowed=CpuSet([0]),
        )
        text = report.render()
        assert "Degradation Summary:" in text
        assert "tick 412: GpuCollector disabled" in text
        assert "permission denied" in text

    def test_clean_run_report_unchanged(self, world):
        from repro.collect import ReportBuilder

        _, proc, fs = world
        engine = make_engine(fs, proc.pid)
        engine.commit(5.0, engine.sample(5.0))
        report = ReportBuilder(
            engine.store, baseline="zero", duration_ticks=10.0
        ).build(
            duration_seconds=1.0,
            rank=None,
            pid=proc.pid,
            hostname="n",
            cpus_allowed=CpuSet([0, 1]),
        )
        assert report.degradation_notes == []
        assert "Degradation Summary:" not in report.render()

    def test_heartbeat_names_degradation(self):
        store = SampleStore()
        line = heartbeat_line(
            seconds=1.0, pid=7, threads=3, ledger=store.ledger
        )
        assert line == "[zerosum] t=1.0s pid=7 viable, 3 threads"
        store.ledger.record_disable("GpuCollector", 412.0, "permission denied")
        line = heartbeat_line(
            seconds=2.0, pid=7, threads=3, ledger=store.ledger
        )
        assert "viable" in line
        assert "GpuCollector disabled (permission denied)" in line

    def test_stream_event_carries_degradation(self):
        store = SampleStore()
        engine = CollectionEngine(store, [])
        store.ledger.record_dropped_row("LwpCollector", 1.0, "tid 9 died")
        store.ledger.record_disable("GpuCollector", 2.0, "absent SMI")
        event = engine.make_event(
            3.0,
            [],
            hz=100.0,
            hostname="h",
            pid=1,
            rank=None,
            monitor_tid=None,
            deadlock_suspected=False,
        )
        assert event.dropped_rows == 1
        assert event.disabled_collectors == ("GpuCollector",)

    def test_sim_monitor_report_and_replay_keep_degradation(self):
        """End to end: ZeroSum -> report -> log -> replay, notes intact."""
        from repro.core import ZeroSumConfig
        from repro.core.export import render_log
        from repro.core.monitor import ZeroSum
        from repro.core.reports import build_report
        from repro.kernel import SimKernel
        from repro.topology import generic_node

        kernel = SimKernel(generic_node(cores=2))

        def main():
            for _ in range(12):
                yield Compute(10)
                yield Sleep(2)

        proc = kernel.spawn_process(
            kernel.nodes[0], CpuSet([0, 1]), main(), command="app"
        )

        class BrokenGpu:
            """An SMI whose probe dies: the §3.4 absent-vendor case."""

            def num_devices(self):
                raise ProcFSError("permission denied", errno=errno.EACCES)

        zs = ZeroSum(
            kernel,
            proc,
            ZeroSumConfig(
                period_seconds=0.02,
                fault_retries=0,
                fault_disable_after=2,
                collect_gpu=False,
            ),
        )
        # splice in the broken GPU collector behind the config gate
        from repro.collect import GpuCollector

        zs.engine.collectors.append(GpuCollector(zs.store, BrokenGpu()))
        kernel.run(max_ticks=40)
        zs.finalize()

        report = build_report(zs)
        assert any(
            "GpuCollector" in note and "disabled" in note
            for note in report.degradation_notes
        )

        _, log = render_log(zs)
        replay = replay_log(log)
        rebuilt = replay.report()
        assert rebuilt.degradation_notes == report.degradation_notes
        assert "Degradation Summary:" in rebuilt.render()
