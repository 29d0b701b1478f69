"""ProcReader contract: the same collectors over both substrates.

The §3.1/§3.5 claim made testable: a simulated ``ProcFS`` and a
``RealProc`` over a materialized copy of the *same* ``/proc`` tree must
drive the collectors to byte-identical ``SampleStore`` contents.
"""

import errno

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.apps import MiniQmcConfig, miniqmc_app
from repro.collect import (
    CollectionEngine,
    FaultyProc,
    HwtCollector,
    LwpCollector,
    MemoryCollector,
    ProcReader,
    RealProc,
    SampleStore,
    SnapshotProcReader,
    read_cpu_times,
    read_meminfo,
    read_task,
)
from repro.collect.faults import TRANSIENT, classify_failure
from repro.errors import ProcFSError
from repro.kernel import Alloc, Compute, FileIo, Free, SimKernel, Sleep
from repro.launch import SrunOptions, launch_job
from repro.procfs import ProcFS
from repro.topology import CpuSet, frontier_node, generic_node, summit_node


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


def materialize(fs: ProcFS, pid: int, root) -> RealProc:
    """Copy the rendered /proc files a monitor touches into a real tree."""
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


def collect_all(reader, pid: int, cpus) -> SampleStore:
    store = SampleStore()
    snaps = LwpCollector(reader, store, pid).collect(100.0)
    HwtCollector(reader, store, cpus).collect(100.0)
    MemoryCollector(reader, store, pid).collect(100.0)
    store.commit(100.0, snaps)
    return store


class TestProtocol:
    def test_both_implementations_conform(self, world, tmp_path):
        _, proc, fs = world
        assert isinstance(fs, ProcReader)
        assert isinstance(materialize(fs, proc.pid, tmp_path), ProcReader)

    def test_non_proc_path_rejected(self, tmp_path):
        with pytest.raises(ProcFSError):
            RealProc(tmp_path).read("/etc/passwd")

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(ProcFSError):
            RealProc(tmp_path).read("/proc/stat")

    def test_missing_dir_raises(self, tmp_path):
        with pytest.raises(ProcFSError):
            RealProc(tmp_path).listdir("/proc/12345/task")

    def test_listdir_sorted_like_procfs(self, world, tmp_path):
        _, proc, fs = world
        real = materialize(fs, proc.pid, tmp_path)
        path = f"/proc/{proc.pid}/task"
        assert real.listdir(path) == fs.listdir(path)


class TestContract:
    """Same tree, either reader -> identical store contents."""

    def test_parsed_helpers_agree(self, world, tmp_path):
        _, proc, fs = world
        real = materialize(fs, proc.pid, tmp_path)
        assert read_task(fs, proc.pid, proc.pid) == read_task(
            real, proc.pid, proc.pid
        )
        assert read_cpu_times(fs) == read_cpu_times(real)
        assert read_meminfo(fs) == read_meminfo(real)

    def test_stores_identical(self, world, tmp_path):
        _, proc, fs = world
        real = materialize(fs, proc.pid, tmp_path)
        cpus = [0, 1]
        sim_store = collect_all(fs, proc.pid, cpus)
        real_store = collect_all(real, proc.pid, cpus)

        assert sim_store.observed_tids() == real_store.observed_tids()
        for tid in sim_store.observed_tids():
            np.testing.assert_array_equal(
                sim_store.lwp_series[tid].array,
                real_store.lwp_series[tid].array,
            )
        assert sim_store.lwp_names == real_store.lwp_names
        assert sim_store.lwp_affinity == real_store.lwp_affinity
        assert sorted(sim_store.hwt_series) == sorted(real_store.hwt_series)
        for cpu in sim_store.hwt_series:
            np.testing.assert_array_equal(
                sim_store.hwt_series[cpu].array,
                real_store.hwt_series[cpu].array,
            )
        np.testing.assert_array_equal(
            sim_store.mem_series.array, real_store.mem_series.array
        )
        assert sim_store.prev_totals == real_store.prev_totals

    def test_missing_process_policy(self, tmp_path):
        reader = RealProc(tmp_path)  # empty tree: no such process
        store = SampleStore()
        ignore = LwpCollector(reader, store, 999, missing_process="ignore")
        assert ignore.collect(1.0) == []
        assert store.observed_tids() == []
        with pytest.raises(ProcFSError):
            LwpCollector(reader, store, 999).collect(1.0)

    def test_dead_thread_race_skipped(self, world, tmp_path):
        """A tid listed but unreadable is skipped, not fatal."""
        _, proc, fs = world
        real = materialize(fs, proc.pid, tmp_path)
        ghost = tmp_path / str(proc.pid) / "task" / "424242"
        ghost.mkdir()  # directory exists, stat/status vanished
        store = SampleStore()
        snaps = LwpCollector(real, store, proc.pid).collect(5.0)
        assert 424242 not in store.lwp_series
        assert 424242 not in {s.tid for s in snaps}
        assert store.observed_tids()  # the live threads still recorded


def _assert_stores_equal(a: SampleStore, b: SampleStore) -> None:
    assert a.observed_tids() == b.observed_tids()
    for tid in a.observed_tids():
        np.testing.assert_array_equal(
            a.lwp_series[tid].array, b.lwp_series[tid].array
        )
    assert a.lwp_names == b.lwp_names
    assert a.lwp_affinity == b.lwp_affinity
    assert sorted(a.hwt_series) == sorted(b.hwt_series)
    for cpu in a.hwt_series:
        np.testing.assert_array_equal(
            a.hwt_series[cpu].array, b.hwt_series[cpu].array
        )
    np.testing.assert_array_equal(a.mem_series.array, b.mem_series.array)
    assert a.prev_totals == b.prev_totals


def _mem_row(reader, pid, *, snapshots) -> tuple:
    """The one memory row a collector records for ``pid``."""
    store = SampleStore()
    MemoryCollector(reader, store, pid, snapshots=snapshots).collect(1.0)
    store.commit(1.0, [])
    (row,) = store.mem_series.array.tolist()
    return tuple(row)


class TestSnapshotTier:
    """The structured fast path must be indistinguishable from text."""

    def test_only_procfs_implements_the_tier(self, world, tmp_path):
        _, proc, fs = world
        assert isinstance(fs, SnapshotProcReader)
        real = materialize(fs, proc.pid, tmp_path)
        assert not isinstance(real, SnapshotProcReader)

    def test_raw_tasks_match_text(self, world):
        _, proc, fs = world
        raw = fs.read_tasks_raw(proc.pid)
        listed = [int(t) for t in fs.listdir(f"/proc/{proc.pid}/task")]
        assert [t.tid for t in raw] == listed  # same threads, same order
        for t in raw:
            stat, status = read_task(fs, proc.pid, t.tid)
            assert t.comm == stat.comm
            assert t.state == stat.state
            assert (t.utime, t.stime) == (stat.utime, stat.stime)
            assert (t.minflt, t.majflt) == (stat.minflt, stat.majflt)
            assert t.vcsw == status.voluntary_ctxt_switches
            assert t.nvcsw == status.nonvoluntary_ctxt_switches
            assert t.processor == stat.processor
            assert t.affinity == status.cpus_allowed

    def test_raw_cpu_times_match_text(self, world):
        _, _, fs = world
        text = read_cpu_times(fs)
        assert fs.read_cpu_times_raw([0, 1]) == {0: text[0], 1: text[1]}
        assert -1 in text  # the aggregate row lives in the text tier only

    def test_raw_memory_matches_text(self, world):
        _, proc, fs = world
        proc.allocate(5 * 1024 * 1024 + 1023)
        proc.read_bytes, proc.write_bytes = 2047, 3071
        raw = fs.read_memory_raw(proc.pid)
        meminfo = read_meminfo(fs)
        status = read_task(fs, proc.pid, proc.pid)[1]
        assert raw == (
            meminfo["MemTotal"],
            meminfo["MemFree"],
            meminfo["MemAvailable"],
            status.vm_rss_kib,
            1,  # read_bytes // 1024
            2,  # write_bytes // 1024
        )
        assert raw.vm_rss_kib == 5 * 1024

    def test_memory_tiers_agree_on_how_a_pid_resolves(self, world):
        """``self``, a tid and the pid itself give one row in both
        tiers; a vanished pid fails both the same way."""
        _, proc, fs = world
        proc.allocate(3 * 1024 * 1024 + 517)
        proc.read_bytes, proc.write_bytes = 70_001, 12_345
        worker = next(t for t in proc.threads if t != proc.pid)
        rows = {
            (pid, snapshots): _mem_row(fs, pid, snapshots=snapshots)
            for pid in (proc.pid, "self", worker)
            for snapshots in (True, False)
        }
        assert len(set(rows.values())) == 1, rows
        messages = []
        for snapshots in (True, False):
            collector = MemoryCollector(
                fs, SampleStore(), 424242, snapshots=snapshots
            )
            with pytest.raises(ProcFSError) as info:
                collector.collect(1.0)
            assert info.value.errno is None
            assert classify_failure(info.value) == TRANSIENT
            messages.append(str(info.value))
        assert messages[0] == messages[1] == "no such process: 424242"
        with pytest.raises(ProcFSError):
            ProcFS(fs.kernel, fs.node).read_memory_raw("self")  # no self pid

    def test_raw_missing_process_policy(self, world):
        _, _, fs = world
        store = SampleStore()
        ignore = LwpCollector(fs, store, 424242, missing_process="ignore")
        assert ignore.collect(1.0) == []
        assert store.observed_tids() == []
        with pytest.raises(ProcFSError):
            LwpCollector(fs, store, 424242).collect(1.0)

    def test_snapshots_flag_opts_out(self, world):
        _, proc, fs = world
        store = SampleStore()
        assert LwpCollector(fs, store, proc.pid, snapshots=False)._raw is None
        assert HwtCollector(fs, store, [0], snapshots=False)._raw is None
        assert MemoryCollector(fs, store, proc.pid, snapshots=False)._raw is None
        assert LwpCollector(fs, store, proc.pid)._raw is not None
        assert HwtCollector(fs, store, [0])._raw is not None
        assert MemoryCollector(fs, store, proc.pid)._raw is not None

    def test_fast_and_text_stores_identical_over_run(self):
        """Sample a full simulated run through both tiers in lockstep:
        every committed row, name, and affinity must be identical."""
        kernel = SimKernel(generic_node(cores=2))
        node = kernel.nodes[0]

        def main():
            for n in range(6):
                yield Compute(7, user_frac=0.6)
                # byte counts off the KiB grid: the floors must agree
                yield Alloc(3 * 1024 * 1024 + 517 * n + 1)
                yield FileIo(70_001 + 1023 * n)
                yield Sleep(23)
            yield Free(2 * 1024 * 1024 + 3)

        proc = kernel.spawn_process(node, CpuSet([0, 1]), main(),
                                    command="demo")

        def worker():
            for n in range(4):
                yield Compute(11)
                yield FileIo(12_345 + 511 * n, write=True)
                yield Sleep(31)

        kernel.spawn_thread(proc, worker(), name="w")
        fs = ProcFS(kernel, node, self_pid=proc.pid)
        cpus = [0, 1]
        tiers = []
        for snapshots in (True, False):
            store = SampleStore()
            tiers.append((
                store,
                LwpCollector(fs, store, proc.pid, snapshots=snapshots),
                HwtCollector(fs, store, cpus, snapshots=snapshots),
                MemoryCollector(fs, store, proc.pid, snapshots=snapshots),
            ))
        while kernel.alive_work():
            kernel.run(max_ticks=10)
            tick = float(kernel.now)
            period = []
            for store, lwp, hwt, mem in tiers:
                snaps = lwp.collect(tick)
                hwt.collect(tick)
                mem.collect(tick)
                store.commit(tick, snaps)
                period.append(snaps)
            assert period[0] == period[1]
        (fast_store, *_), (text_store, *_) = tiers
        rows = fast_store.mem_series.array
        # the run moved every per-process column, off the KiB grid
        for column in ("rss_kib", "io_read_kib", "io_write_kib"):
            assert len(set(fast_store.mem_series.column(column))) > 2
        assert len(rows) > 10
        _assert_stores_equal(fast_store, text_store)


# ---------------------------------------------------------------------------
MACHINES = {"frontier": frontier_node, "summit": summit_node}
LISTING2_CMD = (
    "OMP_PROC_BIND=spread OMP_PLACES=cores OMP_NUM_THREADS=4 "
    "srun -n8 --gpus-per-task=1 --cpus-per-task=7 --gpu-bind=closest "
    "--threads-per-core=1 zerosum-mpi miniqmc"
)


def big_world(machine: str):
    """A 128-/176-HWT node with busy, sleeping and idle CPUs."""
    kernel = SimKernel(MACHINES[machine]())
    node = kernel.nodes[0]
    cpus = sorted(node.hwts)

    def main():
        yield Compute(60, user_frac=0.7)
        yield Sleep(200)
        yield Compute(40)

    proc = kernel.spawn_process(
        node, CpuSet(cpus[1:9]), main(), command="demo"
    )

    def worker(n):
        yield Compute(25 + 7 * n, user_frac=0.9)
        yield Sleep(150 + n)
        yield Compute(30)

    for n in range(6):
        kernel.spawn_thread(proc, worker(n), name=f"w{n}")
    return kernel, node, ProcFS(kernel, node, self_pid=proc.pid)


def listing2_job():
    """The 8-rank Listing 2 job, launched unmonitored and not yet run."""
    app = miniqmc_app(
        MiniQmcConfig(blocks=4, block_jiffies=40.0, seed=2, offload=True)
    )
    return launch_job([frontier_node()], SrunOptions.parse(LISTING2_CMD), app)


class _CountingHwts(dict):
    """``node.hwts`` stand-in that records which CPUs anyone looks at."""

    def __init__(self, hwts):
        super().__init__(hwts)
        self.touched = []

    def __getitem__(self, cpu):
        self.touched.append(cpu)
        return super().__getitem__(cpu)

    def get(self, cpu, default=None):
        self.touched.append(cpu)
        return super().get(cpu, default)

    def _all(self):
        self.touched.extend(super().keys())

    def __iter__(self):
        self._all()
        return super().__iter__()

    def keys(self):
        self._all()
        return super().keys()

    def values(self):
        self._all()
        return super().values()

    def items(self):
        self._all()
        return super().items()


class TestScopedCpuTimes:
    """``read_cpu_times_raw(cpus)``: the caller's CPUs, nothing else."""

    @settings(max_examples=25, deadline=None)
    @given(
        machine=st.sampled_from(sorted(MACHINES)),
        picks=st.sets(st.integers(0, 10_000), max_size=40),
        everything=st.booleans(),
    )
    @example(machine="frontier", picks=set(), everything=False)
    @example(machine="summit", picks={5}, everything=False)
    @example(machine="frontier", picks={0, 3, 64, 127}, everything=False)
    @example(machine="summit", picks=set(), everything=True)
    def test_subset_matches_text_tier(self, machine, picks, everything):
        kernel, node, fs = big_world(machine)
        on_node = sorted(node.hwts)
        cpus = on_node if everything else [
            on_node[p % len(on_node)] for p in sorted(picks)
        ]
        # mid-run: the busy CPUs sit in the batched accounting arrays,
        # and the scoped read reads through them, leaving them enrolled
        kernel.run(max_ticks=20)
        raw = fs.read_cpu_times_raw(cpus)
        text = read_cpu_times(fs)
        assert raw == {c: text[c] for c in cpus}
        # after the idle window was fast-forwarded and work resumed
        kernel.run(max_ticks=260)
        text = read_cpu_times(fs)  # text first: reads every CPU
        assert fs.read_cpu_times_raw(cpus) == {c: text[c] for c in cpus}
        kernel.run(max_ticks=15)
        raw = fs.read_cpu_times_raw(cpus)
        text = read_cpu_times(fs)
        assert raw == {c: text[c] for c in cpus}

    def test_cpu_not_on_node_is_absent(self, world):
        _, _, fs = world
        assert sorted(fs.read_cpu_times_raw([0, 1, 999])) == [0, 1]
        assert fs.read_cpu_times_raw([999]) == {}

    def test_absent_cpu_is_transient_rolled_back_and_ledgered(self, world):
        _, _, fs = world
        store = SampleStore()
        collector = HwtCollector(fs, store, [0, 1, 999])
        with pytest.raises(ProcFSError, match="cpu999 missing") as info:
            collector.collect(1.0)
        assert classify_failure(info.value) == TRANSIENT

        store = SampleStore()
        engine = CollectionEngine(store, [HwtCollector(fs, store, [0, 1, 999])])
        engine.sample(1.0)  # contained: never raises
        ledger = store.ledger
        assert ledger.retries == {"HwtCollector": engine.policy.max_retries}
        assert ledger.failed_periods == {"HwtCollector": 1}
        assert ledger.rolled_back_rows == {"HwtCollector": 2}
        assert ledger.events[-1].failure_class == TRANSIENT
        assert "cpu999 missing" in ledger.events[-1].reason
        # cpu0/cpu1 rows of the torn period did not survive the rollback
        assert all(len(s) == 0 for s in store.hwt_series.values())

    def test_one_collect_touches_only_the_ranks_cpus(self):
        """Proportionality as a count: 7 watched CPUs, 7 HWTStates."""
        kernel, node, fs = big_world("frontier")
        kernel.run(max_ticks=20)
        node.hwts = counting = _CountingHwts(node.hwts)
        cpus = CpuSet.from_list("1-7")
        store = SampleStore()
        HwtCollector(fs, store, cpus).collect(20.0)
        assert sorted(counting.touched) == list(cpus)
        assert sorted(store.hwt_series) == list(cpus)


class TestFaultyProcForwardsCpus:
    def test_forwards_the_cpu_set(self, world):
        _, _, fs = world
        faulty = FaultyProc(fs, seed=1)
        assert faulty.read_cpu_times_raw([1]) == fs.read_cpu_times_raw([1])
        assert faulty.injected == []

    @pytest.mark.parametrize(
        "rate, code", [("missing_rate", errno.ENOENT), ("eacces_rate", errno.EACCES)]
    )
    def test_still_injects_errors(self, world, rate, code):
        _, _, fs = world
        faulty = FaultyProc(fs, seed=1, **{rate: 1.0})
        with pytest.raises(ProcFSError) as info:
            faulty.read_cpu_times_raw([0, 1])
        assert info.value.errno == code
        (injection,) = faulty.injected
        assert (injection.op, injection.path) == ("read_cpu_times_raw", "/proc/stat")

    def test_still_injects_slow(self, world):
        _, _, fs = world
        naps = []
        faulty = FaultyProc(
            fs, seed=1, slow_rate=1.0, slow_seconds=0.5, sleep=naps.append
        )
        assert faulty.read_cpu_times_raw([0]) == fs.read_cpu_times_raw([0])
        assert naps == [0.5]
        assert [i.kind for i in faulty.injected] == ["slow"]


class TestMultiRankTierIdentity:
    """Eight ranks share one 128-HWT node; each watches its own 7 CPUs."""

    @pytest.fixture(scope="class")
    def sampled(self):
        step = listing2_job()
        kernel = step.kernel
        ranks = []
        for ctx in step.contexts:
            fs = ProcFS(kernel, ctx.node, self_pid=ctx.process.pid)
            cpus = ctx.assignment.cpuset
            tiers = []
            pid = ctx.process.pid
            for snapshots in (True, False):
                store = SampleStore()
                tiers.append(
                    (
                        store,
                        LwpCollector(fs, store, pid, snapshots=snapshots),
                        HwtCollector(fs, store, cpus, snapshots=snapshots),
                        MemoryCollector(fs, store, pid, snapshots=snapshots),
                    )
                )
            ranks.append((cpus, tiers))
        while kernel.alive_work():
            kernel.run(max_ticks=25)
            tick = float(kernel.now)
            for _, tiers in ranks:
                for store, lwp, hwt, mem in tiers:
                    snaps = lwp.collect(tick)
                    hwt.collect(tick)
                    mem.collect(tick)
                    store.commit(tick, snaps)
        return ranks

    def test_stores_bit_identical_on_every_rank(self, sampled):
        assert len(sampled) == 8
        for cpus, ((fast, *_), (text, *_)) in sampled:
            assert sorted(fast.hwt_series) == list(cpus)
            assert len(fast.mem_series) > 3
            _assert_stores_equal(fast, text)

    def test_zero_sum_law_per_hwt_on_every_rank(self, sampled):
        """user+system+idle+iowait advance by the elapsed ticks; each
        of the four counters is floored to whole jiffies, hence the 4."""
        for cpus, ((fast, *_), _) in sampled:
            assert len(cpus) == 7
            for cpu in cpus:
                rows = fast.hwt_series[cpu].array
                assert len(rows) > 3
                elapsed = rows[-1, 0] - rows[0, 0]
                accounted = (rows[-1, 1:] - rows[0, 1:]).sum()
                assert abs(accounted - elapsed) <= 4, (cpu, accounted, elapsed)
