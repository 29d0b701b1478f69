"""The one run surface: sim / live / replayed / recovered runs.

Every store-backed run inherits :class:`repro.collect.StoreBackedRun`,
so the view of the store, the identity record and ``report()`` are
defined once, and ``write_log`` / ``write_archive`` take any of the
four (the archive case is ``tests/core/test_archive.py::TestStoreArchive``).  The round trips pin the drift the forked live exporter had: a
recovered *sim* journal exported and replayed must rebuild the
recovered report exactly (rank line, GPU table, zero baseline).
"""

import hashlib
import pathlib
import time

import pytest

from repro.collect import (
    ReplayZeroSum,
    ReportBuilder,
    StoreBackedRun,
    recover_journal,
)
from repro.core import ContentionReport, MemorySink, ZeroSumConfig, analyze, write_log
from repro.live import LiveZeroSum
from tests.helpers import run_miniqmc

needs_proc = pytest.mark.skipif(
    not pathlib.Path("/proc/self/stat").exists(), reason="needs Linux /proc"
)

GPU_CMD = ("OMP_NUM_THREADS=3 srun -n1 --gpus-per-task=1 "
           "zerosum-mpi miniqmc")


def _sim(tmp_path):
    """A journaled GPU-offload rank (the Listing 2 shape)."""
    journal = tmp_path / "rank0.zsj"
    step = run_miniqmc(
        GPU_CMD,
        blocks=4,
        offload=True,
        zs_config=ZeroSumConfig(
            journal_path=str(journal),
            journal_fsync=False,
            journal_checkpoint_every=3,
        ),
    )
    return step.monitors[0], journal


def _live(tmp_path):
    journal = tmp_path / "live.zsj"
    zs = LiveZeroSum(
        ZeroSumConfig(
            period_seconds=0.05,
            journal_path=str(journal),
            journal_fsync=False,
            journal_checkpoint_every=3,
            last_gasp=False,
        )
    )
    zs.start()
    deadline = time.monotonic() + 0.4
    x = 0
    while time.monotonic() < deadline:
        x += sum(range(500))
    zs.stop()
    return zs, journal


def _export(run) -> tuple[str, str]:
    sink = MemorySink()
    name = write_log(run, sink)
    return name, sink.documents[name]


def _assert_replays(rebuilt, original) -> None:
    """Byte for byte, GPU table included: the CSV dump writes every
    value as its shortest round-trip repr."""
    assert rebuilt.render() == original.render()


@pytest.fixture(scope="module")
def sim_runs(tmp_path_factory):
    monitor, journal = _sim(tmp_path_factory.mktemp("sim"))
    return monitor, recover_journal(journal)


@pytest.fixture(scope="module")
def live_runs(tmp_path_factory):
    monitor, journal = _live(tmp_path_factory.mktemp("live"))
    return monitor, recover_journal(journal)


@pytest.fixture(scope="module")
def drivers(sim_runs, live_runs):
    sim, recovered = sim_runs
    replay = ReplayZeroSum(_export(sim)[1], hz=sim.hz)
    return {
        "sim": sim, "live": live_runs[0], "replay": replay,
        "recovered": recovered,
    }


@needs_proc
@pytest.mark.parametrize("driver", ["sim", "live", "replay", "recovered"])
class TestContract:
    def test_surface_is_the_stores_own(self, drivers, driver):
        run = drivers[driver]
        assert isinstance(run, StoreBackedRun)
        for name in ("lwp_series", "lwp_affinity", "lwp_names",
                     "hwt_series", "gpu_series", "mem_series"):
            assert getattr(run, name) is getattr(run.store, name)
            # forwarded by the base alone, not re-declared per driver
            assert name not in vars(type(run))
        assert run.samples_taken == run.store.samples_taken
        assert run.observed_tids() == run.store.observed_tids()

    def test_report_is_the_builders(self, drivers, driver):
        run = drivers[driver]
        if driver == "live":
            run.end_time = run.end_time or time.monotonic()
        direct = ReportBuilder(
            run.store,
            baseline=run.baseline,
            start_tick=run.start_tick,
            duration_ticks=run.duration_ticks,
            classify=run.classify,
        ).build(
            duration_seconds=run.duration_seconds,
            rank=run.rank,
            pid=run.pid,
            hostname=run.hostname,
            cpus_allowed=run.cpus_allowed,
        )
        report = run.report()
        if driver == "replay":  # carries the original run's notes instead
            direct.degradation_notes = report.degradation_notes
        assert report.render() == direct.render()

    def test_identity_record(self, drivers, driver):
        run = drivers[driver]
        meta = run.journal_meta()
        assert list(meta) == ["driver", "baseline", "hz", "start_tick",
                              "pid", "rank", "hostname", "cpus_allowed"]
        expect = ("live", "first") if driver == "live" else ("sim", "zero")
        assert (meta["driver"], meta["baseline"]) == expect


    def test_analyze_takes_any_run(self, drivers, driver):
        """§3.5 reads the run surface only: one catalog, four drivers."""
        run = drivers[driver]
        findings = analyze(run)
        assert isinstance(findings, ContentionReport)
        assert findings.rank == run.rank
        # the drivers that can see the node derive its facts, once; the
        # others stand the union of recorded affinities in for the node
        if driver in ("sim", "live"):
            assert run.facts is run.facts
            assert run.facts.node_cpus >= set(run.cpus_allowed)
        else:
            assert run.facts.node_cpus == frozenset().union(
                *run.lwp_affinity.values()
            )
            assert not run.facts.cpu_numa and not run.facts.gpus
        if driver != "live":  # three busy threads on the rank's one CPU
            assert findings.by_code("affinity-overlap")
            assert findings.by_code("time-slicing")


#: post-hoc rules deciding from the samples alone (no topology facts)
_FACT_FREE = ("affinity-overlap", "time-slicing", "undersubscription",
              "no-utilization", "io-bound", "memory-pressure")


class TestAnalyzeAcrossDrivers:
    def test_recovered_equals_sim_where_no_facts_are_needed(self, sim_runs):
        monitor, recovered = sim_runs
        live, post_mortem = analyze(monitor), analyze(recovered)
        for code in _FACT_FREE:
            assert post_mortem.by_code(code) == live.by_code(code)
        assert live.by_code("oversubscription")

    @pytest.mark.parametrize("cmdline, offload, digest", [
        ("OMP_PROC_BIND=spread OMP_PLACES=cores OMP_NUM_THREADS=4 srun -n8 "
         "--gpus-per-task=1 --cpus-per-task=7 --gpu-bind=closest "
         "--threads-per-core=1 zerosum-mpi miniqmc", True,
         "56fc06c3c2ebd61a4e34109205804d878a8952281b74d47eac4e7d1e3cdb5d5e"),
        ("OMP_NUM_THREADS=7 srun -n8 zerosum-mpi miniqmc", False,
         "8bee6e7c610f275d8e404f21cb0eb04eea08663c39ce87dd494f6188fc323111"),
    ], ids=["sim_bound", "sim_oversub"])
    def test_sim_findings_are_byte_identical_to_the_forked_catalogs(
        self, cmdline, offload, digest
    ):
        """Pinned on the commit before the merge: all eight ranks' text."""
        step = run_miniqmc(cmdline, blocks=4, offload=offload)
        text = "".join(step.findings(rank).render() for rank in range(8))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestSimJournalRoundTrip:
    """recover -> write_log -> ReplayZeroSum on a sim journal."""

    def test_replay_of_recovered_log_matches(self, sim_runs):
        monitor, recovered = sim_runs
        name, text = _export(recovered)
        assert name == "zerosum.0.log"
        assert text.startswith(f"ZeroSum attached to PID {monitor.pid} on ")
        assert "(live)" not in text
        assert "== GPU samples (CSV) ==" in text
        rendered = recovered.report().render()
        assert f"MPI 000 - PID {monitor.pid}" in rendered
        assert "GPU 0 - (metric:  min  avg  max)" in rendered
        replay = ReplayZeroSum(text, hz=recovered.hz)
        assert (replay.driver, replay.baseline, replay.rank) == ("sim", "zero", 0)
        _assert_replays(replay.report(), recovered.report())

    def test_recovered_equals_in_memory(self, sim_runs):
        monitor, recovered = sim_runs
        assert recovered.report().render() == monitor.report().render()
        assert recovered.journal_meta() == monitor.journal_meta()


@needs_proc
class TestLiveJournalRoundTrip:
    def test_replay_of_recovered_log_matches(self, live_runs):
        monitor, recovered = live_runs
        name, text = _export(recovered)
        assert name == f"zerosum.live.{monitor.pid}.log"
        assert text.startswith(
            f"ZeroSum (live) attached to PID {monitor.pid} on "
        )
        replay = ReplayZeroSum(text)
        assert (replay.driver, replay.baseline, replay.rank) == (
            "live", "first", None
        )
        _assert_replays(replay.report(), recovered.report())

    def test_unrecovered_live_log_keeps_its_name(self, live_runs):
        monitor, _ = live_runs
        name, text = _export(monitor)
        assert name == f"zerosum.live.{monitor.pid}.log"
        assert ReplayZeroSum(text).observed_tids() == monitor.observed_tids()
