"""Labeled end-to-end scenarios: early warning and substrate identity.

The acceptance contract of the online tier: on runs engineered to die,
the detector names the terminal event *at least ten sampling periods*
before it happens; and because it is a pure function of committed
store state, the same run observed through the simulated substrate,
the materialized-real substrate, and journal replay yields the same
alert ledger.
"""

from tests.detect.conftest import node_facts
from tests.helpers import materialize_proc, omp_team_app
from repro.collect import (
    CollectionEngine,
    HwtCollector,
    LwpCollector,
    MemoryCollector,
    SampleStore,
)
from repro.collect.journal import JournalWriter, recover_journal
from repro.core import ZeroSumConfig, analyze, zerosum_mpi
from repro.detect import OnlineDetector
from repro.kernel import Compute, SimKernel
from repro.launch import SrunOptions, launch_job
from repro.procfs import ProcFS
from repro.topology import CpuSet, generic_node
from repro.apps import oom_app
from repro.units import MIB


class TestLeakLeadTime:
    def test_leak_alert_leads_the_oom_kill(self):
        machine = generic_node(cores=2, memory_bytes=4 * 1024**3)
        config = ZeroSumConfig(detect_online=True, period_seconds=0.05)
        step = launch_job(
            [machine],
            SrunOptions(ntasks=1),
            # the slow leak: 8 MiB per step until the node runs out
            oom_app(chunk_bytes=8 * MIB, chunks=600),
            monitor_factory=zerosum_mpi(config),
        )
        step.run(raise_on_stall=False)
        step.finalize()
        monitor = step.monitors[0]

        leaks = monitor.store.alerts.by_code("mem-leak-oom")
        assert leaks, "leak precursor never fired"
        first = leaks[0]
        assert first.severity == "critical"
        assert first.eta_s is not None and first.eta_s > 0.0

        oom_events = monitor.process.node.memory.oom_events
        assert oom_events, "scenario did not reach its terminal OOM"
        oom_tick = oom_events[0][0]
        period_jiffies = config.period_seconds * 100.0
        lead_periods = (oom_tick - first.tick) / period_jiffies
        assert lead_periods >= 10.0, (
            f"only {lead_periods:.1f} periods of warning before the OOM"
        )


class TestOversubscriptionScenario:
    def test_alert_fires_mid_run_and_agrees_with_post_hoc(self):
        # 2 allowed CPUs out of 8: the allocation is *bound* (under
        # half the node), so the §3.5 heuristic can call it
        machine = generic_node(cores=8)
        step = launch_job(
            [machine],
            SrunOptions(ntasks=1, cpus_per_task=2),
            # 8 busy threads on the rank's 2 CPUs
            omp_team_app(400.0, threads=8, user_frac=0.95),
            monitor_factory=zerosum_mpi(ZeroSumConfig(detect_online=True)),
        )
        step.run(raise_on_stall=False)
        step.finalize()
        monitor = step.monitors[0]

        online = monitor.store.alerts.by_code("oversubscription")
        assert online, "streaming oversubscription rule never fired"
        # fired online, not at the post-mortem: strictly mid-run
        assert online[0].tick < monitor.store.prev_tick
        # and the post-hoc §3.5 analysis agrees with the streamed call
        post_hoc = {f.code for f in analyze(monitor).findings}
        assert "oversubscription" in post_hoc


class TestSubstrateIdentity:
    def test_sim_materialized_and_replayed_ledgers_agree(self, tmp_path):
        from repro.collect import RealProc

        kernel = SimKernel(generic_node(cores=4))

        def spin():
            yield Compute(400)

        proc = kernel.spawn_process(
            kernel.nodes[0], CpuSet([0]), spin(), command="spin"
        )
        for _ in range(2):  # three busy threads share CPU 0
            kernel.spawn_thread(proc, spin())
        kernel.run(max_ticks=2)
        fs = ProcFS(kernel, kernel.nodes[0], self_pid=proc.pid)

        procroot = tmp_path / "procroot"
        procroot.mkdir()
        journal_path = tmp_path / "run.zsj"

        def build(reader, snapshots, journal=None):
            store = SampleStore()
            detector = OnlineDetector(
                hz=kernel.clock.hz, window=8, facts=node_facts(4)
            )
            engine = CollectionEngine(
                store,
                [
                    LwpCollector(reader, store, proc.pid,
                                 snapshots=snapshots),
                    HwtCollector(reader, store, [0, 1, 2, 3],
                                 snapshots=snapshots),
                    MemoryCollector(reader, store, proc.pid,
                                    snapshots=snapshots),
                ],
                detector=detector,
                journal=journal,
            )
            return store, detector, engine

        journal = JournalWriter(journal_path, checkpoint_every=5,
                                fsync=False)
        sim_store, sim_det, sim_engine = build(
            fs, snapshots=True, journal=journal
        )
        journal.open(sim_store, {
            "driver": "test", "pid": proc.pid, "rank": 0,
            "hostname": "node0", "hz": kernel.clock.hz,
            "baseline": "zero", "start_tick": float(kernel.now),
            "cpus_allowed": "0-3",
        })
        materialize_proc(fs, proc.pid, procroot)
        real_store, real_det, real_engine = build(
            RealProc(procroot), snapshots=False
        )

        for _ in range(12):
            kernel.run(max_ticks=10, raise_on_stall=False)
            tick = float(kernel.now)
            materialize_proc(fs, proc.pid, procroot)
            for engine in (sim_engine, real_engine):
                snapshots = engine.sample(tick)
                engine.commit(tick, snapshots)
        journal.close(sim_store)

        assert sim_det.alerts.total > 0, "scenario raised no alerts"
        codes = set(sim_det.alerts.counts)
        assert "oversubscription" in codes

        # substrate identity: simulated vs materialized-real
        assert real_det.alerts == sim_det.alerts
        # and replay: the journal reproduces the ledger bit-identically
        recovered = recover_journal(journal_path)
        assert recovered.store.alerts == sim_det.alerts
