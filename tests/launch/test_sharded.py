"""Sharded launcher: bit-identical results, crash containment, planning."""

import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.analysis import build_cluster_view
from repro.apps import PicConfig, pic_app
from repro.collect import StoreBackedRun
from repro.core import ZeroSumConfig, render_log, zerosum_mpi
from repro.errors import LaunchError
from repro.gpu.device import KernelRequest
from repro.kernel import Call, Compute
from repro.launch import (
    JobStep,
    ShardedJobStep,
    SrunOptions,
    TaskAssignment,
    launch_job,
    launch_sharded,
    plan_shards,
)
from repro.mpi import Fabric
from repro.topology import CpuSet, generic_node

#: the reference workload: 8 PIC ranks over 2 nodes, point-to-point
#: only (reduce_every=0 — cross-shard collectives are value-correct
#: but epoch-quantized, so the bit-identity bar applies to p2p jobs)
PIC = PicConfig(steps=6, shift_distance=3, reduce_every=0)


def _machines():
    return [generic_node(cores=4, name=f"node{i}") for i in range(2)]


def _launch(workers: int, config: PicConfig = PIC, monitors: bool = True):
    return launch_job(
        _machines(),
        SrunOptions(ntasks=8, command="pic"),
        pic_app(config),
        monitor_factory=zerosum_mpi(ZeroSumConfig()) if monitors else None,
        fabric=Fabric(remote_latency=8),
        workers=workers,
    )


@pytest.fixture(scope="module")
def serial_and_sharded():
    serial = _launch(workers=1)
    serial.run()
    serial.finalize()
    sharded = _launch(workers=2)
    assert isinstance(sharded, ShardedJobStep)
    sharded.run()
    sharded.finalize()
    return serial, sharded


class TestBitIdentical:
    """The acceptance bar: merged sharded results == serial results."""

    def test_same_ticks(self, serial_and_sharded):
        serial, sharded = serial_and_sharded
        assert sharded.ticks_run == serial.ticks_run

    def test_rank_reports_identical(self, serial_and_sharded):
        serial, sharded = serial_and_sharded
        for rank in range(8):
            assert sharded.report(rank).render() == \
                serial.report(rank).render()

    def test_findings_and_advice_identical(self, serial_and_sharded):
        serial, sharded = serial_and_sharded
        for rank in range(8):
            assert sharded.findings(rank).render() == \
                serial.findings(rank).render()
            assert sharded.advice(rank).render() == \
                serial.advice(rank).render()

    def test_p2p_matrix_identical(self, serial_and_sharded):
        serial, sharded = serial_and_sharded
        a, b = serial.comm_matrix(), sharded.comm_matrix()
        assert np.array_equal(a.bytes, b.bytes)
        assert np.array_equal(a.messages, b.messages)
        assert b.bytes.sum() > 0  # the job really communicated

    def test_cluster_view_identical(self, serial_and_sharded):
        serial, sharded = serial_and_sharded
        assert build_cluster_view(sharded.monitors).render() == \
            build_cluster_view(serial.monitors).render()

    def test_rank_logs_identical(self, serial_and_sharded):
        """A rank comes home as a run: its whole log matches serial's."""
        serial, sharded = serial_and_sharded
        for rank in range(8):
            run = sharded.monitor(rank)
            assert isinstance(run, StoreBackedRun)
            assert render_log(run) == render_log(serial.monitor(rank))

    def test_no_degradations_or_crashes(self, serial_and_sharded):
        _, sharded = serial_and_sharded
        assert sharded.degradations == []
        for rank in range(8):
            assert sharded.rank_results[rank].crash_reports == []


def _offload_tail_app(linger: int = 2, jiffies: float = 400.5):
    """Node 1's ranks leave a GPU kernel running past the job's end;
    with ``linger=0`` a rank exits in the very tick it submits, so its
    kernel is still queued, not started."""

    def app(ctx):
        def main():
            if ctx.rank < 4:
                yield Compute(60)
                return
            yield Compute(5)
            device = ctx.gpus[0]
            request = KernelRequest(jiffies=jiffies, name=f"tail-{ctx.rank}")
            # fire and forget: the rank exits with its kernel in flight
            yield Call(lambda k, l: device.submit(request, tick=k.now))
            if linger:
                yield Compute(linger)

        return main()

    return app


def _assert_tail_job_matches_serial(app):
    def launch(workers):
        step = launch_job(
            [generic_node(cores=4, gpus=4, name=f"node{i}")
             for i in range(2)],
            SrunOptions(ntasks=8, gpus_per_task=1, command="tail"),
            app,
            monitor_factory=zerosum_mpi(ZeroSumConfig(period_seconds=0.2)),
            fabric=Fabric(remote_latency=8),
            workers=workers,
        )
        step.run()
        step.finalize()
        return step

    serial, sharded = launch(1), launch(2)
    assert isinstance(sharded, ShardedJobStep)
    assert sharded.degradations == []
    assert sharded.ticks_run == serial.ticks_run
    for rank in range(8):
        assert sharded.report(rank).render() == \
            serial.report(rank).render()
        assert render_log(sharded.monitor(rank)) == \
            render_log(serial.monitor(rank))
    # the tail ranks' devices were sampled
    gpu = serial.monitor(4).gpu_series
    assert gpu and all(len(series) for series in gpu.values())


class TestParkedShard:
    def test_gpu_busy_past_the_end_tick_matches_serial(self):
        """A shard whose ranks are done while its GPUs still run parks
        at the job's end tick with the devices busy-integrated, as the
        serial kernel steps them."""
        _assert_tail_job_matches_serial(_offload_tail_app())

    @pytest.mark.parametrize("jiffies", [400.5, 20.5],
                             ids=["busy_at_end", "done_before_end"])
    def test_kernel_queued_in_the_exit_tick_matches_serial(self, jiffies):
        """A rank that exits in the tick it submits leaves its kernel
        queued, with no window to jump: parking steps the tick that
        starts it (and the one that completes it, if that comes before
        the job's end tick) and jumps the rest."""
        _assert_tail_job_matches_serial(
            _offload_tail_app(linger=0, jiffies=jiffies)
        )


class TestCollectives:
    def test_collective_job_completes_with_identical_matrix(self):
        """Allreduce rendezvous is epoch-quantized but value-correct."""
        config = PicConfig(steps=6, shift_distance=3, reduce_every=2)
        serial = _launch(workers=1, config=config)
        serial.run()
        serial.finalize()
        sharded = _launch(workers=2, config=config)
        sharded.run()
        a, b = serial.comm_matrix(), sharded.comm_matrix()
        assert np.array_equal(a.bytes, b.bytes)
        assert sharded.degradations == []
        # quantization may defer completion, never lose it
        assert sharded.ticks_run >= serial.ticks_run


def _crashing_app(ctx):
    """Rank 6 deterministically kills its worker process mid-epoch."""

    def main():
        yield Compute(2)
        if ctx.rank == 6:
            os._exit(42)
        yield Compute(40)

    return main()


def _launch_crashy():
    step = launch_job(
        _machines(),
        SrunOptions(ntasks=8, command="crashy"),
        _crashing_app,
        monitor_factory=zerosum_mpi(ZeroSumConfig()),
        fabric=Fabric(remote_latency=8),
        workers=2,
    )
    assert isinstance(step, ShardedJobStep)
    return step


def _wedging_app(ctx):
    """Rank 6 wedges its worker: deaf to SIGTERM, asleep inside the app."""

    def main():
        yield Compute(2)
        if ctx.rank == 6:
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            time.sleep(3600)
        yield Compute(40)

    return main()


@pytest.fixture(scope="module")
def wedged_run():
    """A run whose shard 1 wedges; returns (step, children alive after run).

    The wedged worker ignores SIGTERM, so containment must escalate to
    SIGKILL or the worker outlives the step.
    """
    before = {p.pid for p in multiprocessing.active_children()}
    step = launch_sharded(
        _machines(),
        SrunOptions(ntasks=8, command="wedgy"),
        _wedging_app,
        workers=2,
        monitor_factory=zerosum_mpi(ZeroSumConfig()),
        fabric=Fabric(remote_latency=8),
        epoch_timeout=1.0,
    )
    step.run()
    leaked = [
        p
        for p in multiprocessing.active_children()
        if p.pid not in before and p.is_alive()
    ]
    yield step, leaked
    step.close(join_timeout=0.5)


class TestCrashContainment:
    def test_worker_crash_is_ledgered_not_hung(self):
        """A dying worker degrades the run instead of hanging it."""
        step = _launch_crashy()
        step.run()
        events = step.degradations
        assert len(events) == 1
        assert "shard-1" in events[0].collector
        assert events[0].failure_class == "permanent"
        assert "crashed" in events[0].reason  # not misfiled as a hang
        # the surviving shard's ranks still report
        step.report(0).render()
        assert step.rank_results[0].store.samples_taken > 0
        # the lost shard's ranks do not
        with pytest.raises(LaunchError):
            step.report(6)
        assert 6 not in step.rank_results

    def test_wedged_worker_is_ledgered_as_hung(self, wedged_run):
        """Alive but silent past epoch_timeout: one transient hung failure."""
        step, _ = wedged_run
        events = step.degradations
        assert len(events) == 1
        assert events[0].action == "failure"
        assert "shard-1" in events[0].collector
        assert "hung" in events[0].reason
        assert "crashed" not in events[0].reason
        assert events[0].failure_class == "transient"
        for rank in range(4):
            step.report(rank).render()
            assert step.rank_results[rank].store.samples_taken > 0
        with pytest.raises(LaunchError):
            step.report(6)

    def test_sigterm_immune_wedged_worker_is_reaped_by_run(self, wedged_run):
        """run() itself escalates to SIGKILL: no worker outlives it."""
        _, leaked_after_run = wedged_run
        assert leaked_after_run == []


class TestZombieLeak:
    def test_close_escalates_to_kill_on_wedged_worker(self):
        """close() must reap a worker that ignores SIGTERM.

        Rank 6's app factory wedges its worker while the shard is
        being built, so the worker is deaf to SIGTERM and never reads
        its pipe: closing the pipes and terminating cannot stop it,
        only the SIGKILL escalation can.
        """
        wedged = multiprocessing.get_context("fork").Event()

        def app(ctx):
            if ctx.rank == 6:
                signal.signal(signal.SIGTERM, signal.SIG_IGN)
                wedged.set()
                time.sleep(3600)
            return pic_app(PIC)(ctx)

        before = {p.pid for p in multiprocessing.active_children()}
        step = launch_sharded(
            _machines(),
            SrunOptions(ntasks=8, command="pic"),
            app,
            workers=2,
            fabric=Fabric(remote_latency=8),
        )
        assert wedged.wait(10.0)
        step.close(join_timeout=0.5)
        leaked = [
            p
            for p in multiprocessing.active_children()
            if p.pid not in before and p.is_alive()
        ]
        assert leaked == []


class TestGuards:
    def test_jittered_fabric_is_rejected(self):
        with pytest.raises(LaunchError, match="jitter"):
            launch_job(
                _machines(),
                SrunOptions(ntasks=8, command="pic"),
                pic_app(PIC),
                fabric=Fabric(remote_latency=8, jitter=0.5),
                workers=2,
            )

    def test_single_node_falls_back_to_serial(self):
        step = launch_job(
            [generic_node(cores=4)],
            SrunOptions(ntasks=4, command="pic"),
            pic_app(PIC),
            fabric=Fabric(remote_latency=8),
            workers=4,
        )
        assert isinstance(step, JobStep)

    @pytest.mark.parametrize("workers", [0, -5])
    def test_non_positive_workers_are_rejected(self, workers):
        with pytest.raises(LaunchError, match="workers must be >= 1"):
            launch_job(
                _machines(),
                SrunOptions(ntasks=8, command="pic"),
                pic_app(PIC),
                fabric=Fabric(remote_latency=8),
                workers=workers,
            )


def _assignments(ranks_per_node: list[int]) -> list[TaskAssignment]:
    out, rank = [], 0
    for node, count in enumerate(ranks_per_node):
        for _ in range(count):
            out.append(TaskAssignment(rank, node, CpuSet([rank % 4])))
            rank += 1
    return out


class TestPlanShards:
    def test_balanced_split(self):
        plans = plan_shards(_assignments([4, 4, 4, 4]), 4, workers=2)
        assert [p.node_indices for p in plans] == [(0, 1), (2, 3)]
        assert [len(p.ranks) for p in plans] == [8, 8]

    def test_workers_clamped_to_loaded_nodes(self):
        plans = plan_shards(_assignments([4, 4]), 2, workers=8)
        assert len(plans) == 2

    def test_trailing_rankless_nodes_ride_along(self):
        plans = plan_shards(_assignments([4, 4, 0, 0]), 4, workers=2)
        assert len(plans) == 2
        assert plans[-1].node_indices == (1, 2, 3)
        assert plans[-1].ranks == (4, 5, 6, 7)
        assert all(p.ranks for p in plans)

    def test_unbalanced_load_prefers_rank_balance(self):
        plans = plan_shards(_assignments([6, 1, 1]), 3, workers=2)
        assert len(plans) == 2
        counts = [len(p.ranks) for p in plans]
        assert counts == [6, 2]

    def test_invalid_workers(self):
        with pytest.raises(LaunchError):
            plan_shards(_assignments([1]), 1, workers=0)
