"""Live streaming bus and LDMS-like aggregator."""

from repro.apps import MiniQmcConfig, deadlock_app, miniqmc_app
from repro.core import (
    CallbackSubscriber,
    LdmsAggregator,
    SampleEvent,
    SampleStream,
    ZeroSumConfig,
    zerosum_mpi,
)
from repro.launch import SrunOptions, launch_job
from repro.topology import frontier_node, generic_node

T3_CMD = ("OMP_NUM_THREADS=7 OMP_PROC_BIND=spread OMP_PLACES=cores "
          "srun -n8 -c7 zerosum-mpi miniqmc")


def run_streamed(stream, cmd=T3_CMD, blocks=8, app=None, machine=None,
                 zs=None, **run_kw):
    step = launch_job(
        [machine or frontier_node()],
        SrunOptions.parse(cmd) if isinstance(cmd, str) else cmd,
        app or miniqmc_app(MiniQmcConfig(blocks=blocks, block_jiffies=60)),
        monitor_factory=zerosum_mpi(zs or ZeroSumConfig(), stream=stream),
    )
    step.run(**run_kw)
    step.finalize()
    return step


class TestSampleStream:
    def test_publish_counts(self):
        stream = SampleStream()
        events = []
        stream.subscribe(CallbackSubscriber(events.append))
        run_streamed(stream)
        assert stream.published == len(events)
        assert stream.published > 8  # >= 1 event per rank per second

    def test_event_contents(self):
        stream = SampleStream()
        events: list[SampleEvent] = []
        stream.subscribe(CallbackSubscriber(events.append))
        run_streamed(stream)
        ranks = {e.rank for e in events}
        assert ranks == set(range(8))
        busy = [e.busy_pct for e in events if e.rank == 0]
        assert max(busy) > 70.0
        # mid-run events see the whole team; the final post-exit sample
        # only sees the surviving daemon threads
        assert max(e.threads for e in events) >= 9
        assert all(e.hostname.startswith("frontier") for e in events)

    def test_multiple_subscribers(self):
        stream = SampleStream()
        a, b = [], []
        stream.subscribe(CallbackSubscriber(a.append))
        stream.subscribe(CallbackSubscriber(b.append))
        run_streamed(stream, blocks=4)
        assert len(a) == len(b) == stream.published


class TestLdmsAggregator:
    def test_per_rank_state(self):
        stream = SampleStream()
        ldms = LdmsAggregator()
        stream.subscribe(ldms)
        run_streamed(stream)
        assert ldms.ranks() == list(range(8))
        assert ldms.peak_rss_kib(0) > 0
        assert ldms.latest(3) is not None

    def test_unknown_rank(self):
        ldms = LdmsAggregator()
        assert ldms.latest(5) is None
        assert ldms.peak_rss_kib(5) == 0.0

    def test_stalled_ranks_visible_live(self):
        """A hung job shows up in the live stream before it ends —
        the whole point of always-on monitoring."""
        stream = SampleStream()
        ldms = LdmsAggregator()
        stream.subscribe(ldms)
        run_streamed(
            stream,
            cmd=SrunOptions(ntasks=1, command="hang"),
            app=deadlock_app(deadlock_after_jiffies=20),
            machine=generic_node(cores=2),
            zs=ZeroSumConfig(period_seconds=0.25, deadlock_after=2),
            max_ticks=400,
            raise_on_stall=False,
        )
        assert ldms.stalled_ranks() == [0]
