"""Sampling-path performance guard: samples/second through a reader.

Not a paper artefact — a regression guard for the collection pipeline.
The simulated ``ProcFS`` offers two tiers: the textual ``ProcReader``
path (render ``/proc`` text, reparse it) and the snapshot fast path
(``read_tasks_raw``/``read_cpu_times_raw``, structured counters with
no text round trip).  Both are contractually bit-identical; this bench
measures how much the fast tier buys on a Table-2-sized node (64
threads across 8 processes) and guards the speedup from regressing.

The throughput cases watch ``range(64)``, half the node, which hides
what a sample costs per *node* rather than per watched CPU.  The
``hwt_scoped`` case guards that scaling: one ``HwtCollector`` over a
rank's 7 allowed CPUs against one over all 128 of the same node, both
on the snapshot tier — the cost must follow the watched set.
"""

import time

import pytest

from common import banner
from repro.collect import HwtCollector, LwpCollector, SampleStore
from repro.kernel import Compute, SimKernel, Sleep
from repro.procfs import ProcFS
from repro.topology import CpuSet, frontier_node

SAMPLES = 100
#: the fast tier must stay at least this many times quicker than text
MIN_SPEEDUP = 2.0
#: watching 128 CPUs must cost at least this many times watching 7
#: (128 / 7 = 18.3 less the fixed cost of one collect)
MIN_SCOPED_RATIO = 5.0


def _world():
    """One Frontier node mid-run: 8 procs x 8 threads, all alive."""
    kernel = SimKernel(frontier_node())
    pids = []

    def gen():
        for _ in range(20):
            yield Compute(5)
            yield Sleep(3)

    for r in range(8):
        cpus = CpuSet.range(1 + 8 * r, 8 + 8 * r)
        proc = kernel.spawn_process(kernel.nodes[0], cpus, gen())
        for _ in range(7):
            kernel.spawn_thread(proc, gen())
        pids.append(proc.pid)
    kernel.run(max_ticks=50)
    fs = ProcFS(kernel, kernel.nodes[0])
    return fs, pids


def _sample_loop(fs, pids, snapshots):
    cpus = list(range(64))
    store = SampleStore()
    lwp_collectors = [
        LwpCollector(fs, store, pid, snapshots=snapshots) for pid in pids
    ]
    hwt = HwtCollector(fs, store, cpus, snapshots=snapshots)
    rows = 0
    for i in range(SAMPLES):
        tick = float(i)
        for collector in lwp_collectors:
            rows += len(collector.collect(tick))
        hwt.collect(tick)
    return rows


@pytest.fixture(scope="module")
def rates():
    """samples/s per tier, filled in parametrize order (text first)."""
    return {}


@pytest.mark.parametrize("tier", ["text", "snapshot"])
def test_sampling_throughput(benchmark, tier, rates):
    fs, pids = _world()
    snapshots = tier == "snapshot"
    rows = benchmark.pedantic(
        lambda: _sample_loop(fs, pids, snapshots), rounds=3, iterations=1
    )
    seconds = benchmark.stats["mean"]
    rates[tier] = samples_per_sec = SAMPLES / seconds
    rows_per_sec = rows / seconds
    banner(f"Sampling throughput [{tier} tier] (64 LWPs, 64 HWTs)",
           "collection-pipeline regression guard, not a paper artefact")
    print(f"{samples_per_sec:,.0f} full sweeps/s "
          f"({rows_per_sec:,.0f} thread rows/s)")
    benchmark.extra_info.update(
        tier=tier, samples=SAMPLES, lwp_rows=rows,
        samples_per_sec=samples_per_sec,
    )
    if tier == "snapshot" and "text" in rates:
        # the text tier ran first: guard the speedup itself
        speedup = samples_per_sec / rates["text"]
        print(f"snapshot tier speedup over text: {speedup:.1f}x")
        assert speedup > MIN_SPEEDUP, (
            f"snapshot tier only {speedup:.2f}x faster than text"
        )


def _hwt_seconds(fs, cpus):
    hwt = HwtCollector(fs, SampleStore(), cpus)
    start = time.perf_counter()
    for i in range(SAMPLES):
        hwt.collect(float(i))
    return time.perf_counter() - start


def test_hwt_cost_follows_watched_cpus():
    fs, _ = _world()
    node_cpus = sorted(fs.node.hwts)
    rank_cpus = node_cpus[1:8]
    # interleaved rounds, minimum of each arm: drift lands on both
    rounds = [
        (_hwt_seconds(fs, rank_cpus), _hwt_seconds(fs, node_cpus))
        for _ in range(5)
    ]
    rank_s = min(r for r, _ in rounds)
    node_s = min(n for _, n in rounds)
    ratio = node_s / rank_s
    banner("HWT sample cost vs watched CPUs [snapshot tier]",
           "collection-pipeline scaling guard, not a paper artefact")
    print(f"{len(rank_cpus)} CPUs: {rank_s / SAMPLES * 1e6:,.1f} us/collect; "
          f"{len(node_cpus)} CPUs: {node_s / SAMPLES * 1e6:,.1f} us/collect; "
          f"ratio {ratio:.1f}x")
    assert ratio > MIN_SCOPED_RATIO, (
        f"watching {len(node_cpus)} CPUs costs only {ratio:.2f}x "
        f"watching {len(rank_cpus)}: the sample is paying per node"
    )
