"""Simulator performance guard: ticks/second of the kernel loop.

Not a paper artefact — a regression guard for the substrate itself.
All table/figure benches depend on the scheduler staying fast enough
that a 25-second Frontier job simulates in about a second.

Three scenarios cover the loop's regimes:

* **busy** — 64 compute-bound threads on one Frontier node; the active
  set is saturated, so this measures raw scheduling throughput;
* **mostly_idle** — two threads that sleep 99 jiffies out of every
  100; the event-driven loop should fast-forward across the idle
  windows, so ticks/s here is dominated by the jump path;
* **blocked_heavy** — 32 threads cycling through filesystem I/O; CPUs
  are mostly empty but I/O stays in flight, exercising the active-set
  walk and iowait accounting without the fast-forward escape hatch.

Each scenario asserts a ticks/s floor.
"""

import pytest

from common import banner
from repro.kernel import Compute, FileIo, SimKernel, Sleep
from repro.topology import CpuSet, frontier_node

TICKS = 1000


def _run_busy_node():
    kernel = SimKernel(frontier_node())

    def gen(j):
        def g():
            yield Compute(j)

        return g()

    # 8 processes x 8 busy threads, the Table-2-like steady state
    for r in range(8):
        cpus = CpuSet.range(1 + 8 * r, 8 + 8 * r)
        proc = kernel.spawn_process(kernel.nodes[0], cpus, gen(TICKS + 10))
        for _ in range(7):
            kernel.spawn_thread(proc, gen(TICKS + 10))
    for _ in range(TICKS):
        kernel.step()
    return kernel.now


def _run_mostly_idle_node():
    kernel = SimKernel(frontier_node())

    def dozer():
        for _ in range(50):
            yield Compute(1)
            yield Sleep(99)

    proc = kernel.spawn_process(kernel.nodes[0], CpuSet.range(1, 8), dozer())
    kernel.spawn_thread(proc, dozer())
    kernel.run()
    return kernel.now


def _run_blocked_heavy_node():
    kernel = SimKernel(frontier_node())

    def io_worker():
        for _ in range(50):
            yield Compute(1)
            yield FileIo(4 << 20)

    for r in range(4):
        cpus = CpuSet.range(1 + 8 * r, 8 + 8 * r)
        proc = kernel.spawn_process(kernel.nodes[0], cpus, io_worker())
        for _ in range(7):
            kernel.spawn_thread(proc, io_worker())
    kernel.run()
    return kernel.now


SCENARIOS = {
    # name: (runner, busy LWPs, ticks/s floor)
    #
    # Floors guard the batched-accounting + I/O-drain fast paths from
    # regressing back to per-object walking: they sit ~3x under the
    # numbers a warm dev host measures, leaving headroom for slower CI
    # hardware while still tripping on any structural slowdown.
    "busy": (_run_busy_node, 64, 8000),
    "mostly_idle": (_run_mostly_idle_node, 2, 100_000),
    "blocked_heavy": (_run_blocked_heavy_node, 32, 4000),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_simulator_throughput(benchmark, scenario):
    runner, lwps, floor = SCENARIOS[scenario]
    ticks = benchmark.pedantic(runner, rounds=3, iterations=1)
    seconds = benchmark.stats["mean"]
    ticks_per_sec = ticks / seconds
    banner(f"Simulator throughput [{scenario}] ({lwps} LWPs, one Frontier node)",
           "substrate regression guard, not a paper artefact")
    print(f"{ticks_per_sec:,.0f} simulated jiffies/s "
          f"({ticks_per_sec / 100:,.1f}x real time, {ticks} ticks simulated)")
    assert ticks_per_sec > floor, (
        f"{scenario}: {ticks_per_sec:,.0f} ticks/s below the {floor:,} floor"
    )
    benchmark.extra_info.update(
        scenario=scenario, ticks=ticks, busy_lwps=lwps,
        ticks_per_sec=ticks_per_sec,
    )
