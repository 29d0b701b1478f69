"""Determinism suite for the window jump.

The event-driven run loop jumps every window of ticks that needs no
scheduler decision: every busy CPU on the batched (SoA) accounting
path or in a steady round-robin, or none busy at all, GPU kernels
running but none starting or ending, I/O draining without a
completion, no sleeper or timer due.
These tests pin down the invariant that makes that legal: a jumped run
is **bit-identical** to stepping through the same window one jiffy at
a time — same ``/proc`` text, same per-thread counters, same GPU
sensors, same final tick — and show that the common shapes (steady
compute, a host waiting on its GPU, threads time-slicing one CPU) are
mostly jumped.
"""

import pytest

from repro.gpu import KernelRequest
from repro.kernel import Call, Compute, SimKernel, Sleep, Wait
from repro.procfs import ProcFS
from repro.topology import CpuSet, frontier_node, generic_node


def _phased(compute, sleep, reps):
    """A thread alternating short bursts with long sleeps."""
    def g():
        for _ in range(reps):
            yield Compute(compute, user_frac=0.7)
            yield Sleep(sleep)
    return g()


def _build(fast_forward):
    """One Frontier node (GPUs included: their idle sensor decay must
    survive the jump) running a sleep-heavy three-thread workload."""
    kernel = SimKernel(frontier_node(), fast_forward=fast_forward)
    node = kernel.nodes[0]
    proc = kernel.spawn_process(
        node, CpuSet.range(1, 4), _phased(3, 57, 6), command="app"
    )
    kernel.spawn_thread(proc, _phased(2, 83, 4), name="w1")
    kernel.spawn_thread(proc, _phased(5, 131, 3), name="w2",
                        affinity=CpuSet([2]))
    # a far-out timer: jumps must stop at timer deadlines too
    kernel.call_at(400, lambda k: None)
    return kernel, proc


def _observable_state(kernel, proc):
    """Everything the monitor can see: /proc text, counters, sensors."""
    node = kernel.nodes[0]
    fs = ProcFS(kernel, node)
    state = [
        kernel.now,
        fs.read("/proc/stat"),
        fs.read("/proc/uptime"),
    ]
    for tid in sorted(proc.threads):
        state.append(fs.read(f"/proc/{proc.pid}/task/{tid}/stat"))
        state.append(fs.read(f"/proc/{proc.pid}/task/{tid}/status"))
    for lwp in proc.threads.values():
        state.append((lwp.tid, lwp.vcsw, lwp.nvcsw, lwp.migrations,
                      lwp.utime, lwp.stime))
    for dev in node.gpus:
        state.append((dev.total_jiffies, dev.busy_jiffies, dev.clock_gfx_mhz,
                      dev.power_w, dev.temperature_c, dev.energy_j,
                      dev.gfx_activity, dev.memory_activity))
    return state


def _count_steps(kernel):
    """Run to completion; (ticks, ticks stepped one at a time)."""
    steps = 0
    orig = kernel.step

    def counting():
        nonlocal steps
        steps += 1
        orig()

    kernel.step = counting
    return kernel.run(), steps


class TestBitIdentity:
    def test_full_run_identical(self):
        stepped_kernel, stepped_proc = _build(fast_forward=False)
        ff_kernel, ff_proc = _build(fast_forward=True)
        stepped_ticks = stepped_kernel.run()
        ff_ticks = ff_kernel.run()
        assert stepped_ticks == ff_ticks
        assert _observable_state(stepped_kernel, stepped_proc) == \
            _observable_state(ff_kernel, ff_proc)

    def test_intermediate_boundaries_identical(self):
        """Bit-identity holds at every 50-tick boundary, not just at
        the end — jumps clamp to the caller's max_ticks budget."""
        stepped_kernel, stepped_proc = _build(fast_forward=False)
        ff_kernel, ff_proc = _build(fast_forward=True)
        for _ in range(40):
            if not stepped_kernel.alive_work():
                break
            stepped_kernel.run(max_ticks=50)
            ff_kernel.run(max_ticks=50)
            assert _observable_state(stepped_kernel, stepped_proc) == \
                _observable_state(ff_kernel, ff_proc)
        assert not ff_kernel.alive_work()

    def test_fast_forward_actually_jumps(self):
        stepped_ticks, stepped_steps = _count_steps(_build(fast_forward=False)[0])
        ff_ticks, ff_steps = _count_steps(_build(fast_forward=True)[0])
        assert stepped_steps == stepped_ticks  # every jiffy stepped
        assert ff_ticks == stepped_ticks
        assert ff_steps < ff_ticks // 2  # most jiffies jumped over


def _steady_compute(fast_forward):
    """Four threads on four CPUs with long fractional computes, split
    by a short sleep: the SoA steady state."""
    kernel = SimKernel(generic_node(cores=4, gpus=1), fast_forward=fast_forward)
    node = kernel.nodes[0]

    def worker(work):
        def g():
            yield Compute(work, user_frac=0.83)
            yield Sleep(7)
            yield Compute(work / 3, user_frac=0.31)
        return g()

    proc = kernel.spawn_process(node, CpuSet([0]), worker(301.7), command="cpu")
    for cpu, work in ((1, 255.3), (2, 412.9), (3, 198.05)):
        kernel.spawn_thread(proc, worker(work), affinity=CpuSet([cpu]))
    return kernel, proc


def _gpu_busy(fast_forward):
    """One host thread offloading long kernels and waiting on them, then
    computing on while the idle device's clock settles and it cools."""
    kernel = SimKernel(generic_node(cores=2, gpus=1), fast_forward=fast_forward)
    node = kernel.nodes[0]
    dev = node.gpus[0]

    def host():
        for jiffies in (80.5, 120.25, 95.0, 60.75):
            yield Compute(2, user_frac=0.6)
            request = KernelRequest(jiffies=jiffies, memory_intensity=0.4)
            done = yield Call(lambda k, l, r=request: dev.submit(r, k.now))
            yield Wait(done)
        yield Compute(600.5, user_frac=0.9)

    proc = kernel.spawn_process(node, CpuSet([0]), host(), command="offload")
    return kernel, proc


def _oversubscribed(fast_forward):
    """Nine threads time-slicing on CPU 0 and four on CPU 1, each with
    its own user fraction, then a sleep (a wake preemption onto the
    busy CPU) and a second compute: steady round-robin windows."""
    kernel = SimKernel(generic_node(cores=4), fast_forward=fast_forward)
    node = kernel.nodes[0]

    def worker(work, user_frac, nap):
        def g():
            yield Compute(work, user_frac=user_frac)
            yield Sleep(nap)
            yield Compute(work / 2, user_frac=1.0 - user_frac)
        return g()

    proc = kernel.spawn_process(
        node, CpuSet([0]), worker(97.3, 0.91, 5), command="oversub"
    )
    for i in range(1, 13):
        kernel.spawn_thread(
            proc,
            worker(60.0 + 13.7 * i, 0.05 + 0.07 * i, 3 + i),
            affinity=CpuSet([0] if i < 9 else [1]),
        )
    return kernel, proc


@pytest.mark.parametrize("scenario", [_steady_compute, _gpu_busy,
                                      _oversubscribed])
def test_window_scenarios_mostly_jumped(scenario):
    stepped_kernel, stepped_proc = scenario(fast_forward=False)
    ff_kernel, ff_proc = scenario(fast_forward=True)
    stepped_ticks, stepped_steps = _count_steps(stepped_kernel)
    ff_ticks, ff_steps = _count_steps(ff_kernel)
    assert stepped_steps == stepped_ticks
    assert ff_ticks == stepped_ticks
    assert _observable_state(ff_kernel, ff_proc) == \
        _observable_state(stepped_kernel, stepped_proc)
    # each scenario steps under 5 % of its ticks when this was written
    assert ff_steps < ff_ticks / 10


class TestJumpGating:
    def test_on_tick_observers_see_every_tick(self):
        kernel, _ = _build(fast_forward=True)
        seen = []
        kernel.on_tick.append(lambda k: seen.append(k.now))
        ticks = kernel.run()
        assert len(seen) == ticks  # observers disable jumping

    def test_until_predicate_checked_every_tick(self):
        kernel, _ = _build(fast_forward=True)
        ticks = kernel.run(until=lambda k: k.now >= 123)
        assert ticks == 123

    def test_max_ticks_clamps_jump(self):
        kernel = SimKernel(generic_node(cores=2), fast_forward=True)

        def long_sleeper():
            yield Sleep(1000)

        kernel.spawn_process(kernel.nodes[0], CpuSet([0]), long_sleeper())
        assert kernel.run(max_ticks=100) == 100
        assert kernel.now == 100
        assert kernel.alive_work()  # still asleep, not skipped past


class TestWakePlacement:
    """Preference order of ``_select_wake_cpu``: previous CPU if idle,
    first idle allowed CPU, previous CPU, least-loaded allowed CPU."""

    @staticmethod
    def _world(busy_on):
        kernel = SimKernel(generic_node(cores=4))
        node = kernel.nodes[0]

        def sleeper():
            yield Sleep(10_000)

        def busy():
            yield Compute(10_000)

        proc = kernel.spawn_process(
            node, node.machine.cpuset(), sleeper(), command="demo"
        )
        for cpu in busy_on:
            kernel.spawn_thread(proc, busy(), affinity=CpuSet([cpu]))
        kernel.step()  # sleeper blocks (cur_cpu=0); busy threads occupy
        lwp = proc.main_thread
        assert lwp.blocked and lwp.cur_cpu == 0
        return kernel, node, lwp

    def test_previous_cpu_when_idle(self):
        kernel, _, lwp = self._world(busy_on=[1, 2, 3])
        assert kernel._select_wake_cpu(lwp) == 0

    def test_first_idle_when_previous_busy(self):
        kernel, _, lwp = self._world(busy_on=[0, 1, 3])
        assert kernel._select_wake_cpu(lwp) == 2

    def test_previous_cpu_when_all_busy(self):
        kernel, _, lwp = self._world(busy_on=[0, 1, 2, 3])
        assert kernel._select_wake_cpu(lwp) == 0

    def test_least_loaded_when_previous_disallowed(self):
        kernel, node, lwp = self._world(busy_on=[0, 1, 2, 3])
        # queue a second thread on CPU 2 so loads differ (2 vs 1)
        def busy():
            yield Compute(10_000)
        kernel.spawn_thread(lwp.process, busy(), affinity=CpuSet([2]))
        lwp.affinity = CpuSet([2, 3])  # previous CPU 0 no longer allowed
        assert node.hwt(2).nr_running > node.hwt(3).nr_running
        assert kernel._select_wake_cpu(lwp) == 3

    def test_wake_lands_on_selected_cpu(self):
        kernel, node, lwp = self._world(busy_on=[0, 2, 3])
        kernel.wake(lwp)
        assert lwp.cur_cpu == 1 or lwp in node.hwt(1).runqueue


@pytest.mark.parametrize("smt_efficiency", [1.0, 0.7])
def test_smt_model_identical_with_fast_forward(smt_efficiency):
    """The SMT contention model keeps its own (full-scan) scheduling
    path; fast-forward must still be bit-identical there."""
    results = []
    for fast_forward in (False, True):
        kernel = SimKernel(
            generic_node(cores=2, smt=2),
            smt_efficiency=smt_efficiency,
            fast_forward=fast_forward,
        )
        node = kernel.nodes[0]
        proc = kernel.spawn_process(
            node, node.machine.cpuset(), _phased(4, 61, 5), command="smt"
        )
        kernel.spawn_thread(proc, _phased(6, 47, 5), name="w")
        kernel.run()
        results.append(_observable_state(kernel, proc))
    assert results[0] == results[1]
