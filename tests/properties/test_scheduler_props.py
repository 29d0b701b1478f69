"""Property-based scheduler invariants.

Whatever the workload mix, these must hold:

* jiffy conservation — LWP-charged jiffies equal HWT busy jiffies, and
  per-HWT busy + idle equals elapsed ticks;
* affinity — a thread only ever executes on allowed CPUs;
* monotonicity — counters never decrease;
* determinism — identical inputs give identical outcomes;
* window jump — skipping the ticks that need no scheduler decision is
  bit-identical to stepping every one of them, whatever mixes of
  compute, sleep, file I/O, GPU offload, timers, time-sliced CPUs,
  wakes and affinity moves the run holds.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import KernelRequest
from repro.kernel import Call, Compute, Event, FileIo, SimKernel, Sleep, Wait
from repro.procfs import ProcFS
from repro.topology import CpuSet, generic_node


@st.composite
def workloads(draw):
    """A small random workload: threads with compute/sleep phases."""
    n_threads = draw(st.integers(1, 5))
    threads = []
    for _ in range(n_threads):
        phases = draw(
            st.lists(
                st.tuples(
                    st.sampled_from(["compute", "sleep"]),
                    st.floats(0.5, 20.0),
                    st.floats(0.0, 1.0),
                ),
                min_size=1,
                max_size=4,
            )
        )
        affinity = draw(st.sampled_from([None, [0], [1], [0, 1], [2, 3],
                                         [0, 1, 2, 3]]))
        threads.append((phases, affinity))
    return threads


def build_and_run(threads, timeslice=2):
    kernel = SimKernel(generic_node(cores=4), timeslice=timeslice)

    def behavior(phases):
        def gen():
            for kind, amount, frac in phases:
                if kind == "compute":
                    yield Compute(amount, user_frac=frac)
                else:
                    yield Sleep(max(1, int(amount)))

        return gen()

    proc = kernel.spawn_process(
        kernel.nodes[0], CpuSet([0, 1, 2, 3]), behavior(threads[0][0]),
        command="prop",
    )
    lwps = [proc.main_thread]
    for phases, affinity in threads[1:]:
        lwps.append(
            kernel.spawn_thread(
                proc,
                behavior(phases),
                affinity=CpuSet(affinity) if affinity else None,
            )
        )
    # main thread ignores its row's affinity (process-wide), fine
    ticks = kernel.run(max_ticks=50_000)
    return kernel, proc, lwps, ticks


class TestConservation:
    @given(workloads())
    @settings(max_examples=40, deadline=None)
    def test_jiffy_conservation(self, threads):
        kernel, proc, lwps, ticks = build_and_run(threads)
        lwp_total = sum(t.total_jiffies for t in lwps)
        hwt_total = sum(h.busy_jiffies for h in kernel.nodes[0].hwts.values())
        assert lwp_total == pytest.approx(hwt_total, abs=1e-6)
        expected = sum(
            amount for phases, _ in threads for kind, amount, _ in phases
            if kind == "compute"
        )
        assert lwp_total == pytest.approx(expected, abs=1e-6)

    @given(workloads())
    @settings(max_examples=40, deadline=None)
    def test_busy_plus_idle_equals_elapsed(self, threads):
        kernel, proc, lwps, ticks = build_and_run(threads)
        now = kernel.now
        for h in kernel.nodes[0].hwts.values():
            assert h.busy_jiffies + h.idle_at(now) == pytest.approx(now, abs=1e-6)

    @given(workloads())
    @settings(max_examples=40, deadline=None)
    def test_affinity_never_violated(self, threads):
        kernel, proc, lwps, ticks = build_and_run(threads)
        for lwp in lwps:
            assert set(lwp.cpu_jiffies) <= set(lwp.affinity)

    @given(workloads())
    @settings(max_examples=40, deadline=None)
    def test_all_work_completes(self, threads):
        kernel, proc, lwps, ticks = build_and_run(threads)
        assert all(not t.alive for t in lwps)
        assert proc.exit_code == 0

    @given(workloads())
    @settings(max_examples=25, deadline=None)
    def test_determinism(self, threads):
        def fingerprint():
            kernel, proc, lwps, ticks = build_and_run(threads)
            return (
                ticks,
                tuple((t.utime, t.stime, t.vcsw, t.nvcsw) for t in lwps),
            )

        assert fingerprint() == fingerprint()

    @given(workloads(), st.integers(1, 6))
    @settings(max_examples=25, deadline=None)
    def test_timeslice_does_not_change_total_work(self, threads, timeslice):
        _, _, lwps, _ = build_and_run(threads, timeslice=timeslice)
        total = sum(t.total_jiffies for t in lwps)
        _, _, lwps2, _ = build_and_run(threads, timeslice=3)
        assert total == pytest.approx(sum(t.total_jiffies for t in lwps2))


class TestSerializationBound:
    @given(st.lists(st.floats(1.0, 30.0), min_size=1, max_size=6))
    @settings(max_examples=30, deadline=None)
    def test_wall_time_bounds(self, works):
        """Wall time is at least max(work) and at most sum(work)+slack."""
        kernel = SimKernel(generic_node(cores=4))

        def gen(j):
            def g():
                yield Compute(j)

            return g()

        proc = kernel.spawn_process(
            kernel.nodes[0], CpuSet([0, 1, 2, 3]), gen(works[0])
        )
        for j in works[1:]:
            kernel.spawn_thread(proc, gen(j))
        ticks = kernel.run(max_ticks=100_000)
        assert ticks >= max(works) - 1
        assert ticks <= sum(works) + 10


# -- window jump vs stepping -------------------------------------------------

_MIXED_PHASE = st.one_of(
    st.tuples(st.just("compute"), st.floats(0.3, 60.0), st.floats(0.0, 1.0)),
    st.tuples(st.just("sleep"), st.integers(1, 40)),
    st.tuples(st.just("io"), st.integers(1, 90_000_000), st.booleans()),
    st.tuples(st.just("gpu"), st.floats(0.5, 45.0), st.integers(0, 1)),
    st.tuples(st.just("wait")),
)
#: single CPUs are drawn often, so several threads share one and
#: time-slice it
_AFFINITIES = [None, [0], [0], [0], [1], [1], [2], [2, 3], [0, 1, 2, 3]]


@st.composite
def mixed_runs(draw):
    """Threads mixing every kind of directive on a drawn timeslice and
    balance interval; fire-and-forget GPU kernels submitted by timers;
    a timer that sets the event every ``wait`` phase blocks on (a wake
    onto a CPU that may be busy); timers that re-pin a thread, so its
    first run on the new CPU may fall in a round-robin window; and the
    ``max_ticks`` slices the run is observed at."""
    return {
        "threads": [
            (
                draw(st.lists(_MIXED_PHASE, min_size=1, max_size=6)),
                draw(st.sampled_from(_AFFINITIES)),
            )
            for _ in range(draw(st.integers(1, 9)))
        ],
        "timers": draw(
            st.lists(
                st.tuples(st.integers(0, 150), st.floats(0.5, 30.0),
                          st.integers(0, 1)),
                max_size=3,
            )
        ),
        "wake_at": draw(st.integers(0, 150)),
        "moves": draw(
            st.lists(
                st.tuples(st.integers(0, 150), st.integers(0, 8),
                          st.sampled_from([[0], [1], [3], [1, 2]])),
                max_size=2,
            )
        ),
        "timeslice": draw(st.integers(1, 4)),
        "lb_interval": draw(st.integers(0, 7)),
        "slices": draw(st.lists(st.integers(1, 80), min_size=1, max_size=6)),
    }


def _mixed_behavior(node, phases, event):
    def gen():
        for phase in phases:
            kind = phase[0]
            if kind == "compute":
                yield Compute(phase[1], user_frac=phase[2])
            elif kind == "sleep":
                yield Sleep(phase[1])
            elif kind == "io":
                yield FileIo(phase[1], write=phase[2])
            elif kind == "wait":
                yield Wait(event)
            else:
                dev = node.gpus[phase[2]]
                request = KernelRequest(jiffies=phase[1])
                done = yield Call(lambda k, l: dev.submit(request, k.now))
                yield Wait(done)

    return gen()


def _mixed_world(run, fast_forward, vector_accounting):
    threads = run["threads"]
    kernel = SimKernel(
        generic_node(cores=4, gpus=2),
        timeslice=run["timeslice"],
        lb_interval=run["lb_interval"],
        fast_forward=fast_forward,
        vector_accounting=vector_accounting,
    )
    node = kernel.nodes[0]
    event = Event("wake")
    proc = kernel.spawn_process(
        node, CpuSet([0, 1, 2, 3]),
        _mixed_behavior(node, threads[0][0], event), command="mixed",
    )
    lwps = [proc.main_thread]
    for phases, affinity in threads[1:]:
        lwps.append(kernel.spawn_thread(
            proc,
            _mixed_behavior(node, phases, event),
            affinity=CpuSet(affinity) if affinity else None,
        ))
    for tick, jiffies, gpu in run["timers"]:
        dev = node.gpus[gpu]
        kernel.call_at(
            tick,
            lambda k, dev=dev, jiffies=jiffies: dev.submit(
                KernelRequest(jiffies=jiffies), k.now
            ),
        )
    kernel.call_at(run["wake_at"], event.set)
    for tick, index, cpus in run["moves"]:
        lwp = lwps[index % len(lwps)]
        kernel.call_at(
            tick,
            lambda k, lwp=lwp, cpus=cpus: k.set_affinity(lwp, CpuSet(cpus)),
        )
    return kernel, proc


def _observed(kernel, proc):
    """What a monitor can see: /proc text, thread counters, sensors; and
    the scheduler state the next tick starts from."""
    node = kernel.nodes[0]
    fs = ProcFS(kernel, node)
    state = [kernel.now, fs.read("/proc/stat"), fs.read(f"/proc/{proc.pid}/io")]
    for tid in fs.listdir(f"/proc/{proc.pid}/task") if proc.alive else ():
        state.append(fs.read(f"/proc/{proc.pid}/task/{tid}/stat"))
        state.append(fs.read(f"/proc/{proc.pid}/task/{tid}/status"))
    for lwp in proc.threads.values():
        state.append((lwp.tid, lwp.state, lwp.utime, lwp.stime, lwp.vcsw,
                      lwp.nvcsw, lwp.migrations, lwp.last_cpu, lwp.cur_cpu))
    for hwt in node.hwts.values():
        current = hwt.current.tid if hwt.current is not None else None
        state.append((hwt.user, hwt.system, hwt.iowait, current,
                      [lwp.tid for lwp in hwt.runqueue]))
    for dev in node.gpus:
        state.append((dev.total_jiffies, dev.busy_jiffies, dev.clock_gfx_mhz,
                      dev.power_w, dev.temperature_c, dev.energy_j,
                      dev.gfx_activity, dev.memory_activity,
                      dev.kernels_completed, dev.pending_kernels))
    return state


class TestWindowJump:
    @pytest.mark.parametrize("vector_accounting", [True, False])
    @given(run=mixed_runs())
    @settings(max_examples=30, deadline=None)
    def test_jump_matches_stepping(self, vector_accounting, run):
        worlds = [
            _mixed_world(run, fast_forward, vector_accounting)
            for fast_forward in (True, False)
        ]
        for ticks in run["slices"] + [50_000]:
            observed = []
            for kernel, proc in worlds:
                kernel.run(max_ticks=ticks)
                observed.append(_observed(kernel, proc))
            assert observed[0] == observed[1]
        assert not worlds[0][0].alive_work()
