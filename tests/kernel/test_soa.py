"""Batched (SoA) accounting: bit-identity against the scalar path.

The vectorized fast path (``repro.kernel.soa``) must be observationally
indistinguishable from per-object accounting — the determinism suites
(fast-forward, sharded merges, journal recovery) pin exact float
equality, so these tests compare full ``float.hex()`` fingerprints of
every LWP, HWT, GPU, and I/O counter across
``vector_accounting=True`` vs ``False`` (the batch path vs the slow
path, which is the oracle).
"""

import pytest

from repro.kernel import Call, Compute, FileIo, SimKernel, Sleep
from repro.topology import CpuSet, frontier_node


def _fingerprint(kernel: SimKernel) -> dict:
    """Every observable counter, hex-exact."""
    out = {"tick": kernel.now}
    out["lwps"] = [
        (
            tid,
            lwp.utime.hex(),
            lwp.stime.hex(),
            lwp.migrations,
            lwp.vcsw,
            lwp.nvcsw,
            str(lwp.state),
            sorted((c, v.hex()) for c, v in lwp.cpu_jiffies.items()),
        )
        for tid, lwp in sorted(kernel.lwps.items())
    ]
    rows = []
    for node in kernel.nodes:
        for cpu in sorted(node.hwts):
            hwt = node.hwts[cpu]
            rows.append((
                cpu, hwt.user.hex(), hwt.system.hex(), hwt.iowait.hex(),
                hwt.idle_at(kernel.now).hex(),
            ))
        for dev in node.gpus:
            rows.append((
                "gpu", dev.clock_gfx_mhz.hex(), dev.power_w.hex(),
                dev.temperature_c.hex(), dev.energy_j.hex(),
                dev.total_jiffies.hex(), dev.busy_jiffies.hex(),
            ))
        rows.append((
            "io", node.io.total_read, node.io.total_written,
            len(node.io.inflight),
            sorted(r.remaining.hex() for r in node.io.inflight),
        ))
    out["hwts"] = rows
    return out


def _busy(vector: bool) -> SimKernel:
    """64 compute-bound threads, saturated node, stepped mid-compute."""
    kernel = SimKernel(frontier_node(), vector_accounting=vector)

    def gen():
        yield Compute(400)

    for r in range(8):
        cpus = CpuSet.range(1 + 8 * r, 8 + 8 * r)
        proc = kernel.spawn_process(kernel.nodes[0], cpus, gen())
        for _ in range(7):
            kernel.spawn_thread(proc, gen())
    for _ in range(300):
        kernel.step()
    return kernel


def _mixed_world(vector: bool) -> SimKernel:
    """Oversubscription + I/O + sleep + affinity churn + a kill: every
    eviction path (wakeups onto enrolled CPUs, affinity moves, death)
    fires while members are mid-batch.  Built, not yet run."""
    kernel = SimKernel(frontier_node(), vector_accounting=vector)
    node = kernel.nodes[0]

    def worker(i):
        def gen():
            for _ in range(20):
                yield Compute(3 + (i % 5))
                if i % 3 == 0:
                    yield FileIo((1 + i % 4) << 19)
                elif i % 3 == 1:
                    yield Sleep(5 + i % 7)
        return gen()

    procs = []
    for r in range(4):
        cpus = CpuSet.range(1 + 4 * r, 4 + 4 * r)  # 4 CPUs, 6 threads
        proc = kernel.spawn_process(node, cpus, worker(r * 6))
        procs.append(proc)
        for t in range(1, 6):
            kernel.spawn_thread(proc, worker(r * 6 + t))

    def retarget(k):
        victims = [t for t in procs[0].threads.values() if t.alive]
        for lwp in victims[:2]:
            k.set_affinity(lwp, CpuSet.range(5, 8))

    kernel.call_at(37, retarget)
    kernel.call_at(61, lambda k: k.kill_process(procs[2]))
    return kernel


def _mixed(vector: bool) -> SimKernel:
    kernel = _mixed_world(vector)
    kernel.run()
    return kernel


class TestVectorVsScalar:
    def test_busy_saturated_node(self):
        assert _fingerprint(_busy(True)) == _fingerprint(_busy(False))

    def test_mixed_workload(self):
        assert _fingerprint(_mixed(True)) == _fingerprint(_mixed(False))

    def test_mid_pass_reads_go_through(self):
        """An observer on CPU 4 reads two enrolled members mid-pass: the
        one on CPU 1 is behind the pass cursor, the one on CPU 9 ahead
        of it.  Each read must equal the scalar kernel's value and leave
        the batch arrays as they were."""
        runs = {}
        for vector in (True, False):
            kernel = SimKernel(frontier_node(), vector_accounting=vector)
            node = kernel.nodes[0]

            def member():
                yield Compute(120, user_frac=0.7)

            members = [
                kernel.spawn_process(node, CpuSet([cpu]), member()).main_thread
                for cpu in (1, 9)
            ]
            seen = []

            def read(k, _lwp, node=node, members=members, seen=seen):
                assert node._pass_cursor == 4
                acct = node._acct
                n = acct.n if acct is not None else 0
                for lwp in members:
                    hwt = node.hwts[lwp.last_cpu]
                    seen.append((
                        lwp.utime.hex(), lwp.stime.hex(),
                        hwt.user.hex(), hwt.system.hex(),
                    ))
                    if acct is not None:  # the read left it enrolled
                        assert lwp._acct is acct and hwt._acct is acct
                assert (acct.n if acct is not None else 0) == n

            def observer():
                for _ in range(12):
                    yield Sleep(7)
                    yield Call(read)

            kernel.spawn_process(node, CpuSet([4]), observer())
            for _ in range(100):
                kernel.step()
            assert not kernel.crashes
            runs[vector] = kernel, seen
        assert len(runs[True][1]) == 2 * 12
        assert runs[True][1] == runs[False][1]
        assert _fingerprint(runs[True][0]) == _fingerprint(runs[False][0])

    @pytest.mark.parametrize("vector", [True, False])
    def test_active_set_is_the_busy_cpus(self, vector):
        """The idle balancer's premise: after every step a CPU is active
        exactly when it has a thread running or queued."""
        kernel = _mixed_world(vector)
        node = kernel.nodes[0]
        steps = 0
        while kernel.alive_work():
            kernel.step()
            steps += 1
            busy = {c for c, h in node.hwts.items() if h.nr_running > 0}
            assert node.active_cpus == busy, kernel.now
        assert steps > 60  # past the affinity move and the kill
