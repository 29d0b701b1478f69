"""Batched (SoA) accounting: bit-identity against the scalar path.

The vectorized fast path (``repro.kernel.soa``) must be observationally
indistinguishable from per-object accounting — the determinism suites
(fast-forward, sharded merges, journal recovery) pin exact float
equality, so these tests compare full ``float.hex()`` fingerprints of
every LWP, HWT, GPU, and I/O counter across
``vector_accounting=True`` vs ``False`` (the batch path vs the slow
path, which is the oracle).
"""

from repro.kernel import Compute, FileIo, SimKernel, Sleep
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


def _mixed(vector: bool) -> SimKernel:
    """Oversubscription + I/O + sleep + affinity churn + a kill: every
    eviction path (wakeups onto enrolled CPUs, affinity moves, death)
    fires while members are mid-batch."""
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
    kernel.run()
    return kernel


class TestVectorVsScalar:
    def test_busy_saturated_node(self):
        assert _fingerprint(_busy(True)) == _fingerprint(_busy(False))

    def test_mixed_workload(self):
        assert _fingerprint(_mixed(True)) == _fingerprint(_mixed(False))

    def test_mid_run_property_reads_evict(self):
        """Reading an enrolled counter through its property mid-run
        must observe the batched ticks, not a stale object field."""
        vec = SimKernel(frontier_node(), vector_accounting=True)
        sca = SimKernel(frontier_node(), vector_accounting=False)
        lwps = []
        for kernel in (vec, sca):
            proc = kernel.spawn_process(
                kernel.nodes[0], CpuSet([1]), iter([Compute(100)])
            )
            lwps.append(proc.main_thread)
        for _ in range(30):
            vec.step()
            sca.step()
        # the mid-run read itself is part of the test: it forces an
        # eviction while the member is mid-batch
        assert lwps[0].utime.hex() == lwps[1].utime.hex()
        for _ in range(30):
            vec.step()
            sca.step()
        assert _fingerprint(vec) == _fingerprint(sca)
