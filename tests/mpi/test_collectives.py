"""Collective operations over the simulated communicator."""

from repro.kernel import Call, Compute, SimKernel
from repro.mpi import MpiJob
from repro.topology import CpuSet, generic_node


def run_collective(nranks, body):
    """Spawn nranks ranks whose behavior is body(rank, comm); collect results."""
    kernel = SimKernel(generic_node(cores=nranks))
    job = MpiJob(kernel)
    results = {}
    comms = {}

    def factory(r):
        def gen():
            out = yield from body(r, comms[r])
            results[r] = out

        return gen()

    for r in range(nranks):
        proc = kernel.spawn_process(kernel.nodes[0], CpuSet([r]), factory(r))
        comms[r] = job.add_rank(r, proc)
    job.finalize_ranks()
    kernel.run()
    assert not job._coll_states, "collective state leaked"
    return results


class TestRendezvous:
    def test_allreduce_synchronizes(self):
        times = {}

        def body(r, comm):
            yield Compute(5 * (r + 1))
            yield from comm.allreduce(r)
            times[r] = yield Call(lambda k, l: k.now)
            return None

        run_collective(3, body)
        assert max(times.values()) - min(times.values()) <= 1

    def test_repeated_allreduces(self):
        def body(r, comm):
            out = []
            for i in range(5):
                out.append((yield from comm.allreduce(r + i)))
            return out

        results = run_collective(2, body)
        assert all(v == [1, 3, 5, 7, 9] for v in results.values())


class TestReductions:
    def test_allreduce_sum(self):
        def body(r, comm):
            out = yield from comm.allreduce(float(r))
            return out

        results = run_collective(4, body)
        assert all(v == 6.0 for v in results.values())

    def test_allreduce_custom_op(self):
        def body(r, comm):
            out = yield from comm.allreduce(r, op=max)
            return out

        results = run_collective(5, body)
        assert all(v == 4 for v in results.values())

    def test_collectives_not_counted_as_p2p(self):
        from repro.mpi import P2PRecorder

        kernel = SimKernel(generic_node(cores=2))
        job = MpiJob(kernel)
        rec = P2PRecorder(2)
        comms = {}

        def factory(r):
            def gen():
                yield from comms[r].allreduce(r)
                yield from comms[r].allreduce(r)

            return gen()

        for r in range(2):
            proc = kernel.spawn_process(kernel.nodes[0], CpuSet([r]), factory(r))
            comms[r] = job.add_rank(r, proc)
            rec.attach(comms[r])
        job.finalize_ranks()
        kernel.run()
        assert rec.total_bytes() == 0
