"""MPI substrate: point-to-point semantics, matching, requests."""

import numpy as np
import pytest

from repro.errors import MpiError
from repro.kernel import Compute, SimKernel
from repro.mpi import ANY_SOURCE, ANY_TAG, Fabric, MpiJob, payload_nbytes
from repro.topology import CpuSet, generic_node


def make_world(nranks=2, cores=None, fabric=None):
    kernel = SimKernel(generic_node(cores=cores or nranks))
    job = MpiJob(kernel, fabric=fabric)
    return kernel, job


def spawn_ranks(kernel, job, behaviors):
    comms = {}
    for r, behavior_factory in enumerate(behaviors):
        proc = kernel.spawn_process(
            kernel.nodes[0], CpuSet([r]), behavior_factory(r, comms),
            command=f"rank{r}",
        )
        comms[r] = job.add_rank(r, proc)
    job.finalize_ranks()
    return comms


class TestPayloadSize:
    def test_numpy(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80

    def test_bytes(self):
        assert payload_nbytes(b"abc") == 3

    def test_str(self):
        assert payload_nbytes("abcd") == 4

    def test_scalar(self):
        assert payload_nbytes(7) == 8
        assert payload_nbytes(None) == 8

    def test_containers(self):
        assert payload_nbytes([1, 2]) == 24
        assert payload_nbytes({"a": 1}) == 17

    def test_opaque(self):
        assert payload_nbytes(object()) == 64


class TestSendRecv:
    def test_payload_delivered(self):
        kernel, job = make_world()
        got = []

        def behaviors(r, comms):
            def gen():
                comm = comms[r]
                if r == 0:
                    yield from comm.send({"x": 42}, dest=1, tag=7)
                else:
                    msg = yield from comm.recv(source=0, tag=7)
                    got.append(msg)

            return gen()

        spawn_ranks(kernel, job, [behaviors, behaviors])
        kernel.run()
        assert got == [{"x": 42}]

    def test_tag_matching(self):
        kernel, job = make_world()
        order = []

        def behaviors(r, comms):
            def gen():
                comm = comms[r]
                if r == 0:
                    yield from comm.send("first", dest=1, tag=1)
                    yield from comm.send("second", dest=1, tag=2)
                else:
                    msg2 = yield from comm.recv(source=0, tag=2)
                    msg1 = yield from comm.recv(source=0, tag=1)
                    order.extend([msg2, msg1])

            return gen()

        spawn_ranks(kernel, job, [behaviors, behaviors])
        kernel.run()
        assert order == ["second", "first"]

    def test_any_source_any_tag(self):
        kernel, job = make_world(3, cores=3)
        got = []

        def behaviors(r, comms):
            def gen():
                comm = comms[r]
                if r < 2:
                    yield Compute(1 + r)
                    yield from comm.send(r, dest=2)
                else:
                    a = yield from comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
                    b = yield from comm.recv(source=ANY_SOURCE, tag=ANY_TAG)
                    got.extend([a, b])

            return gen()

        spawn_ranks(kernel, job, [behaviors] * 3)
        kernel.run()
        assert sorted(got) == [0, 1]

    def test_send_to_self_rejected(self):
        kernel, job = make_world(1, cores=1)
        errors = []

        def behaviors(r, comms):
            def gen():
                try:
                    yield from comms[r].send(1, dest=0)
                except MpiError as exc:
                    errors.append(str(exc))

            return gen()

        spawn_ranks(kernel, job, [behaviors])
        kernel.run()
        assert errors

    def test_counters(self):
        kernel, job = make_world()

        def behaviors(r, comms):
            def gen():
                comm = comms[r]
                if r == 0:
                    yield from comm.send(b"x" * 100, dest=1)
                else:
                    yield from comm.recv()

            return gen()

        comms = spawn_ranks(kernel, job, [behaviors, behaviors])
        kernel.run()
        assert comms[0].sent_bytes == 100
        assert comms[0].sent_messages == 1
        assert comms[1].recv_bytes == 100

    def test_explicit_nbytes_overrides(self):
        kernel, job = make_world()

        def behaviors(r, comms):
            def gen():
                comm = comms[r]
                if r == 0:
                    yield from comm.send(b"", dest=1, nbytes=12345)
                else:
                    yield from comm.recv()

            return gen()

        comms = spawn_ranks(kernel, job, [behaviors, behaviors])
        kernel.run()
        assert comms[0].sent_bytes == 12345


class TestNonBlocking:
    def test_send_irecv_roundtrip(self):
        kernel, job = make_world()
        got = []

        def behaviors(r, comms):
            def gen():
                comm = comms[r]
                if r == 0:
                    yield from comm.send(np.arange(4), dest=1)
                else:
                    req = yield from comm.irecv(source=0)
                    data = yield from comm.wait(req)
                    got.append(data.sum())

            return gen()

        spawn_ranks(kernel, job, [behaviors, behaviors])
        kernel.run()
        assert got == [6]

    def test_irecv_test_polls(self):
        kernel, job = make_world()
        polls = []

        def behaviors(r, comms):
            def gen():
                comm = comms[r]
                if r == 0:
                    yield Compute(10)
                    yield from comm.send("late", dest=1)
                else:
                    req = yield from comm.irecv(source=0)
                    polls.append(req.test())  # too early
                    data = yield from comm.wait(req)
                    polls.append(data)

            return gen()

        spawn_ranks(kernel, job, [behaviors, behaviors])
        kernel.run()
        assert polls[0] is False
        assert polls[1] == "late"

    def test_eager_send_ring_no_deadlock(self):
        kernel, job = make_world(4, cores=4)
        results = {}

        def behaviors(r, comms):
            def gen():
                comm = comms[r]
                size = comm.Get_size()
                # every rank sends before it receives: eager sends
                # return after injection, so the ring cannot deadlock
                yield from comm.send(r, dest=(r + 1) % size)
                results[r] = yield from comm.recv(source=(r - 1) % size)

            return gen()

        spawn_ranks(kernel, job, [behaviors] * 4)
        kernel.run()
        assert results == {0: 3, 1: 0, 2: 1, 3: 2}


class TestJob:
    def test_duplicate_rank_rejected(self):
        kernel, job = make_world()

        def dummy(r, comms):
            def gen():
                yield Compute(1)

            return gen()

        spawn_ranks(kernel, job, [dummy])
        proc = kernel.spawn_process(kernel.nodes[0], CpuSet([1]), iter([]))
        with pytest.raises(MpiError):
            job.add_rank(0, proc)

    def test_world_size_set(self):
        kernel, job = make_world(2)

        def dummy(r, comms):
            def gen():
                yield Compute(1)

            return gen()

        comms = spawn_ranks(kernel, job, [dummy, dummy])
        assert comms[0].process.world_size == 2
        assert comms[1].Get_rank() == 1
        assert comms[1].Get_size() == 2

    def test_unknown_rank_rejected(self):
        kernel, job = make_world(1, cores=1)
        errors = []

        def behaviors(r, comms):
            def gen():
                try:
                    yield from comms[r].send(1, dest=5)
                except MpiError as exc:
                    errors.append(str(exc))

            return gen()

        spawn_ranks(kernel, job, [behaviors])
        kernel.run()
        assert errors == ["no rank 5 in communicator"]


class TestFabricTiming:
    def test_large_remote_message_takes_longer(self):
        fabric = Fabric(remote_latency=2, remote_bandwidth=1e6)
        # two nodes so the transfer is remote
        from repro.topology import generic_node as gn

        kernel = SimKernel([gn(cores=1, name="n0"), gn(cores=1, name="n1")])
        job = MpiJob(kernel, fabric=fabric)
        arrival = []

        def behaviors(r):
            def gen():
                comm = comms[r]
                if r == 0:
                    yield from comm.send(b"", dest=1, nbytes=10_000_000)
                else:
                    yield from comm.recv()
                    from repro.kernel import Call
                    arrival.append((yield Call(lambda k, l: k.now)))

            return gen()

        comms = {}
        for r in range(2):
            proc = kernel.spawn_process(kernel.nodes[r], CpuSet([0]), behaviors(r))
            comms[r] = job.add_rank(r, proc)
        job.finalize_ranks()
        kernel.run()
        assert arrival[0] >= 10  # 10 MB / 1 MB-per-tick + latency
