"""Property-based MPI invariants: conservation, matching, collectives."""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import merge_monitors
from repro.kernel import SimKernel
from repro.mpi import MpiJob, P2PRecorder
from repro.topology import CpuSet, generic_node


@st.composite
def traffic_patterns(draw):
    """Random (src, dst, nbytes, tag) message lists over a small world."""
    size = draw(st.integers(2, 6))
    n_msgs = draw(st.integers(0, 12))
    msgs = []
    for i in range(n_msgs):
        src = draw(st.integers(0, size - 1))
        dst = draw(st.integers(0, size - 1).filter(lambda d: d != src))
        nbytes = draw(st.integers(1, 10**6))
        msgs.append((src, dst, nbytes, i))
    return size, msgs


def run_pattern(size, msgs):
    kernel = SimKernel(generic_node(cores=size))
    job = MpiJob(kernel)
    rec = P2PRecorder(size)
    comms = {}
    received = {r: [] for r in range(size)}

    outgoing = {r: [m for m in msgs if m[0] == r] for r in range(size)}
    incoming = {r: [m for m in msgs if m[1] == r] for r in range(size)}

    def factory(r):
        def gen():
            comm = comms[r]
            for _, dst, nbytes, tag in outgoing[r]:
                yield from comm.send(b"", dest=dst, tag=tag, nbytes=nbytes)
            for src, _, nbytes, tag in incoming[r]:
                yield from comm.recv(source=src, tag=tag)
                received[r].append((src, nbytes, tag))

        return gen()

    for r in range(size):
        proc = kernel.spawn_process(kernel.nodes[0], CpuSet([r]), factory(r))
        comms[r] = job.add_rank(r, proc)
        rec.attach(comms[r])
    job.finalize_ranks()
    kernel.run(max_ticks=100_000)
    return kernel, comms, rec, received


class TestConservation:
    @given(traffic_patterns())
    @settings(max_examples=40, deadline=None)
    def test_every_message_delivered(self, pattern):
        size, msgs = pattern
        kernel, comms, rec, received = run_pattern(size, msgs)
        for r in range(size):
            expected = sorted(
                (src, nbytes, tag) for src, dst, nbytes, tag in msgs if dst == r
            )
            assert sorted(received[r]) == expected

    @given(traffic_patterns())
    @settings(max_examples=40, deadline=None)
    def test_bytes_conserved(self, pattern):
        size, msgs = pattern
        kernel, comms, rec, received = run_pattern(size, msgs)
        sent = sum(c.sent_bytes for c in comms.values())
        recv = sum(c.recv_bytes for c in comms.values())
        total = sum(nbytes for _, _, nbytes, _ in msgs)
        assert sent == recv == total
        assert rec.total_bytes() == total

    @given(traffic_patterns())
    @settings(max_examples=40, deadline=None)
    def test_recorder_matrix_matches_counts(self, pattern):
        size, msgs = pattern
        _, _, rec, _ = run_pattern(size, msgs)
        for src in range(size):
            for dst in range(size):
                expected = sum(
                    1 for s, d, _, _ in msgs if (s, d) == (src, dst)
                )
                assert rec.messages[src, dst] == expected

    @given(st.integers(2, 8), st.integers(1, 5))
    @settings(max_examples=25, deadline=None)
    def test_allreduce_agrees_across_ranks(self, size, rounds):
        kernel = SimKernel(generic_node(cores=size))
        job = MpiJob(kernel)
        comms = {}
        results = {r: [] for r in range(size)}

        def factory(r):
            def gen():
                for it in range(rounds):
                    value = yield from comms[r].allreduce(r * 10 + it)
                    results[r].append(value)

            return gen()

        for r in range(size):
            proc = kernel.spawn_process(
                kernel.nodes[0], CpuSet([r]), factory(r)
            )
            comms[r] = job.add_rank(r, proc)
        job.finalize_ranks()
        kernel.run(max_ticks=100_000)
        for it in range(rounds):
            values = {results[r][it] for r in range(size)}
            assert len(values) == 1
        assert not job._coll_states


@st.composite
def spread_sends(draw):
    """Random sends over a world, each rank's comm owned by one of a few
    recorders: recorder 0 always owns ranks 0 and 1, and one extra
    recorder owns no rank.  Byte counts reach past 2**53, where a
    float64 accumulation would round."""
    size = draw(st.integers(2, 8))
    sends = draw(
        st.lists(
            st.tuples(
                st.integers(0, size - 1),
                st.integers(0, size - 1),
                st.integers(1, 2**58),
            ),
            max_size=16,
        )
    )
    owned = draw(st.integers(1, size - 1))
    owner = [0, 0] + [
        draw(st.integers(0, owned - 1)) for _ in range(size - 2)
    ]
    return size, sends, owner, owned + 1


class TestSparseMerge:
    @given(spread_sends())
    @settings(max_examples=60, deadline=None)
    def test_merge_and_views_equal_dense_reference(self, case):
        size, sends, owner, n_recorders = case
        recorders = [P2PRecorder(size) for _ in range(n_recorders)]
        # one stand-in communicator per rank; a send runs its hooks the
        # way RankComm.send does
        comms = [
            SimpleNamespace(Get_size=lambda: size, p2p_hooks=[])
            for _ in range(size)
        ]
        for rank, comm in enumerate(comms):
            recorders[owner[rank]].attach(comm)
        def zeros():
            return [[0] * size for _ in range(size)]

        # plain (bytes, messages) accumulations: per recorder and overall
        expected = [(zeros(), zeros()) for _ in recorders]
        total = (zeros(), zeros())
        for src, dst, nbytes in sends:
            for hook in comms[src].p2p_hooks:
                hook(src, dst, nbytes)
            for ref in (expected[owner[src]], total):
                ref[0][src][dst] += nbytes
                ref[1][src][dst] += 1

        for rec, (nbytes, messages) in zip(recorders, expected):
            assert rec.bytes.dtype == rec.messages.dtype == np.int64
            assert rec.bytes.tolist() == nbytes
            assert rec.messages.tolist() == messages
        assert recorders[-1].pairs == {}

        merged = merge_monitors([SimpleNamespace(recorder=r) for r in recorders])
        assert merged.bytes.dtype == merged.messages.dtype == np.int64
        assert merged.bytes.tolist() == total[0]
        assert merged.messages.tolist() == total[1]
        assert merged.total_bytes() == sum(n for _, _, n in sends)
