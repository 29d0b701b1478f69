"""P2P interposition: the ZeroSum wrapper seam."""

from types import SimpleNamespace

import pytest

from repro.core import CommMatrix, merge_monitors
from repro.errors import MonitorError, MpiError
from repro.kernel import SimKernel
from repro.mpi import MpiJob, P2PRecorder
from repro.topology import CpuSet, generic_node


def run_ring(nranks=4, iterations=3, nbytes=1000, recorders=None):
    kernel = SimKernel(generic_node(cores=nranks))
    job = MpiJob(kernel)
    comms = {}

    def factory(r):
        def gen():
            comm = comms[r]
            size = comm.Get_size()
            for it in range(iterations):
                yield from comm.send(b"", dest=(r + 1) % size, tag=it,
                                     nbytes=nbytes)
                yield from comm.recv(source=(r - 1) % size, tag=it)

        return gen()

    for r in range(nranks):
        proc = kernel.spawn_process(kernel.nodes[0], CpuSet([r]), factory(r))
        comms[r] = job.add_rank(r, proc)
        if recorders:
            recorders[r].attach(comms[r])
    job.finalize_ranks()
    kernel.run()
    return comms


class TestRecorder:
    def test_bytes_matrix(self):
        rec = P2PRecorder(4)
        run_ring(recorders={r: rec for r in range(4)})
        assert rec.bytes[0, 1] == 3000
        assert rec.bytes[3, 0] == 3000
        assert rec.bytes[0, 2] == 0
        assert rec.messages[0, 1] == 3

    def test_total(self):
        rec = P2PRecorder(4)
        run_ring(recorders={r: rec for r in range(4)})
        assert rec.total_bytes() == 4 * 3 * 1000

    def test_per_rank_recorders_merge(self):
        recs = {r: P2PRecorder(4) for r in range(4)}
        run_ring(recorders=recs)
        merged = merge_monitors(
            [SimpleNamespace(recorder=recs[r]) for r in range(4)]
        )
        assert merged.total_bytes() == 12000
        assert merged.bytes[3, 0] == 3000
        assert merged.messages[0, 1] == 3
        # each per-rank recorder only saw its own sends
        assert recs[0].bytes.sum() == 3000
        assert recs[0].pairs == {(0, 1): [3000, 3]}

    def test_merge_size_mismatch(self):
        with pytest.raises(MonitorError):
            merge_monitors(
                [SimpleNamespace(recorder=P2PRecorder(n)) for n in (2, 3)]
            )

    def test_dense_views_are_read_only(self):
        rec = P2PRecorder(4)
        run_ring(recorders={r: rec for r in range(4)})
        with pytest.raises(ValueError):
            rec.bytes[0, 1] = 0
        with pytest.raises(ValueError):
            rec.messages[0, 1] = 0

    def test_detach_stops_recording(self):
        kernel = SimKernel(generic_node(cores=2))
        job = MpiJob(kernel)
        rec = P2PRecorder(2)
        comms = {}

        def factory(r):
            def gen():
                if r == 0:
                    yield from comms[0].send(b"", dest=1, nbytes=10)
                else:
                    yield from comms[1].recv()

            return gen()

        for r in range(2):
            proc = kernel.spawn_process(kernel.nodes[0], CpuSet([r]), factory(r))
            comms[r] = job.add_rank(r, proc)
        rec.attach(comms[0])
        rec.detach_all()
        job.finalize_ranks()
        kernel.run()
        assert rec.total_bytes() == 0

    def test_diagonal_dominance_ring(self):
        rec = P2PRecorder(4)
        run_ring(recorders={r: rec for r in range(4)})
        matrix = CommMatrix(bytes=rec.bytes, messages=rec.messages)
        assert matrix.diagonal_dominance(band=1) == 1.0

    def test_diagonal_dominance_empty(self):
        assert CommMatrix.zeros(4).diagonal_dominance() == 0.0

    def test_bad_world_size(self):
        with pytest.raises(MpiError):
            P2PRecorder(0)

    def test_recorder_smaller_than_job_rejected(self):
        kernel = SimKernel(generic_node(cores=2))
        job = MpiJob(kernel)
        comms = {}
        for r in range(2):
            proc = kernel.spawn_process(kernel.nodes[0], CpuSet([r]), iter([]))
            comms[r] = job.add_rank(r, proc)
        small = P2PRecorder(1)
        with pytest.raises(MpiError):
            small.attach(comms[0])
