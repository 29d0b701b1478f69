"""Point-to-point interposition: the bytes-per-rank-pair recorder.

This is the simulation analogue of ZeroSum wrapping the MPI
point-to-point API (§3.1.3): a :class:`P2PRecorder` attaches to one or
more rank communicators and accumulates bytes and message counts per
(sender, receiver) pair it saw, which post-processing merges into the
dense matrix behind the Figure 5 communication heatmap.  A rank only
talks to a few peers, so the recorder keeps sparse pairs; the one
place a dense ``size × size`` matrix is built is :func:`dense_matrices`.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.errors import MpiError
from repro.mpi.comm import RankComm

__all__ = ["P2PRecorder", "dense_matrices"]


def dense_matrices(
    world_size: int, blocks: Iterable[np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Sum COO blocks into dense ``(bytes, messages)`` int64 matrices.

    Each block is a ``(k, 4)`` int64 array of ``src, dst, bytes,
    messages`` rows (:meth:`P2PRecorder.coo`); a pair may repeat within
    and across blocks, and its rows add up exactly.
    """
    coo = np.concatenate([np.empty((0, 4), dtype=np.int64), *blocks])
    nbytes = np.zeros((world_size, world_size), dtype=np.int64)
    messages = np.zeros((world_size, world_size), dtype=np.int64)
    where = (coo[:, 0], coo[:, 1])
    np.add.at(nbytes, where, coo[:, 2])
    np.add.at(messages, where, coo[:, 3])
    return nbytes, messages


class P2PRecorder:
    """Accumulates (sender, receiver) → [bytes, messages] pairs."""

    def __init__(self, world_size: int):
        if world_size < 1:
            raise MpiError("world size must be >= 1")
        self.world_size = world_size
        self.pairs: dict[tuple[int, int], list[int]] = {}
        self._attached: list[RankComm] = []

    def attach(self, comm: RankComm) -> None:
        """Install the wrapper on one rank's communicator."""
        if comm.Get_size() > self.world_size:
            raise MpiError(
                f"recorder sized for {self.world_size} ranks, job has "
                f"{comm.Get_size()}"
            )
        comm.p2p_hooks.append(self._record)
        self._attached.append(comm)

    def detach_all(self) -> None:
        """Remove the wrapper from every attached communicator."""
        for comm in self._attached:
            try:
                comm.p2p_hooks.remove(self._record)
            except ValueError:
                pass
        self._attached.clear()

    def _record(self, src: int, dst: int, nbytes: int) -> None:
        entry = self.pairs.setdefault((src, dst), [0, 0])
        entry[0] += nbytes
        entry[1] += 1

    def coo(self) -> np.ndarray:
        """The pairs as a ``(k, 4)`` int64 ``src, dst, bytes, messages``
        array, the form :func:`dense_matrices` sums."""
        rows = [(s, d, b, m) for (s, d), (b, m) in self.pairs.items()]
        return np.array(rows, dtype=np.int64).reshape(-1, 4)

    def _dense(self, column: int) -> np.ndarray:
        view = dense_matrices(self.world_size, [self.coo()])[column]
        view.flags.writeable = False
        return view

    @property
    def bytes(self) -> np.ndarray:
        """Read-only dense ``size × size`` bytes matrix."""
        return self._dense(0)

    @property
    def messages(self) -> np.ndarray:
        """Read-only dense ``size × size`` message-count matrix."""
        return self._dense(1)

    def total_bytes(self) -> int:
        """All point-to-point bytes recorded."""
        return sum(entry[0] for entry in self.pairs.values())
