"""Simulated MPI: communicators, point-to-point, collectives.

The API deliberately mirrors mpi4py's lower-case object interface
(``send``/``recv``/``irecv``/``waitall``/``allreduce``), but
every call is a *generator* to be driven with ``yield from`` inside an
LWP behavior, since blocking must be expressed to the simulated kernel.

Point-to-point calls run through an interposition hook list — this is
the seam ZeroSum's wrapper (§3.1.3) attaches to in order to accumulate
the bytes-per-rank-pair matrix behind the Figure 5 heatmap.
Collectives do not pass through the hooks, matching the paper's
wrapping of only the point-to-point API.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.errors import MpiError
from repro.kernel.directives import Call, Compute, Wait
from repro.kernel.events import Event, WaitObject
from repro.kernel.lwp import Behavior
from repro.kernel.process import SimProcess
from repro.kernel.scheduler import SimKernel
from repro.mpi.fabric import Fabric, Message, ShardFabric

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "Request",
    "RankComm",
    "MpiJob",
    "ShardMpiJob",
    "payload_nbytes",
]

ANY_SOURCE = -1
ANY_TAG = -1

#: hook signature: (src_rank, dst_rank, nbytes)
P2PHook = Callable[[int, int, int], None]


def payload_nbytes(payload: object) -> int:
    """Best-effort wire size of a payload (numpy-aware)."""
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode())
    if isinstance(payload, (int, float, complex, bool, type(None))):
        return 8
    if isinstance(payload, (list, tuple)):
        return sum(payload_nbytes(p) for p in payload) + 8
    if isinstance(payload, dict):
        return sum(
            payload_nbytes(k) + payload_nbytes(v) for k, v in payload.items()
        ) + 8
    return 64  # opaque object


class _Arrival(WaitObject):
    """Condition-variable-style wait object for message arrival."""


@dataclass
class Request:
    """Nonblocking receive handle (mpi4py ``Request``)."""

    comm: "RankComm"
    source: int = ANY_SOURCE
    tag: int = ANY_TAG
    message: Optional[Message] = None
    completed: bool = False

    def test(self) -> bool:
        """Nonblocking completion check (no sim-time cost)."""
        if self.completed:
            return True
        msg = self.comm._match(self.source, self.tag)
        if msg is not None:
            self.message = msg
            self.completed = True
            return True
        return False

    def wait(self) -> Behavior:
        """Generator: block until complete; returns the received payload."""
        while not self.test():
            yield Wait(self.comm._arrival)
        return self.message.payload if self.message is not None else None


@dataclass
class _CollState:
    """Shared state for one in-flight collective operation."""

    parties: int
    arrived: int = 0
    departed: int = 0
    data: dict[object, object] = field(default_factory=dict)
    result: object = None
    event: Event = field(default_factory=lambda: Event("coll"))
    #: ranks that arrived here, in arrival order (sharded launch reports
    #: these to the orchestrator at epoch barriers)
    joiners: list[int] = field(default_factory=list)
    #: the finish closure of any arrived rank — rank-independent for
    #: every collective above, so the orchestrator-driven completion
    #: path can run it when remote contributions complete the set
    finish_fn: Optional[Callable[["_CollState"], None]] = None


class MpiJob:
    """One MPI_COMM_WORLD across simulated processes."""

    def __init__(self, kernel: SimKernel, fabric: Optional[Fabric] = None):
        self.kernel = kernel
        self.fabric = fabric or Fabric()
        self.comms: dict[int, "RankComm"] = {}
        self._coll_states: dict[tuple[str, int], _CollState] = {}
        self._seq = itertools.count()

    @property
    def size(self) -> int:
        return len(self.comms)

    def add_rank(self, rank: int, process: SimProcess) -> "RankComm":
        """Bind one process to a world rank."""
        if rank in self.comms:
            raise MpiError(f"rank {rank} already registered")
        comm = RankComm(self, rank, process)
        self.comms[rank] = comm
        process.rank = rank
        return comm

    def finalize_ranks(self) -> None:
        """Fix the world size on every process (end of MPI_Init)."""
        for comm in self.comms.values():
            comm.process.world_size = self.size

    # -- cross-shard seam ---------------------------------------------------
    def is_remote_rank(self, rank: int) -> bool:
        """True if ``rank`` exists in the world but lives in another
        shard.  The serial job owns every rank, so: never."""
        return False

    def send_remote(
        self, kernel: SimKernel, src: int, dst: int, message: Message
    ) -> None:
        """Hand a message to a rank owned by another shard."""
        raise MpiError(f"no rank {dst} in communicator")

    # -- collective state management ---------------------------------------
    def coll_state(self, kind: str, seq: int) -> _CollState:
        """Get-or-create rendezvous state for one collective."""
        key = (kind, seq)
        state = self._coll_states.get(key)
        if state is None:
            state = _CollState(parties=self.size)
            self._coll_states[key] = state
        return state

    def coll_all_departed(self, state: _CollState) -> bool:
        """True once every rank this job *hosts* has departed the
        collective — the world for the serial job, the shard-resident
        subset for :class:`ShardMpiJob`."""
        return state.departed >= state.parties

    def coll_discard(self, kind: str, seq: int) -> None:
        """Drop completed collective state."""
        self._coll_states.pop((kind, seq), None)


class RankComm:
    """The communicator handle owned by one rank."""

    #: CPU cost of posting a send/recv, in jiffies (system time heavy)
    CALL_COST = 0.02
    CALL_USER_FRAC = 0.1

    def __init__(self, job: MpiJob, rank: int, process: SimProcess):
        self.job = job
        self.rank = rank
        self.process = process
        self._inbox: list[Message] = []
        self._arrival = _Arrival(name=f"mpi-arrival-{rank}")
        self._msg_seq = itertools.count()
        self._coll_seq: dict[str, itertools.count] = {}
        #: point-to-point interposition hooks (ZeroSum attaches here)
        self.p2p_hooks: list[P2PHook] = []
        # cumulative counters, independent of any tool
        self.sent_bytes = 0
        self.recv_bytes = 0
        self.sent_messages = 0
        self.recv_messages = 0

    # mpi4py-style queries -------------------------------------------------
    def Get_rank(self) -> int:
        """This rank's index in MPI_COMM_WORLD."""
        return self.rank

    def Get_size(self) -> int:
        """World size."""
        return self.job.size

    # -- matching ----------------------------------------------------------
    def _match(self, source: int, tag: int) -> Optional[Message]:
        for i, msg in enumerate(self._inbox):
            if source != ANY_SOURCE and msg.src != source:
                continue
            if tag != ANY_TAG and msg.tag != tag:
                continue
            return self._inbox.pop(i)
        return None

    def _on_arrival(self, kernel: SimKernel, message: Message) -> None:
        self._inbox.append(message)
        self._arrival.wake_all(kernel)

    # -- point-to-point ------------------------------------------------------
    def send(
        self,
        payload: object,
        dest: int,
        tag: int = 0,
        nbytes: Optional[int] = None,
    ) -> Behavior:
        """Blocking standard-mode send (eager: returns after injection)."""
        if dest == self.rank:
            raise MpiError("send to self: use a local buffer")
        size = payload_nbytes(payload) if nbytes is None else int(nbytes)
        dst_comm = self.job.comms.get(dest)
        if dst_comm is None and not self.job.is_remote_rank(dest):
            raise MpiError(f"no rank {dest} in communicator")
        for hook in self.p2p_hooks:
            hook(self.rank, dest, size)
        self.sent_bytes += size
        self.sent_messages += 1
        msg = Message(
            src=self.rank,
            dst=dest,
            tag=tag,
            payload=payload,
            nbytes=size,
            seq=next(self._msg_seq),
        )

        if dst_comm is None:

            def inject(kernel: SimKernel, lwp: object) -> None:
                self.job.send_remote(kernel, self.rank, dest, msg)

        else:

            def inject(kernel: SimKernel, lwp: object) -> None:
                self.job.fabric.deliver(
                    kernel, self.process, dst_comm.process, msg,
                    dst_comm._on_arrival,
                )

        yield Compute(self.CALL_COST, user_frac=self.CALL_USER_FRAC)
        yield Call(inject)

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Behavior:
        """Blocking receive; returns the payload."""
        yield Compute(self.CALL_COST, user_frac=self.CALL_USER_FRAC)
        while True:
            msg = yield Call(lambda k, l: self._match(source, tag))
            if msg is not None:
                assert isinstance(msg, Message)
                self.recv_bytes += msg.nbytes
                self.recv_messages += 1
                return msg.payload
            yield Wait(self._arrival)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Behavior:
        """Nonblocking receive returning a Request (drive with wait())."""
        yield Compute(self.CALL_COST, user_frac=self.CALL_USER_FRAC)
        return Request(comm=self, source=source, tag=tag)

    def wait(self, request: Request) -> Behavior:
        """Block until a request completes; returns its payload."""
        result = yield from request.wait()
        if request.message is not None:
            self.recv_bytes += request.message.nbytes
            self.recv_messages += 1
        return result

    def waitall(self, requests: list[Request]) -> Behavior:
        """Complete every request; returns the payloads in order."""
        results = []
        for request in requests:
            result = yield from self.wait(request)
            results.append(result)
        return results

    # -- collectives (not interposed, like PMPI collectives) -----------------
    def _next_coll_seq(self, kind: str) -> int:
        counter = self._coll_seq.setdefault(kind, itertools.count())
        return next(counter)

    def _collective(self, kind: str, contribute, finish) -> Behavior:
        """Shared rendezvous skeleton: all ranks arrive, last computes."""
        seq = self._next_coll_seq(kind)
        state = self.job.coll_state(kind, seq)
        yield Compute(self.CALL_COST, user_frac=self.CALL_USER_FRAC)

        def arrive(kernel: SimKernel, lwp: object) -> object:
            contribute(state)
            state.arrived += 1
            state.joiners.append(self.rank)
            state.finish_fn = finish
            if state.arrived >= state.parties:
                finish(state)
                state.event.set(kernel)
                return True
            return False

        done = yield Call(arrive)
        if not done:
            yield Wait(state.event)
        result = state.result

        def depart(kernel: SimKernel, lwp: object) -> None:
            state.departed += 1
            if self.job.coll_all_departed(state):
                self.job.coll_discard(kind, seq)

        yield Call(depart)
        return result

    def allreduce(self, value: object, op: Callable = sum) -> Behavior:
        """MPI_Allreduce with a Python reduction over the value list."""
        def contribute(state: _CollState) -> None:
            state.data[self.rank] = value

        def finish(state: _CollState) -> None:
            values = [state.data[r] for r in sorted(state.data)]
            state.result = op(values)

        result = yield from self._collective("allreduce", contribute, finish)
        return result

    def __repr__(self) -> str:
        return f"<RankComm rank={self.rank}/{self.job.size} pid={self.process.pid}>"


class ShardMpiJob(MpiJob):
    """The MPI world as seen from one shard of the sharded launcher.

    Only the shard-resident ranks have live :class:`RankComm` endpoints
    here; ``size`` still reports the *world* size so ``Get_size`` and
    ``finalize_ranks`` behave exactly as in the serial kernel.  Sends to
    non-resident ranks are buffered on the :class:`ShardFabric` outbox
    and exchanged at epoch barriers; collectives rendezvous locally and
    report their contributions to the orchestrator, which completes them
    once every world rank has arrived (see ``launch/sharded.py``).

    Cross-shard collectives are *value-correct but epoch-quantized*:
    completion is observed at the first epoch boundary after the last
    rank arrives, so jobs that issue collectives are merged correctly
    but are not bit-identical in timing to the serial kernel (pure
    point-to-point jobs are).  Contribution payloads must be picklable.
    """

    def __init__(self, kernel: SimKernel, fabric: ShardFabric, world_size: int):
        super().__init__(kernel, fabric=fabric)
        if not isinstance(fabric, ShardFabric):
            raise MpiError("ShardMpiJob requires a ShardFabric")
        self.world_size = world_size
        #: joiners already reported to the orchestrator, per collective
        self._coll_reported: dict[tuple[str, int], int] = {}
        #: data keys already reported, per collective
        self._coll_sent_keys: dict[tuple[str, int], set] = {}

    @property
    def size(self) -> int:
        return self.world_size

    def is_remote_rank(self, rank: int) -> bool:
        return rank not in self.comms and rank in self.fabric.rank_node

    def send_remote(
        self, kernel: SimKernel, src: int, dst: int, message: Message
    ) -> None:
        self.fabric.send_remote(kernel, src, dst, message)

    def coll_all_departed(self, state: _CollState) -> bool:
        # only the shard-resident ranks ever depart here
        return state.departed >= len(self.comms)

    # -- barrier protocol --------------------------------------------------
    def collect_coll_contributions(self) -> list[dict]:
        """New (rank, data) contributions since the last epoch barrier."""
        out: list[dict] = []
        for key in sorted(self._coll_states):
            state = self._coll_states[key]
            reported = self._coll_reported.get(key, 0)
            fresh = state.joiners[reported:]
            if not fresh:
                continue
            self._coll_reported[key] = len(state.joiners)
            sent = self._coll_sent_keys.setdefault(key, set())
            data = {}
            for k, v in state.data.items():
                if k not in sent:
                    sent.add(k)
                    data[k] = v
            out.append(
                {"kind": key[0], "seq": key[1], "joined": len(fresh), "data": data}
            )
        return out

    def complete_collective(
        self, kernel: SimKernel, kind: str, seq: int, data: dict
    ) -> None:
        """Orchestrator callback: every world rank has arrived."""
        key = (kind, seq)
        state = self._coll_states.get(key)
        if state is None or state.finish_fn is None:
            raise MpiError(
                f"collective {key} completed remotely but never "
                "rendezvoused in this shard"
            )
        for k, v in data.items():
            state.data.setdefault(k, v)
        state.arrived = state.parties
        state.finish_fn(state)
        state.event.set(kernel)

    def coll_discard(self, kind: str, seq: int) -> None:
        super().coll_discard(kind, seq)
        self._coll_reported.pop((kind, seq), None)
        self._coll_sent_keys.pop((kind, seq), None)
