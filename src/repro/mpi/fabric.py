"""Interconnect model: message delivery with latency and bandwidth.

Delivery cost between two ranks depends on whether they share a node
(shared-memory transport) or communicate across the fabric (Slingshot
on Frontier).  The model is deliberately simple — a base latency plus
a size-proportional serialization delay — because the experiments only
need *relative* communication behaviour (who talks to whom and how
much), not absolute wire performance.

Two delivery planes exist:

* :class:`Fabric` delivers inside one kernel (the serial launcher, and
  intra-shard traffic of the sharded launcher) via kernel timers;
* :class:`ShardFabric` additionally buffers *cross-shard* sends as
  :class:`RemoteEnvelope` records in an outbox that the sharded
  orchestrator drains at every epoch barrier and re-injects into the
  destination shard.  Because every epoch is the fabric lookahead,
  ``int(remote_latency)`` ticks long, a message sent during epoch *k*
  can never be due before epoch *k+1* starts, so barrier exchange
  preserves exact arrival ticks (conservative PDES lookahead).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Optional

import numpy as np

from repro.errors import MpiError

if TYPE_CHECKING:
    from repro.kernel.process import SimProcess
    from repro.kernel.scheduler import SimKernel

__all__ = [
    "Message",
    "Fabric",
    "RemoteEnvelope",
    "ShardFabric",
]


@dataclass
class Message:
    """One point-to-point message in flight or queued at the receiver."""

    src: int
    dst: int
    tag: int
    payload: object
    nbytes: int
    seq: int = 0
    sent_tick: int = 0
    recv_tick: Optional[int] = None


@dataclass
class RemoteEnvelope:
    """A cross-shard message buffered for exchange at the epoch barrier.

    ``(sent_tick, src_node, order)`` reproduces the serial kernel's
    global injection order: within one tick the serial scheduler walks
    nodes in index order, and each node's sends of that tick happen in
    its local program order (``order`` is the shard-local send
    sequence).  Sorting all shards' envelopes by this key before
    re-injection therefore registers arrival timers in exactly the
    order the serial kernel would have.
    """

    arrival_tick: int
    sent_tick: int
    src_node: int  # global node index
    order: int  # shard-local send sequence
    dst_rank: int
    message: Message

    def sort_key(self) -> tuple[int, int, int]:
        return (self.sent_tick, self.src_node, self.order)


@dataclass
class Fabric:
    """Latency/bandwidth model for message delivery.

    Times are in ticks (jiffies); bandwidths in bytes per tick.  The
    defaults approximate "local is instant at jiffy resolution, remote
    costs one jiffy of latency and ~25 GB/s".
    """

    local_latency: int = 0
    remote_latency: int = 1
    local_bandwidth: float = 2.0e9  # bytes / tick (200 GB/s shared memory)
    remote_bandwidth: float = 2.5e8  # bytes / tick (25 GB/s NIC)
    #: multiplicative latency variability (sigma of a lognormal-ish
    #: factor; 0 disables).  Models the "increased or variable network
    #: latency" failure mode of §2 — deterministic given the seed.
    jitter: float = 0.0
    seed: int = 0
    #: total bytes accepted per (src_node, dst_node) pair, for diagnostics
    traffic: dict[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.jitter < 0:
            raise MpiError("jitter must be >= 0")
        self._rng = np.random.default_rng(self.seed)

    def delay_for(self, same_node: bool, nbytes: int) -> int:
        """Delivery delay for one message, in ticks."""
        if nbytes < 0:
            raise MpiError("message size must be >= 0")
        latency = self.local_latency if same_node else self.remote_latency
        bandwidth = self.local_bandwidth if same_node else self.remote_bandwidth
        delay = latency + nbytes / bandwidth
        if self.jitter > 0:
            delay *= float(np.exp(self._rng.normal(0.0, self.jitter)))
        return int(delay)

    def delay_ticks(
        self, src_proc: "SimProcess", dst_proc: "SimProcess", nbytes: int
    ) -> int:
        """Delivery delay between two resident processes, in ticks."""
        return self.delay_for(src_proc.node is dst_proc.node, nbytes)

    def record_traffic(self, src_node: int, dst_node: int, nbytes: int) -> None:
        """Account accepted bytes on the (src, dst) node pair."""
        key = (src_node, dst_node)
        self.traffic[key] = self.traffic.get(key, 0) + nbytes

    def deliver(
        self,
        kernel: "SimKernel",
        src_proc: "SimProcess",
        dst_proc: "SimProcess",
        message: Message,
        on_arrival: Callable[["SimKernel", Message], None],
    ) -> None:
        """Schedule arrival of a message at the destination endpoint."""
        message.sent_tick = kernel.now
        self.record_traffic(
            src_proc.node.node_index, dst_proc.node.node_index, message.nbytes
        )
        delay = self.delay_ticks(src_proc, dst_proc, message.nbytes)

        def arrive(k: "SimKernel") -> None:
            message.recv_tick = k.now
            on_arrival(k, message)

        if delay <= 0:
            # same-tick delivery: enqueue directly so a receiver polling
            # later in this very tick can already match it
            arrive(kernel)
        else:
            kernel.call_after(delay, arrive)


class ShardFabric(Fabric):
    """Fabric of one shard: local delivery plus a cross-shard outbox.

    ``rank_node`` maps every world rank to its *global* node index;
    ``local_ranks`` are the ranks resident in this shard.  Sends whose
    destination is non-resident are buffered as envelopes and drained
    by the orchestrator at the epoch barrier.  The launcher rejects
    jittered fabrics and a lookahead below one tick before any fork.
    """

    def __init__(
        self,
        rank_node: Mapping[int, int],
        local_ranks: Iterable[int],
        **kwargs: object,
    ):
        super().__init__(**kwargs)  # type: ignore[arg-type]
        self.rank_node = dict(rank_node)
        self.local_ranks = frozenset(local_ranks)
        self.outbox: list[RemoteEnvelope] = []
        self._order = itertools.count()

    def send_remote(
        self, kernel: "SimKernel", src_rank: int, dst_rank: int, message: Message
    ) -> None:
        """Buffer a send to a rank owned by another shard."""
        src_node = self.rank_node[src_rank]
        dst_node = self.rank_node[dst_rank]
        message.sent_tick = kernel.now
        self.record_traffic(src_node, dst_node, message.nbytes)
        delay = self.delay_for(same_node=False, nbytes=message.nbytes)
        self.outbox.append(
            RemoteEnvelope(
                arrival_tick=kernel.now + delay,
                sent_tick=kernel.now,
                src_node=src_node,
                order=next(self._order),
                dst_rank=dst_rank,
                message=message,
            )
        )

    def drain_outbox(self) -> list[RemoteEnvelope]:
        """Hand the buffered cross-shard sends to the orchestrator."""
        out, self.outbox = self.outbox, []
        return out
