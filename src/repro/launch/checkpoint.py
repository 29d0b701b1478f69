"""Checkpoint-restart policy and payloads for the sharded launcher.

A shard's kernel state is a web of live Python generators (the LWP
behaviours), which no serializer can capture.  The restart substrate is
therefore the **process image itself**: at every checkpoint barrier the
worker forks a frozen *hot spare* of itself that blocks on a
pre-created slot pipe, and promotion of that spare plus deterministic
replay of the epoch commands recorded since (see
``repro.mpi.fabric.EpochReplayBuffer``) reproduces the lost worker
bit-for-bit.  What travels over the pipe as :class:`ShardCheckpoint`
is the part worth marshalling: a cheap kernel *fingerprint* used to
verify a promoted spare really is the state it claims to be, and the
per-rank SampleStores (packed by the journal's codec) so that a
run whose respawn budget is exhausted still reports every sample up to
the last checkpoint instead of losing the ranks outright.

:class:`RecoveryPolicy` is the single knob surface: checkpoint
cadence, heartbeat/hang thresholds, straggler deadline shape, respawn
budget and backoff.  The defaults favour production-shaped runs;
tests pass a compressed policy so fault drills finish in
milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import LaunchError

__all__ = ["RecoveryPolicy", "ShardCheckpoint"]


@dataclass(frozen=True)
class RecoveryPolicy:
    """Self-healing knobs for :func:`repro.launch.sharded.launch_sharded`.

    ``max_respawns`` bounds recovery attempts *per shard*; when the
    budget is exhausted (or a checkpoint/replay precondition fails)
    the orchestrator falls back to the pre-existing degrade-and-
    continue path, so recovery can only ever add resilience, never a
    hang.  ``checkpoint_every`` also sizes the pre-forked slot-pipe
    pool, so it must be chosen before workers start.
    """

    #: fork a hot spare + marshal a checkpoint every K epochs (0 = off)
    checkpoint_every: int = 16
    #: recovery attempts per shard before degrading
    max_respawns: int = 2
    #: sleep between respawn attempts (doubles each retry)
    backoff_seconds: float = 0.05
    #: worker heartbeat cadence, wall seconds
    heartbeat_interval: float = 0.25
    #: heartbeat silence that flips straggler -> hung
    hang_grace_seconds: float = 5.0
    #: straggler deadline = EWMA(epoch wall time) * factor + slack
    straggler_factor: float = 4.0
    straggler_slack_seconds: float = 0.25
    #: wait for a promoted spare's hello before giving up on it
    hello_timeout_seconds: float = 10.0
    #: replay-buffer bound, in epochs (must cover a checkpoint gap)
    max_replay_epochs: int = 64

    def __post_init__(self) -> None:
        if self.checkpoint_every < 0:
            raise LaunchError("checkpoint_every must be >= 0")
        if self.max_respawns < 0:
            raise LaunchError("max_respawns must be >= 0")
        if self.heartbeat_interval <= 0:
            raise LaunchError("heartbeat_interval must be > 0")
        if self.hang_grace_seconds <= 0:
            raise LaunchError("hang_grace_seconds must be > 0")
        if self.checkpoint_every and (
            self.max_replay_epochs < 2 * self.checkpoint_every
        ):
            raise LaunchError(
                "max_replay_epochs must be >= 2 * checkpoint_every, or a "
                "restart could need epochs the buffer already evicted"
            )


@dataclass
class ShardCheckpoint:
    """One accepted epoch-boundary checkpoint of one shard.

    ``fingerprint`` is a crc32 digest over the shard kernel's
    scheduler-visible LWP state; a promoted spare must echo it in its
    hello before the orchestrator trusts the slot.  ``store_blobs``
    maps each of the shard's world ranks to its journal-codec encoded
    SampleStore (see ``repro.collect.journal.encode_store_snapshot``),
    decoded lazily — most checkpoints are superseded unread.
    """

    shard: int
    epoch: int
    clock: int
    fingerprint: int
    store_blobs: dict[int, bytes] = field(default_factory=dict)
    #: pid of the hot spare frozen at this boundary (None once spent)
    spare_pid: Optional[int] = None
    #: index of the slot pipe the spare is blocked on
    slot: Optional[int] = None

    def stores(self) -> dict:
        """Decode the per-rank SampleStores (exhaustion reporting)."""
        from repro.collect.journal import decode_store_snapshot

        return {
            rank: decode_store_snapshot(blob)
            for rank, blob in self.store_blobs.items()
        }
