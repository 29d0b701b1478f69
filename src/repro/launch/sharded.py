"""Sharded multi-node simulation: one kernel worker per node group.

The serial launcher steps every node of a job inside one
:class:`~repro.kernel.scheduler.SimKernel`, so multi-node experiments
are bound by single-core throughput.  This module partitions the
simulated cluster *by node* across a pool of forked workers — each
worker owns a full sub-kernel (scheduler, LWPs, HWTs, GPUs, monitors)
over its node group — and runs them bulk-synchronously in fixed tick
**epochs**:

1. every worker steps its kernel to the epoch boundary ``E_k``
   (``SimKernel.run(until_tick=E_k)``);
2. at the barrier, workers hand the orchestrator their buffered
   cross-shard sends (:class:`~repro.mpi.fabric.RemoteEnvelope`),
   their new collective contributions, and their completion state;
3. the orchestrator sorts all envelopes by the serial kernel's global
   injection order ``(sent_tick, src_node, program order)``, routes
   them to the destination shards, and completes any collective every
   world rank has now joined;
4. workers re-inject the envelopes as arrival timers (their arrival
   ticks are exact — see below) and run the next epoch.

**Determinism.**  The epoch length is clamped to the fabric lookahead
``int(remote_latency)``: a cross-node message sent at tick ``t`` of
epoch *k* (``t >= S_k``) arrives no earlier than ``t + lookahead >=
S_k + L = E_k``, so handing it over at the barrier never misses its
arrival tick, and the sorted re-injection order matches the serial
kernel's timer order.  Point-to-point traffic is therefore delivered
at bit-identical ticks; per-rank PIDs are replayed via
``SimKernel.set_next_pid``; each shard's nodes keep their *global*
node indices.  Cross-shard **collectives** rendezvous through the
orchestrator and complete at the first barrier after the last arrival
— value-correct but epoch-quantized (serial-identical timing is only
guaranteed for jobs whose cross-node traffic is point-to-point).
Jittered fabrics draw latency noise from one shared RNG in global
send order and cannot be sharded.

**Self-healing.**  With a :class:`~repro.launch.checkpoint.
RecoveryPolicy` (the default), the step heals worker loss instead of
merely containing it.  Kernel state is a web of live generators that
no serializer can capture, so the restart substrate is the process
image itself: every K epochs a worker forks a frozen **hot spare** of
itself that blocks on a pre-created slot pipe, and marshals a
:class:`~repro.launch.checkpoint.ShardCheckpoint` (state fingerprint
+ ZSJ2-encoded per-rank stores) to the orchestrator.  Spares retire
make-before-break: the predecessor clone is killed only after its
replacement's checkpoint is on the wire, so a ``kill -9`` landing
anywhere — even mid-checkpoint — leaves one promotable spare, and the
brief two-generation overlap on the slot pipe is resolved at adoption
by an epoch handshake that migrates the command channel to a fresh
slot (the ``ckpt_kill`` chaos kind drills exactly this window).  On
worker loss
the orchestrator promotes the spare (or, before the first checkpoint,
re-forks a pristine worker from the build closure), verifies its
fingerprint, and replays the epoch commands recorded since the
checkpoint from a bounded :class:`~repro.mpi.fabric.EpochReplayBuffer`
— workers are deterministic, so the merged run stays bit-identical to
a fault-free one for P2P workloads.  Liveness is discriminated, not
guessed: workers heartbeat over the pipe, an EWMA deadline over
observed epoch durations (:class:`~repro.live.watchdog.
DeadlineEstimator`) separates *straggler* (past deadline, heartbeats
healthy → wait and note) from *hang* (heartbeat silence → terminate
and respawn) from *death* (EOF / reaped exit → respawn).  Respawns
are budgeted with backoff; an exhausted budget falls back to the
degrade-and-continue path below.  The deterministic fault injector in
:mod:`repro.launch.chaos` drives all of this under test.

**Crash containment.**  A worker that dies or hangs beyond recovery
is classified with the PR-3 failure taxonomy and recorded on a
:class:`~repro.collect.faults.DegradationLedger` (reason strings name
``hung:`` vs ``crashed:``); surviving shards are finalized at the
current epoch and the job returns partial results instead of hanging.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import threading
import time
import traceback
import zlib
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.errors import DeadlockError, LaunchError
from repro.kernel.clock import Clock
from repro.kernel.lwp import ThreadRole
from repro.kernel.scheduler import SimKernel
from repro.launch.chaos import ChaosPlan
from repro.launch.checkpoint import RecoveryPolicy, ShardCheckpoint
from repro.launch.job import AppFactory, RankContext, _mpi_helper_behavior
from repro.launch.options import SrunOptions
from repro.launch.slurm import TaskAssignment
from repro.mpi.comm import ShardMpiJob
from repro.mpi.fabric import EpochReplayBuffer, Fabric, RemoteEnvelope, ShardFabric
from repro.openmp.runtime import OpenMPRuntime
from repro.topology.objects import Machine

__all__ = [
    "ShardPlan",
    "RankResult",
    "ShardedJobStep",
    "plan_shards",
    "launch_sharded",
]

#: must match SimKernel's first_pid default — the serial PID layout
#: every shard replays
_FIRST_PID = 18300
#: PID base for dynamic spawns after launch (per-shard disjoint ranges)
_DYNAMIC_PID_STRIDE = 1_000_000

#: the default self-healing policy (frozen, so sharing one is safe)
_DEFAULT_RECOVERY = RecoveryPolicy()


@dataclass(frozen=True)
class ShardPlan:
    """One worker's slice of the cluster."""

    index: int
    node_indices: tuple[int, ...]  # global node indices, ascending
    ranks: tuple[int, ...]  # world ranks resident on those nodes


@dataclass
class RankResult:
    """Everything one rank's monitor produced, marshalled picklably."""

    rank: int
    pid: int
    hostname: str
    report: object = None  # UtilizationReport
    findings: object = None  # ContentionReport
    advice: object = None  # Advice
    summary: object = None  # RankSummary
    store: object = None  # SampleStore
    heartbeats: list = field(default_factory=list)
    crash_reports: list = field(default_factory=list)


def plan_shards(
    assignments: list[TaskAssignment], n_nodes: int, workers: int
) -> list[ShardPlan]:
    """Partition nodes into contiguous groups balanced by rank count.

    Contiguity keeps each group's nodes in serial walk order; balance
    is greedy on the cumulative rank count.  Nodes that received no
    ranks ride along with the current group.  Returns at most
    ``min(workers, nodes-with-ranks)`` shards, each with >= 1 rank.
    """
    if workers < 1:
        raise LaunchError("workers must be >= 1")
    per_node: dict[int, list[int]] = {i: [] for i in range(n_nodes)}
    for a in assignments:
        per_node[a.node_index].append(a.rank)
    loaded = sum(1 for ranks in per_node.values() if ranks)
    shards = min(workers, max(1, loaded))
    total = len(assignments)
    plans: list[ShardPlan] = []
    group_nodes: list[int] = []
    group_ranks: list[int] = []
    placed = 0
    for node in range(n_nodes):
        group_nodes.append(node)
        group_ranks.extend(per_node[node])
        placed += len(per_node[node])
        remaining_shards = shards - len(plans)
        # close the group once it reaches its proportional share, as
        # long as enough loaded nodes remain for the rest
        target = total * (len(plans) + 1) / shards
        loaded_ahead = sum(
            1 for n in range(node + 1, n_nodes) if per_node[n]
        )
        if (
            group_ranks
            and remaining_shards > 1
            and placed >= target - 1e-9
            and loaded_ahead >= remaining_shards - 1
        ):
            plans.append(
                ShardPlan(len(plans), tuple(group_nodes), tuple(group_ranks))
            )
            group_nodes, group_ranks = [], []
    if group_nodes:
        if group_ranks or not plans:
            plans.append(
                ShardPlan(len(plans), tuple(group_nodes), tuple(group_ranks))
            )
        else:
            # trailing rankless nodes ride with the last loaded group
            last = plans[-1]
            plans[-1] = ShardPlan(
                last.index,
                last.node_indices + tuple(group_nodes),
                last.ranks,
            )
    return plans


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
class _Shard:
    """The in-worker world: one sub-kernel over the shard's nodes."""

    def __init__(
        self,
        plan: ShardPlan,
        machines: list[Machine],
        assignments: list[TaskAssignment],
        options: SrunOptions,
        app: AppFactory,
        *,
        use_mpi: bool,
        helper_thread: bool,
        monitor_factory: Optional[Callable],
        fabric_spec: dict,
        timeslice: int,
        smt_efficiency: float,
    ):
        self.plan = plan
        local_of = {g: i for i, g in enumerate(plan.node_indices)}
        kernel = SimKernel(
            [machines[g] for g in plan.node_indices],
            timeslice=timeslice,
            smt_efficiency=smt_efficiency,
        )
        # shards report traffic and build envelopes in global node terms
        for local, global_index in enumerate(plan.node_indices):
            kernel.nodes[local].node_index = global_index
        self.kernel = kernel
        self.options = options

        rank_node = {a.rank: a.node_index for a in assignments}
        self.job: Optional[ShardMpiJob] = None
        if use_mpi:
            fabric = ShardFabric(
                rank_node=rank_node, local_ranks=plan.ranks, **fabric_spec
            )
            self.job = ShardMpiJob(kernel, fabric, world_size=options.ntasks)

        local_assignments = [
            a for a in assignments if a.node_index in local_of
        ]
        stride = 2 if helper_thread else 1
        self.contexts: list[RankContext] = []
        self.monitors: list = []
        for assignment in local_assignments:
            ctx = RankContext(
                rank=assignment.rank,
                size=options.ntasks,
                env=dict(options.env),
                assignment=assignment,
            )
            ctx.kernel = kernel
            node = kernel.nodes[local_of[assignment.node_index]]
            # replay the serial launcher's PID layout for this rank
            kernel.set_next_pid(_FIRST_PID + stride * assignment.rank)
            proc = kernel.spawn_process(
                node,
                assignment.cpuset,
                app(ctx),
                command=options.command,
                env=dict(options.env),
                rank=assignment.rank if use_mpi else None,
            )
            ctx.process = proc
            if self.job is not None:
                ctx.comm = self.job.add_rank(assignment.rank, proc)
            ctx.omp = OpenMPRuntime(kernel, proc)
            ctx.gpus = [node.gpu(g) for g in assignment.gpu_physical]
            for visible, dev in enumerate(ctx.gpus):
                dev.info.visible_index = visible
            if helper_thread:
                kernel.spawn_thread(
                    proc,
                    _mpi_helper_behavior(),
                    name="mpi-helper",
                    affinity=node.machine.usable_cpuset(),
                    roles={ThreadRole.OTHER},
                    daemon=True,
                )
            self.contexts.append(ctx)

        if self.job is not None:
            self.job.finalize_ranks()

        if monitor_factory is not None:
            monitor_base = _FIRST_PID + stride * options.ntasks
            for ctx in self.contexts:
                kernel.set_next_pid(monitor_base + ctx.rank)
                self.monitors.append(monitor_factory(ctx))

        # post-launch dynamic spawns (if any) get a per-shard range that
        # cannot collide with any rank's static PIDs
        kernel.set_next_pid(_FIRST_PID + _DYNAMIC_PID_STRIDE * (plan.index + 1))

    # -- epoch protocol --------------------------------------------------
    def admit(self, env: RemoteEnvelope) -> None:
        """Register one cross-shard arrival as a local timer."""
        assert self.job is not None
        comm = self.job.comms.get(env.dst_rank)
        if comm is None:
            return  # destination rank vanished (degraded run)
        message = env.message
        when = max(env.arrival_tick, self.kernel.now)

        def arrive(k: SimKernel) -> None:
            message.recv_tick = k.now
            comm._on_arrival(k, message)

        self.kernel.call_at(when, arrive)

    def run_epoch(
        self, until: int, inbound: list[RemoteEnvelope], completions: list[dict]
    ) -> dict:
        kernel = self.kernel
        if self.job is not None:
            for c in completions:
                self.job.complete_collective(
                    kernel, c["kind"], c["seq"], c["data"]
                )
            for env in inbound:
                self.admit(env)
        if kernel.alive_work():
            kernel.run(
                max_ticks=max(1, until - kernel.clock.tick),
                until_tick=until,
                raise_on_stall=False,
            )
        reply = {
            "clock": kernel.clock.tick,
            "done": not kernel.alive_work(),
            "stalled": kernel.stalled(),
            "outbox": (
                self.job.fabric.drain_outbox() if self.job is not None else []
            ),
            "contributions": (
                self.job.collect_coll_contributions()
                if self.job is not None
                else []
            ),
        }
        return reply

    def fingerprint(self) -> int:
        """crc32 digest of the scheduler-visible state at this boundary.

        Cheap on purpose: it exists to catch a promoted spare whose
        memory image is not the boundary the orchestrator thinks it is
        (wrong slot answered, stale clone), not to detect arbitrary
        corruption.  Covers every LWP's scheduling-relevant fields and
        the clock.
        """
        h = zlib.crc32(repr(self.kernel.clock.tick).encode())
        for tid in sorted(self.kernel.lwps):
            lwp = self.kernel.lwps[tid]
            h = zlib.crc32(
                f"{tid}:{lwp.state.value}:{lwp.utime!r}:"
                f"{lwp.stime!r}:{lwp.nvcsw}".encode(),
                h,
            )
        return h

    def store_blobs(self) -> dict[int, bytes]:
        """Per-rank SampleStores, ZSJ2-encoded for the checkpoint."""
        from repro.collect.journal import encode_store_snapshot

        return {
            ctx.rank: encode_store_snapshot(monitor.store)
            for ctx, monitor in zip(self.contexts, self.monitors)
        }

    def finish(self, end_tick: int) -> dict:
        """Align to the global end tick, finalize monitors, marshal."""
        kernel = self.kernel
        if kernel.clock.tick < end_tick:
            if kernel.alive_work():
                # degraded abort: best-effort idle-through to the end
                kernel.run(
                    max_ticks=end_tick - kernel.clock.tick,
                    until_tick=end_tick,
                    raise_on_stall=False,
                )
                if kernel.clock.tick < end_tick and kernel._quiescent():
                    kernel._fast_forward_to(end_tick)
            elif kernel._quiescent():
                kernel._fast_forward_to(end_tick)
        for monitor in self.monitors:
            monitor.finalize()
        return self._marshal()

    def _marshal(self) -> dict:
        from repro.analysis.cluster_view import node_mem_used_frac, rank_summary
        from repro.core.advisor import advise
        from repro.core.contention import analyze
        from repro.core.reports import build_report

        ranks: dict[int, RankResult] = {}
        p2p_bytes = None
        p2p_messages = None
        for ctx, monitor in zip(self.contexts, self.monitors):
            report = build_report(monitor)
            result = RankResult(
                rank=ctx.rank,
                pid=ctx.process.pid,
                hostname=report.hostname,
                report=report,
                findings=analyze(monitor, report),
                advice=advise(monitor, self.options),
                summary=rank_summary(monitor, report),
                store=monitor.store,
                heartbeats=list(monitor.heartbeats),
                crash_reports=list(monitor.crash_reports),
            )
            ranks[ctx.rank] = result
            if monitor.recorder is not None:
                if p2p_bytes is None:
                    p2p_bytes = monitor.recorder.bytes.copy()
                    p2p_messages = monitor.recorder.messages.copy()
                else:
                    p2p_bytes += monitor.recorder.bytes
                    p2p_messages += monitor.recorder.messages
        if not self.monitors:
            for ctx in self.contexts:
                ranks[ctx.rank] = RankResult(
                    rank=ctx.rank,
                    pid=ctx.process.pid,
                    hostname=ctx.process.node.hostname,
                )
        node_mem = {}
        for monitor in self.monitors:
            node_mem.setdefault(
                monitor.process.node.hostname, node_mem_used_frac(monitor)
            )
        return {
            "clock": self.kernel.clock.tick,
            "ranks": ranks,
            "node_mem": node_mem,
            "p2p_bytes": p2p_bytes,
            "p2p_messages": p2p_messages,
            "traffic": (
                dict(self.job.fabric.traffic) if self.job is not None else {}
            ),
        }


class _WorkerState:
    """Worker-process plumbing shared by the serve loop and the spare.

    Owns the command connection (which changes identity when a spare
    is promoted — the slot pipe becomes the command channel), the
    send lock serializing the heartbeat thread against replies, and
    the current hot-spare pid.
    """

    def __init__(self, conn, slots, hb_interval: Optional[float]):
        self.conn = conn
        self.slots = slots
        self.hb_interval = hb_interval
        self.send_lock = threading.Lock()
        self.hb_stop = threading.Event()
        self.kernel: Optional[SimKernel] = None
        self.spare_pid: Optional[int] = None
        self._hb_thread: Optional[threading.Thread] = None
        #: chaos drill: die mid-checkpoint at the next boundary
        self.die_in_checkpoint = False

    def send(self, msg) -> None:
        with self.send_lock:
            self.conn.send(msg)

    def send_bytes(self, raw: bytes) -> None:
        with self.send_lock:
            self.conn.send_bytes(raw)

    # -- heartbeats ------------------------------------------------------
    def start_heartbeats(self) -> None:
        if self.hb_interval is None or self._hb_thread is not None:
            return
        self.hb_stop = threading.Event()
        thread = threading.Thread(
            target=self._hb_loop, name="shard-heartbeat", daemon=True
        )
        self._hb_thread = thread
        thread.start()

    def stop_heartbeats(self) -> None:
        """Quiesce the heartbeat thread (fork safety, chaos hangs)."""
        thread = self._hb_thread
        if thread is None:
            return
        self.hb_stop.set()
        thread.join()
        self._hb_thread = None

    def _hb_loop(self) -> None:
        while not self.hb_stop.wait(self.hb_interval):
            kernel = self.kernel
            tick = kernel.clock.tick if kernel is not None else 0
            try:
                self.send(("hb", time.monotonic(), tick))
            except (OSError, ValueError):
                return  # orchestrator went away; the serve loop will see EOF


def _chaos_hang(state: _WorkerState, directive: dict) -> None:
    """Wedge this worker: no heartbeats, no progress, maybe no SIGTERM."""
    state.stop_heartbeats()
    if directive.get("ignore_term"):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    while True:  # pragma: no cover - killed externally
        time.sleep(3600)


def _spare_wait(
    shard: _Shard, state: _WorkerState, slot_index: int, epoch_no: int
) -> None:
    """The hot spare's life: block on the slot pipe until promoted.

    Runs in the forked child.  The parent held no locks across the
    fork (heartbeats are stopped first), but the lock objects are
    recreated anyway so no stale state leaks into the clone.  Returns
    only on adoption — the caller then re-enters the serve loop with
    the slot pipe as the command channel; any other outcome exits.
    """
    state.send_lock = threading.Lock()
    state.hb_stop = threading.Event()
    state._hb_thread = None
    state.spare_pid = None
    state.die_in_checkpoint = False
    retired = [state.conn] + list(state.slots[:slot_index])
    state.conn = state.slots[slot_index]
    for conn in retired:
        try:
            conn.close()
        except (OSError, ValueError):
            pass
    try:
        cmd = state.conn.recv()
    except (EOFError, OSError):
        os._exit(0)  # orchestrator closed the slot: run over, not needed
    if not (isinstance(cmd, tuple) and len(cmd) == 3 and cmd[0] == "adopt"):
        os._exit(0)
    _, expected_epoch, fresh_index = cmd
    if expected_epoch != epoch_no:
        # the adopt names the other generation briefly sharing this
        # slot (make-before-break overlap in _do_checkpoint): bounce
        # on the fresh channel and bow out so the orchestrator
        # re-sends the adopt to the clone it actually checkpointed
        state.conn = state.slots[fresh_index]
        state.send(("stale", epoch_no))
        os._exit(0)
    # re-home the command channel to the fresh, uncontested slot: a
    # lurking clone of the other generation stays blocked on the old
    # one, which the orchestrator closes right after adoption (EOF
    # retires the lurker), so it can never steal normal traffic
    contested = state.slots[slot_index:fresh_index]
    state.conn = state.slots[fresh_index]
    for conn in contested:
        try:
            conn.close()
        except (OSError, ValueError):
            pass
    # hello proves which frozen state answered this slot
    state.send(
        (
            "hello",
            {
                "epoch": epoch_no,
                "clock": shard.kernel.clock.tick,
                "fingerprint": shard.fingerprint(),
            },
        )
    )
    state.start_heartbeats()


def _do_checkpoint(
    shard: _Shard, state: _WorkerState, slot_index: int, epoch_no: int
) -> None:
    """Fork a hot spare at this epoch boundary and marshal the payload.

    In the parent, returns after sending the checkpoint message; in
    the promoted child (possibly much later), returns after adoption
    so the serve loop continues from the checkpointed state.

    Make-before-break: the previous boundary's clone is retired only
    AFTER the replacement's payload is on the wire, so a ``kill -9``
    landing anywhere in this sequence always leaves one live spare
    matching a checkpoint the orchestrator either holds or is about
    to receive.  The brief two-generation overlap on the shared slot
    pipe is disambiguated at adoption time by the epoch handshake in
    :func:`_spare_wait`.
    """
    payload = {
        "epoch": epoch_no,
        "clock": shard.kernel.clock.tick,
        "fingerprint": shard.fingerprint(),
        "stores": shard.store_blobs(),
        "slot": slot_index,
    }
    predecessor = state.spare_pid
    state.stop_heartbeats()  # fork from a single-threaded process
    pid = os.fork()
    if pid == 0:
        _spare_wait(shard, state, slot_index, epoch_no)
        return  # adopted: serve on from the checkpoint boundary
    state.spare_pid = pid
    state.start_heartbeats()
    payload["spare_pid"] = pid
    state.send(("checkpoint", payload))
    if state.die_in_checkpoint:
        # chaos drill: the worst-case external kill placement — both
        # generations' spares are alive and share the slot pipe
        os._exit(99)
    if predecessor is not None:
        try:
            os.kill(predecessor, signal.SIGKILL)
            os.waitpid(predecessor, 0)
        except (ProcessLookupError, ChildProcessError, OSError):
            pass


def _serve(shard: _Shard, state: _WorkerState) -> None:
    """Answer orchestrator commands until finish or EOF."""
    while True:
        try:
            cmd = state.conn.recv()
        except EOFError:
            return  # orchestrator went away
        if cmd[0] == "epoch":
            _, epoch_no, until, inbound, completions, directives, ckpt_slot = cmd
            kill = corrupt = False
            for directive in directives:
                kind = directive["kind"]
                if kind == "kill":
                    kill = True
                elif kind == "corrupt":
                    corrupt = True
                elif kind == "slow":
                    time.sleep(directive["delay_seconds"])
                elif kind == "hang":
                    _chaos_hang(state, directive)
                elif kind == "ckpt_kill":
                    # latched: fires inside the next _do_checkpoint
                    state.die_in_checkpoint = True
            reply = shard.run_epoch(until, inbound, completions)
            if kill:
                # computed but never answered: to the orchestrator this
                # is indistinguishable from a segfault mid-epoch
                os._exit(99)
            if corrupt:
                state.send_bytes(b"ZSCHAOS not a pickle frame")
                continue
            state.send(("epoch", reply))
            if ckpt_slot is not None:
                _do_checkpoint(shard, state, ckpt_slot, epoch_no)
        elif cmd[0] == "finish":
            state.send(("results", shard.finish(cmd[1])))
            return
        else:  # pragma: no cover - protocol error
            raise LaunchError(f"unknown shard command {cmd[0]!r}")


def _worker_main(conn, build, to_close, slots, hb_interval) -> None:
    """Worker process entry: build the shard, serve barrier commands.

    ``to_close`` lists every inherited connection this worker must NOT
    hold — other shards' pipes and the orchestrator-side ends of its
    own.  Closing them is what makes EOF death-detection work: a pipe
    only reports EOF once *every* copy of the far end is gone.
    """
    for stale in to_close:
        try:
            stale.close()
        except (OSError, ValueError):
            pass
    state = _WorkerState(conn, slots, hb_interval)
    try:
        # heartbeat before building: shard construction can outlast the
        # hang grace on a loaded host, and silence would read as a hang
        state.start_heartbeats()
        shard = build()
        state.kernel = shard.kernel
        _serve(shard, state)
    except BaseException as exc:
        try:
            state.send(
                ("error", {"exc": repr(exc), "traceback": traceback.format_exc()})
            )
        except Exception:
            pass
        os._exit(1)


# ----------------------------------------------------------------------
# orchestrator side
# ----------------------------------------------------------------------
def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except (ProcessLookupError, PermissionError):
        return False
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            stat = fh.read()
        return stat.rsplit(b") ", 1)[1][:1] != b"Z"
    except (OSError, IndexError):
        return True


class _WorkerHandle:
    """One shard's live process: an mp worker or a promoted raw pid.

    Promoted spares are grandchildren (forked by the dead worker), so
    ``multiprocessing`` never tracked them and ``waitpid`` is not
    available — liveness and join fall back to signal-0 polling.
    """

    def __init__(self, proc=None, pid: Optional[int] = None):
        self._proc = proc
        self.pid = proc.pid if proc is not None else pid

    @property
    def exitcode(self):
        return self._proc.exitcode if self._proc is not None else None

    def is_alive(self) -> bool:
        if self._proc is not None:
            return self._proc.is_alive()
        return _pid_alive(self.pid)

    def _signal(self, sig: int) -> None:
        try:
            os.kill(self.pid, sig)
        except (ProcessLookupError, PermissionError):
            pass

    def terminate(self) -> None:
        if self._proc is not None:
            if self._proc.is_alive():
                self._proc.terminate()
        else:
            self._signal(signal.SIGTERM)

    def kill(self) -> None:
        if self._proc is not None:
            if self._proc.is_alive():
                self._proc.kill()
        else:
            self._signal(signal.SIGKILL)

    def join(self, timeout: float) -> None:
        if self._proc is not None:
            self._proc.join(timeout)
            return
        deadline = time.monotonic() + timeout
        while _pid_alive(self.pid) and time.monotonic() < deadline:
            time.sleep(0.01)


def _describe(cause: BaseException) -> str:
    """Human-form diagnosis: type plus message (many EOFErrors are bare)."""
    text = str(cause)
    return f"{type(cause).__name__}: {text}" if text else type(cause).__name__


class _WorkerLost(Exception):
    """Internal: one worker failed to answer; carries the diagnosis."""

    def __init__(self, shard: int, cause: BaseException):
        super().__init__(f"shard {shard}: {cause!r}")
        self.shard = shard
        self.cause = cause


class _RecoveryImpossible(Exception):
    """Internal: recovery preconditions failed; degrade immediately."""


class ShardedJobStep:
    """A sharded job: mirrors :class:`~repro.launch.job.JobStep`.

    ``run()`` drives the epoch barrier loop *and* finalizes the
    workers (remote monitors cannot be flushed lazily), so
    ``finalize()`` is a no-op kept for call-site compatibility.
    Results — reports, findings, advice, stores, the P2P matrix — are
    computed inside the workers and marshalled back.
    """

    def __init__(
        self,
        plans: list[ShardPlan],
        options: SrunOptions,
        assignments: list[TaskAssignment],
        epoch_ticks: int,
        *,
        has_monitors: bool,
        epoch_timeout: Optional[float],
        recovery: Optional[RecoveryPolicy] = None,
        chaos: Optional[ChaosPlan] = None,
    ):
        self.plans = plans
        self.options = options
        self.assignments = assignments
        self.epoch_ticks = epoch_ticks
        self.has_monitors = has_monitors
        self.epoch_timeout = epoch_timeout
        self.policy = recovery
        self.chaos = chaos
        # lazy: repro.collect pulls in repro.core, which imports launch
        from repro.collect.faults import DegradationLedger

        self.monitors: list = []  # parity with JobStep; always empty
        self.ticks_run = 0
        self.epochs_run = 0
        self.ledger = DegradationLedger()
        self._ctx = None
        self._procs: list = []
        self._conns: list = []
        self._builds: list[Callable[[], _Shard]] = []
        self._slot_parents: list[list] = []
        self._slot_children: list[list] = []
        self._slot_cursor: list[int] = []
        self._checkpoints: list[Optional[ShardCheckpoint]] = []
        self._replay: list[EpochReplayBuffer] = []
        self._deadlines: list = []
        self._last_hb: list[float] = []
        self._send_stamp: list[float] = []
        self._respawns_used: list[int] = []
        self._force_ckpt: list[bool] = []
        self._boundary = 0
        self._results: Optional[dict[int, RankResult]] = None
        self._node_mem: dict[str, float] = {}
        self._traffic: dict[tuple[int, int], int] = {}
        self._p2p_bytes = None
        self._p2p_messages = None
        self._shard_of_rank = {
            r: p.index for p in plans for r in p.ranks
        }
        self._hz = Clock().hz

    # -- lifecycle -------------------------------------------------------
    def _register_shard(self, build: Callable[[], _Shard], slots: int) -> None:
        """Allocate one shard's recovery state; pipes before processes."""
        # lazy import: repro.live reaches repro.collect -> repro.core
        from repro.live.watchdog import DeadlineEstimator

        policy = self.policy
        parents: list = []
        children: list = []
        for _ in range(slots):
            parent_end, child_end = self._ctx.Pipe(duplex=True)
            parents.append(parent_end)
            children.append(child_end)
        self._builds.append(build)
        self._slot_parents.append(parents)
        self._slot_children.append(children)
        self._slot_cursor.append(0)
        self._checkpoints.append(None)
        self._replay.append(
            EpochReplayBuffer(
                policy.max_replay_epochs if policy is not None else 1
            )
        )
        self._deadlines.append(
            DeadlineEstimator(
                factor=policy.straggler_factor if policy else 4.0,
                slack_seconds=(
                    policy.straggler_slack_seconds if policy else 0.25
                ),
            )
        )
        self._last_hb.append(time.monotonic())
        self._send_stamp.append(0.0)
        self._respawns_used.append(0)
        self._force_ckpt.append(False)
        self._procs.append(None)
        self._conns.append(None)

    def _iter_all_conns(self):
        for conn in self._conns:
            if conn is not None:
                yield conn
        for group in self._slot_parents:
            yield from group
        for group in self._slot_children:
            yield from group

    def _spawn_worker(self, shard: int) -> None:
        """Fork one worker (initial launch, or a pristine rebirth)."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        keep = {id(child_conn)} | {
            id(c) for c in self._slot_children[shard]
        }
        to_close = [
            c
            for c in [*self._iter_all_conns(), parent_conn]
            if id(c) not in keep
        ]
        hb = (
            self.policy.heartbeat_interval
            if self.policy is not None
            else None
        )
        proc = self._ctx.Process(
            target=_worker_main,
            args=(
                child_conn,
                self._builds[shard],
                to_close,
                self._slot_children[shard],
                hb,
            ),
            name=f"zerosum-shard-{shard}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._conns[shard] = parent_conn
        self._procs[shard] = _WorkerHandle(proc=proc)
        now = time.monotonic()
        self._last_hb[shard] = now
        self._send_stamp[shard] = now

    def close(self, join_timeout: float = 5.0) -> None:
        """Reap every worker and hot spare (idempotent).

        Closing the pipes first lets healthy workers and waiting
        spares exit on EOF; whatever survives is escalated
        terminate -> join -> kill -> join, so a wedged worker (e.g. one
        ignoring SIGTERM in uninterruptible sleep) can never outlive
        the step as a zombie child.
        """
        for conn in self._iter_all_conns():
            try:
                conn.close()
            except (OSError, ValueError):
                pass
        for ck in self._checkpoints:
            if ck is not None and ck.spare_pid is not None:
                try:
                    os.kill(ck.spare_pid, signal.SIGKILL)
                except (ProcessLookupError, PermissionError):
                    pass
        procs = [p for p in self._procs if p is not None]
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
        for proc in procs:
            proc.join(join_timeout)
            if proc.is_alive():
                proc.kill()
                proc.join(join_timeout)

    def __del__(self):  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            pass

    # -- the wire --------------------------------------------------------
    def _ckpt_slot_for(self, shard: int, epoch_no: int) -> Optional[int]:
        policy = self.policy
        if policy is None or not policy.checkpoint_every:
            return None
        due = self._force_ckpt[shard] or (
            (epoch_no + 1) % policy.checkpoint_every == 0
        )
        if not due:
            return None
        cursor = self._slot_cursor[shard]
        if cursor >= len(self._slot_parents[shard]):
            return None  # every slot spent: no further spares possible
        self._force_ckpt[shard] = False
        return cursor

    def _send_epoch(
        self,
        shard: int,
        epoch_no: int,
        until: int,
        inbound: list,
        completions: list,
        *,
        record: bool = True,
        fresh: bool = True,
    ) -> None:
        """One epoch command; ``fresh`` commands draw chaos + checkpoints.

        Replayed commands are sent with ``fresh=False``: the chaos plan
        already consumed its events for those epochs (a recovered run
        must not re-fire a kill that already happened), and forking
        spares mid-replay would checkpoint half-restored state.
        """
        directives: list[dict] = []
        ckpt_slot: Optional[int] = None
        if fresh:
            if self.chaos is not None:
                directives = self.chaos.take(shard, epoch_no)
            ckpt_slot = self._ckpt_slot_for(shard, epoch_no)
        if record:
            self._replay[shard].record(epoch_no, until, inbound, completions)
        self._send_stamp[shard] = time.monotonic()
        try:
            self._conns[shard].send(
                ("epoch", epoch_no, until, inbound, completions, directives,
                 ckpt_slot)
            )
        except (OSError, ValueError):
            # the worker died between barriers; the wait below diagnoses
            # it (the command is already in the replay buffer)
            pass

    def _accept_checkpoint(self, shard: int, payload: dict) -> None:
        ck = ShardCheckpoint(
            shard=shard,
            epoch=payload["epoch"],
            clock=payload["clock"],
            fingerprint=payload["fingerprint"],
            store_blobs=payload["stores"],
            spare_pid=payload["spare_pid"],
            slot=payload["slot"],
        )
        self._checkpoints[shard] = ck
        # epochs at or before the checkpoint can never be replayed again
        self._replay[shard].trim_through(ck.epoch)

    def _await(
        self, shard: int, expect: str, *, observe_epoch: bool = False
    ):
        """Wait for an ``expect`` reply, folding in liveness traffic.

        Heartbeats and checkpoint payloads arrive interleaved with the
        real reply and are absorbed here.  Raises :class:`_WorkerLost`
        carrying the diagnosis — ``HangDetected`` for heartbeat
        silence or an alive-but-unresponsive process at the hard
        timeout, the underlying ``EOFError``/``OSError``/unpickling
        failure for death or a corrupted frame.
        """
        from repro.collect.faults import HangDetected

        conn = self._conns[shard]
        policy = self.policy
        started = self._send_stamp[shard] or time.monotonic()
        straggler_noted = False
        estimator = self._deadlines[shard]
        if policy is not None:
            slice_s = policy.heartbeat_interval
        else:
            slice_s = min(1.0, (self.epoch_timeout or 120.0) / 8)
        while True:
            try:
                ready = conn.poll(slice_s)
            except (OSError, ValueError) as exc:
                raise _WorkerLost(shard, exc)
            if ready:
                try:
                    msg = conn.recv()
                except (EOFError, OSError, pickle.UnpicklingError) as exc:
                    raise _WorkerLost(shard, exc)
                kind = msg[0]
                now = time.monotonic()
                if kind == "hb":
                    self._last_hb[shard] = msg[1]
                elif kind == "checkpoint":
                    self._accept_checkpoint(shard, msg[1])
                    self._last_hb[shard] = now
                elif kind == "error":
                    detail = msg[1]["exc"] + "\n" + msg[1]["traceback"]
                    raise _WorkerLost(shard, RuntimeError(detail))
                elif kind == expect:
                    self._last_hb[shard] = now
                    if observe_epoch:
                        estimator.observe(now - started)
                    return msg[1]
                elif kind != "hello":  # hello: stale adoption echo; harmless
                    raise _WorkerLost(
                        shard,
                        LaunchError(
                            f"protocol violation: {kind!r} while awaiting "
                            f"{expect!r}"
                        ),
                    )
            now = time.monotonic()
            elapsed = now - started
            # after liveness traffic too: heartbeats answering every poll
            # must not starve the straggler check
            if observe_epoch and policy is not None and not straggler_noted:
                deadline = estimator.deadline()
                if deadline is not None and elapsed > deadline:
                    straggler_noted = True
                    self.ledger.record_straggler(
                        f"shard-{shard}",
                        tick=float(self._boundary),
                        reason=(
                            f"epoch running {elapsed:.2f}s, past the "
                            f"adaptive deadline {deadline:.2f}s; "
                            f"heartbeats healthy — waiting"
                        ),
                    )
            if ready:
                continue  # the silence checks below need a quiet poll
            proc = self._procs[shard]
            if not proc.is_alive():
                if conn.poll(0):
                    continue  # drain the dying worker's last messages
                raise _WorkerLost(
                    shard,
                    EOFError(
                        f"worker exited (exitcode {proc.exitcode})"
                    ),
                )
            if policy is not None:
                hb_age = now - self._last_hb[shard]
                if hb_age > policy.hang_grace_seconds:
                    raise _WorkerLost(
                        shard,
                        HangDetected(
                            f"no heartbeat for {hb_age:.2f}s (grace "
                            f"{policy.hang_grace_seconds:g}s) with the "
                            f"process still alive"
                        ),
                    )
            if self.epoch_timeout is not None and elapsed > self.epoch_timeout:
                if proc.is_alive():
                    # alive but silent: a hang, NOT a crash — the old
                    # path misfiled this as permanent worker death
                    raise _WorkerLost(
                        shard,
                        HangDetected(
                            f"missed the epoch barrier after "
                            f"{self.epoch_timeout:g}s with the process "
                            f"still alive"
                        ),
                    )
                raise _WorkerLost(
                    shard,
                    TimeoutError(
                        f"missed the epoch barrier after "
                        f"{self.epoch_timeout:g}s"
                    ),
                )

    # -- failure handling ------------------------------------------------
    def _reap(self, shard: int) -> None:
        """Take the current worker process down hard and drop its pipe."""
        proc = self._procs[shard]
        if proc is not None and proc.is_alive():
            proc.terminate()
            proc.join(1.0)
            if proc.is_alive():
                proc.kill()
                proc.join(5.0)
        conn = self._conns[shard]
        if conn is not None:
            try:
                conn.close()
            except (OSError, ValueError):
                pass

    def _record_loss(
        self, shard: int, cause: BaseException, note: str = ""
    ) -> None:
        """Contain one unrecoverable worker: ledger it, reap it."""
        from repro.collect.faults import (
            PERMANENT,
            HangDetected,
            classify_failure,
        )

        plan = self.plans[shard]
        verb = "hung" if isinstance(cause, HangDetected) else "crashed"
        failure_class = classify_failure(cause) or PERMANENT
        suffix = f" ({note})" if note else ""
        self.ledger.record_failure(
            f"shard-{shard}",
            tick=float(self._boundary),
            reason=(
                f"worker for nodes {list(plan.node_indices)} "
                f"(ranks {list(plan.ranks)}) {verb}: {_describe(cause)}{suffix}"
            ),
            failure_class=failure_class,
        )
        self._reap(shard)

    def _await_hello(
        self, shard: int, expected_epoch: int, contested, fresh_index: int
    ) -> dict:
        """A promoted spare's first words, within the hello timeout.

        Listens on the fresh command channel; a ``stale`` bounce means
        the wrong generation's clone consumed the adopt off the
        contested slot and bowed out, so the adopt is re-sent there —
        only the matching clone is left reading it.
        """
        conn = self._conns[shard]
        deadline = time.monotonic() + self.policy.hello_timeout_seconds
        while time.monotonic() < deadline:
            if not conn.poll(0.05):
                continue
            try:
                msg = conn.recv()
            except (EOFError, OSError, pickle.UnpicklingError) as exc:
                raise _RecoveryImpossible(
                    f"spare died during adoption: {exc!r}"
                )
            if msg[0] == "hello":
                return msg[1]
            if msg[0] == "stale":
                try:
                    contested.send(("adopt", expected_epoch, fresh_index))
                except (OSError, ValueError) as exc:
                    raise _RecoveryImpossible(
                        f"slot pipe unusable: {exc!r}"
                    )
                continue
            if msg[0] == "hb":
                continue
        raise _RecoveryImpossible("spare did not answer adoption in time")

    def _respawn_and_replay(self, shard: int, pending: tuple):
        """One recovery attempt: new worker, verified replay, resend.

        ``pending`` is the in-flight command the lost worker never
        answered — ``("epoch", epoch_no)`` or ``("finish", end_tick)``.
        Returns that command's reply.  Raises :class:`_WorkerLost` if
        the replacement dies too (the budget loop may try again) or
        :class:`_RecoveryImpossible` when no restart substrate exists.
        """
        ck = self._checkpoints[shard]
        buffer = self._replay[shard]
        slots = self._slot_parents[shard]
        if (
            ck is not None
            and ck.spare_pid is not None
            and ck.slot + 1 < len(slots)
            and buffer.covers(ck.epoch)
            and _pid_alive(ck.spare_pid)
        ):
            contested = slots[ck.slot]
            fresh_index = ck.slot + 1
            try:
                # the epoch names which generation this adopt is for
                # (a mid-checkpoint death leaves two clones briefly
                # sharing the slot, and the wrong one must bow out);
                # the fresh index re-homes the command channel to an
                # uncontested slot so no lurking clone can steal
                # traffic meant for the promoted worker
                contested.send(("adopt", ck.epoch, fresh_index))
            except (OSError, ValueError) as exc:
                raise _RecoveryImpossible(f"slot pipe unusable: {exc!r}")
            self._conns[shard] = slots[fresh_index]
            self._procs[shard] = _WorkerHandle(pid=ck.spare_pid)
            now = time.monotonic()
            self._last_hb[shard] = now
            self._send_stamp[shard] = now
            hello = self._await_hello(shard, ck.epoch, contested, fresh_index)
            # both slots are spent either way: the spare is now the
            # worker, and closing the contested slot EOF-retires any
            # other-generation clone still blocked on it
            self._slot_cursor[shard] = ck.slot + 2
            self._checkpoints[shard] = None
            try:
                contested.close()
            except (OSError, ValueError):
                pass
            start_from = ck.epoch
            if (
                hello["epoch"] != ck.epoch
                or hello["fingerprint"] != ck.fingerprint
            ):
                raise _RecoveryImpossible(
                    "promoted spare failed state verification "
                    f"(epoch {hello['epoch']} vs {ck.epoch})"
                )
        elif buffer.covers(-1):
            # before the first checkpoint: a pristine worker re-forked
            # from the orchestrator's untouched closures, replayed from
            # epoch 0, reproduces the lost one exactly
            self._spawn_worker(shard)
            start_from = -1
        else:
            raise _RecoveryImpossible(
                "no live spare and the replay window no longer reaches "
                "the last checkpoint"
            )
        self._force_ckpt[shard] = True  # re-arm a spare at the next epoch

        pending_epoch = pending[1] if pending[0] == "epoch" else None
        reply_out = None
        for rec in buffer.records_after(start_from):
            resend = rec.epoch == pending_epoch and rec.reply_clock is None
            self._send_epoch(
                shard,
                rec.epoch,
                rec.until,
                rec.inbound,
                rec.completions,
                record=False,
                fresh=resend,  # the in-flight epoch draws chaos anew
            )
            reply = self._await(shard, "epoch")
            if rec.reply_clock is not None and reply["clock"] != rec.reply_clock:
                raise _RecoveryImpossible(
                    f"replay diverged at epoch {rec.epoch}: clock "
                    f"{reply['clock']} != {rec.reply_clock}"
                )
            if resend:
                reply_out = reply
        if pending[0] == "finish":
            self._conns[shard].send(pending)
            self._send_stamp[shard] = time.monotonic()
            reply_out = self._await(shard, "results")
        if reply_out is None:  # pragma: no cover - pending always replayed
            raise _RecoveryImpossible("pending command missing from replay")
        return reply_out

    def _recover(self, shard: int, lost: _WorkerLost, pending: tuple):
        """Heal one lost worker within the respawn budget, or degrade.

        Returns the pending command's reply on success; ``None`` when
        the loss was recorded and the shard is gone for good.
        """
        from repro.collect.faults import TRANSIENT

        policy = self.policy
        cause = lost.cause
        if policy is None or policy.max_respawns == 0:
            self._record_loss(shard, cause)
            return None
        while self._respawns_used[shard] < policy.max_respawns:
            attempt = self._respawns_used[shard]
            self._respawns_used[shard] += 1
            self.ledger.record_retry(
                f"shard-{shard}",
                tick=float(self._boundary),
                reason=f"respawn attempt {attempt + 1} after: {_describe(cause)}",
                failure_class=TRANSIENT,
            )
            self._reap(shard)
            time.sleep(policy.backoff_seconds * (2 ** attempt))
            try:
                reply = self._respawn_and_replay(shard, pending)
            except _WorkerLost as again:
                cause = again.cause  # replacement died too; maybe retry
                continue
            except _RecoveryImpossible as why:
                self._record_loss(shard, cause, note=str(why))
                return None
            self.ledger.record_respawn(
                f"shard-{shard}",
                tick=float(self._boundary),
                reason=(
                    f"worker respawned from checkpoint and replayed "
                    f"(attempt {attempt + 1}) after: {_describe(cause)}"
                ),
            )
            return reply
        self._record_loss(
            shard,
            cause,
            note=f"respawn budget exhausted ({policy.max_respawns})",
        )
        return None

    # -- the epoch barrier loop ------------------------------------------
    def run(self, max_ticks: int = 10_000_000, raise_on_stall: bool = True) -> int:
        """Drive all shards to completion; returns elapsed ticks."""
        if self._results is not None:
            return self.ticks_run
        L = self.epoch_ticks
        n = len(self.plans)
        active = [i for i in range(n)]
        lost: set[int] = set()
        clocks = [0] * n
        inbound: dict[int, list[RemoteEnvelope]] = {i: [] for i in range(n)}
        completions: dict[int, list[dict]] = {i: [] for i in range(n)}
        colls: dict[tuple[str, int], dict] = {}
        world = self.options.ntasks
        boundary = 0
        epoch_no = -1
        aborted = False

        while active and boundary < max_ticks:
            boundary = min(boundary + L, max_ticks)
            epoch_no += 1
            self._boundary = boundary
            for shard in active:
                self._send_epoch(
                    shard, epoch_no, boundary, inbound[shard],
                    completions[shard],
                )
                inbound[shard] = []
                completions[shard] = []
            replies: dict[int, dict] = {}
            for shard in list(active):
                try:
                    reply = self._await(shard, "epoch", observe_epoch=True)
                except _WorkerLost as lost_exc:
                    reply = self._recover(
                        shard, lost_exc, ("epoch", epoch_no)
                    )
                if reply is None:
                    active.remove(shard)
                    lost.add(shard)
                    aborted = True
                    continue
                self._replay[shard].note_clock(epoch_no, reply["clock"])
                replies[shard] = reply
                clocks[shard] = reply["clock"]
            if aborted:
                break

            # route cross-shard messages in serial injection order
            envelopes: list[RemoteEnvelope] = []
            for reply in replies.values():
                envelopes.extend(reply["outbox"])
            envelopes.sort(key=RemoteEnvelope.sort_key)
            routed = 0
            for env in envelopes:
                dst = self._shard_of_rank.get(env.dst_rank)
                if dst is not None and dst not in lost:
                    inbound[dst].append(env)
                    routed += 1

            # merge collective contributions; complete full rendezvous
            completed = 0
            for shard, reply in replies.items():
                for c in reply["contributions"]:
                    key = (c["kind"], c["seq"])
                    g = colls.setdefault(key, {"joined": 0, "data": {}})
                    g["joined"] += c["joined"]
                    g["data"].update(c["data"])
            for key in sorted(colls):
                g = colls[key]
                if g["joined"] >= world and not g.get("done"):
                    g["done"] = True
                    completed += 1
                    for shard in active:
                        completions[shard].append(
                            {"kind": key[0], "seq": key[1], "data": g["data"]}
                        )

            for shard in list(active):
                if replies[shard]["done"]:
                    active.remove(shard)

            if (
                active
                and routed == 0
                and completed == 0
                and not any(inbound[s] for s in active)
                and all(replies[s]["stalled"] for s in active)
            ):
                if raise_on_stall:
                    self.close()
                    raise DeadlockError(
                        f"sharded simulation stalled at tick {boundary}; "
                        f"stalled shards: {sorted(active)}"
                    )
                break

        self.epochs_run = epoch_no + 1
        end_tick = max(clocks) if clocks else 0
        self.ticks_run = end_tick
        self._collect(end_tick, lost)
        return self.ticks_run

    def _collect(self, end_tick: int, lost: set[int]) -> None:
        results: dict[int, RankResult] = {}
        for shard in range(len(self.plans)):
            if shard in lost:
                continue
            pending = ("finish", end_tick)
            try:
                self._conns[shard].send(pending)
                self._send_stamp[shard] = time.monotonic()
                reply = self._await(shard, "results")
            except (OSError, ValueError) as exc:
                reply = self._recover(shard, _WorkerLost(shard, exc), pending)
            except _WorkerLost as lost_exc:
                reply = self._recover(shard, lost_exc, pending)
            if reply is None:
                continue
            results.update(reply["ranks"])
            self._node_mem.update(reply["node_mem"])
            for key, nbytes in reply["traffic"].items():
                self._traffic[key] = self._traffic.get(key, 0) + nbytes
            if reply["p2p_bytes"] is not None:
                if self._p2p_bytes is None:
                    self._p2p_bytes = reply["p2p_bytes"]
                    self._p2p_messages = reply["p2p_messages"]
                else:
                    self._p2p_bytes += reply["p2p_bytes"]
                    self._p2p_messages += reply["p2p_messages"]
        self._results = results
        self.close()

    def finalize(self) -> None:
        """No-op: workers finalize their monitors inside ``run()``."""

    # -- result accessors (JobStep parity) -------------------------------
    @property
    def degradations(self) -> list:
        """Worker-loss events recorded during the run."""
        return list(self.ledger.events)

    def checkpoint_store(self, rank: int):
        """The last checkpointed SampleStore of one rank.

        The recovery artifact of last resort: when a shard's respawn
        budget is exhausted its final results are gone, but the ranks'
        samples up to the last accepted checkpoint survive here.
        """
        from repro.collect.journal import decode_store_snapshot

        shard = self._shard_of_rank.get(rank)
        if shard is None:
            raise LaunchError(f"rank {rank} does not exist")
        ck = self._checkpoints[shard]
        if ck is None or rank not in ck.store_blobs:
            raise LaunchError(
                f"no checkpointed store for rank {rank} (no checkpoint "
                "accepted, or its spare was already promoted)"
            )
        return decode_store_snapshot(ck.store_blobs[rank])

    def _result(self, rank: int) -> RankResult:
        if self._results is None:
            raise LaunchError("sharded job has not run yet")
        result = self._results.get(rank)
        if result is None:
            raise LaunchError(
                f"no results for rank {rank} (its shard was lost or the "
                "rank does not exist)"
            )
        return result

    def monitor(self, rank: int = 0):
        """Unavailable on sharded jobs: monitors live in the workers."""
        raise LaunchError(
            "sharded jobs marshal results instead of live monitors; use "
            "report()/findings()/advice()/store() or cluster_view()"
        )

    def store(self, rank: int = 0):
        """The marshalled SampleStore of one rank."""
        result = self._require_monitored(rank)
        return result.store

    def _require_monitored(self, rank: int) -> RankResult:
        result = self._result(rank)
        if result.report is None:
            raise LaunchError("job was launched without monitors")
        return result

    def report(self, rank: int = 0):
        """Utilization report for one rank (Listing 2 layout)."""
        return self._require_monitored(rank).report

    def findings(self, rank: int = 0):
        """Contention/misconfiguration findings for one rank."""
        return self._require_monitored(rank).findings

    def advice(self, rank: int = 0):
        """Launch-configuration advice derived from one rank's run."""
        return self._require_monitored(rank).advice

    def heartbeats(self, rank: int = 0) -> list:
        """Heartbeat lines emitted by one rank's monitor."""
        return self._require_monitored(rank).heartbeats

    def comm_matrix(self):
        """The merged point-to-point bytes matrix (Figure 5 input)."""
        from repro.core.heatmap import CommMatrix
        from repro.errors import MonitorError

        if self._p2p_bytes is None:
            raise MonitorError("no monitor carries MPI point-to-point data")
        out = CommMatrix.zeros(self._p2p_bytes.shape[0])
        out.bytes += self._p2p_bytes
        out.messages += self._p2p_messages
        return out

    def cluster_view(self):
        """The allocation-wide view, merged across shards."""
        from repro.analysis.cluster_view import assemble_cluster_view

        if self._results is None:
            raise LaunchError("sharded job has not run yet")
        summaries = [
            r.summary for r in self._results.values() if r.summary is not None
        ]
        return assemble_cluster_view(summaries, dict(self._node_mem))

    @property
    def rank_results(self) -> dict[int, RankResult]:
        if self._results is None:
            raise LaunchError("sharded job has not run yet")
        return dict(self._results)

    @property
    def traffic(self) -> dict[tuple[int, int], int]:
        """Accepted bytes per (src_node, dst_node), merged across shards."""
        return dict(self._traffic)

    @property
    def duration_seconds(self) -> float:
        return self.ticks_run / self._hz


def _fabric_spec(fabric: Optional[Fabric]) -> dict:
    f = fabric or Fabric()
    if f.jitter > 0:
        raise LaunchError(
            "sharded execution requires a jitter-free fabric (jitter "
            "draws are ordered by the global send sequence)"
        )
    if int(f.remote_latency) < 1:
        raise LaunchError(
            "sharded execution needs remote_latency >= 1 tick of lookahead"
        )
    return {
        "local_latency": f.local_latency,
        "remote_latency": f.remote_latency,
        "local_bandwidth": f.local_bandwidth,
        "remote_bandwidth": f.remote_bandwidth,
        "jitter": f.jitter,
        "seed": f.seed,
    }


def launch_sharded(
    machines: list[Machine],
    options: SrunOptions,
    app: AppFactory,
    *,
    workers: int,
    use_mpi: bool = True,
    helper_thread: bool = True,
    monitor_factory: Optional[Callable] = None,
    fabric: Optional[Fabric] = None,
    timeslice: int = 3,
    smt_efficiency: float = 1.0,
    epoch_ticks: Optional[int] = None,
    epoch_timeout: Optional[float] = 120.0,
    recovery: Optional[RecoveryPolicy] = _DEFAULT_RECOVERY,
    chaos: Optional[ChaosPlan] = None,
) -> ShardedJobStep:
    """Build the sharded world for one job step (does not run it).

    Workers are forked immediately so they inherit ``machines``, the
    app factory, and the monitor factory without pickling; the epoch
    loop starts on :meth:`ShardedJobStep.run`.

    ``recovery`` (on by default) makes the step self-healing — see the
    module docstring; pass ``None`` for the bare degrade-on-loss
    behaviour.  ``chaos`` injects deterministic worker faults for
    drills and tests (:mod:`repro.launch.chaos`).
    """
    from repro.launch.slurm import assign_tasks

    if "fork" not in multiprocessing.get_all_start_methods():
        raise LaunchError(
            "sharded execution needs the fork start method (POSIX only)"
        )
    # warm the marshalling imports before forking: children inherit the
    # loaded modules instead of each paying the import chain at finish
    import repro.analysis.cluster_view  # noqa: F401
    import repro.collect.journal  # noqa: F401
    import repro.core.advisor  # noqa: F401
    import repro.core.contention  # noqa: F401
    import repro.core.reports  # noqa: F401
    spec = _fabric_spec(fabric)
    lookahead = int(spec["remote_latency"])
    epoch = min(epoch_ticks or lookahead, lookahead)
    if epoch < 1:
        raise LaunchError("epoch_ticks must be >= 1")

    assignments = assign_tasks(machines, options)
    plans = plan_shards(assignments, len(machines), workers)
    if len(plans) < 2:
        raise LaunchError(
            "sharded execution needs >= 2 node groups; use the serial "
            "launcher for single-node jobs"
        )

    step = ShardedJobStep(
        plans,
        options,
        assignments,
        epoch,
        has_monitors=monitor_factory is not None,
        epoch_timeout=epoch_timeout,
        recovery=recovery,
        chaos=chaos,
    )
    step._ctx = multiprocessing.get_context("fork")
    # two slot pipes per possible promotion (the contested slot the
    # spare waits on plus the fresh slot the command channel migrates
    # to at adoption), plus one for the spare re-armed after the last
    # promotion; created BEFORE any worker forks so every worker
    # inherits the whole pool without fd passing
    slots = (
        2 * recovery.max_respawns + 1
        if recovery is not None and recovery.checkpoint_every
        else 0
    )
    for plan in plans:

        def build(plan=plan) -> _Shard:
            return _Shard(
                plan,
                machines,
                assignments,
                options,
                app,
                use_mpi=use_mpi,
                helper_thread=helper_thread,
                monitor_factory=monitor_factory,
                fabric_spec=spec,
                timeslice=timeslice,
                smt_efficiency=smt_efficiency,
            )

        step._register_shard(build, slots)
    for shard in range(len(plans)):
        step._spawn_worker(shard)
    return step
