"""Sharded multi-node simulation: an epoch-synchronous fork-join.

The serial launcher steps every node of a job inside one
:class:`~repro.kernel.scheduler.SimKernel`.  This module partitions the
simulated cluster *by node* across forked workers — each worker owns a
full sub-kernel (scheduler, LWPs, HWTs, GPUs, monitors) over its node
group — and runs them bulk-synchronously in fixed tick **epochs**:

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

At the end every worker finalizes its monitors and sends each rank
home as a picklable store-backed run (:meth:`ZeroSum.detach
<repro.core.monitor.ZeroSum.detach>`); the step's accessors work on
those runs exactly as the serial step's work on live monitors.

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

**Failure containment.**  A worker that dies (EOF on its pipe, or a
reaped exit) or stays alive but silent past ``epoch_timeout`` is
classified with the collector failure taxonomy
(:func:`~repro.collect.faults.classify_failure`) and recorded as one
``crashed:`` or ``hung:`` failure on a
:class:`~repro.collect.faults.DegradationLedger`.  The lost worker is
reaped, the surviving shards are finalized at the current epoch, and
the job returns partial results instead of hanging; the lost shard's
ranks raise :class:`~repro.errors.LaunchError` from the accessors.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import DeadlockError, LaunchError
from repro.kernel.clock import Clock
from repro.kernel.scheduler import SimKernel
from repro.launch.job import AppFactory, _StepSurface, build_world
from repro.launch.options import SrunOptions
from repro.launch.slurm import TaskAssignment
from repro.mpi.comm import ShardMpiJob
from repro.mpi.fabric import Fabric, RemoteEnvelope, ShardFabric
from repro.topology.objects import Machine

__all__ = [
    "ShardPlan",
    "ShardedJobStep",
    "plan_shards",
    "launch_sharded",
]

#: must match SimKernel's first_pid default — the serial PID layout
#: every shard replays
_FIRST_PID = 18300
#: PID base for dynamic spawns after launch (per-shard disjoint ranges)
_DYNAMIC_PID_STRIDE = 1_000_000


@dataclass(frozen=True)
class ShardPlan:
    """One worker's slice of the cluster."""

    index: int
    node_indices: tuple[int, ...]  # global node indices, ascending
    ranks: tuple[int, ...]  # world ranks resident on those nodes


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
        kernel = SimKernel(
            [machines[g] for g in plan.node_indices],
            timeslice=timeslice,
            smt_efficiency=smt_efficiency,
        )
        # shards report traffic and build envelopes in global node terms
        for local, global_index in enumerate(plan.node_indices):
            kernel.nodes[local].node_index = global_index
        self.kernel = kernel
        self.job: Optional[ShardMpiJob] = None
        if use_mpi:
            fabric = ShardFabric(
                rank_node={a.rank: a.node_index for a in assignments},
                local_ranks=plan.ranks,
                **fabric_spec,
            )
            self.job = ShardMpiJob(kernel, fabric, world_size=options.ntasks)
        self.step = build_world(
            kernel,
            self.job,
            assignments,
            options,
            app,
            helper_thread=helper_thread,
            monitor_factory=monitor_factory,
            first_pid=_FIRST_PID,
        )
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

    def finish(self, end_tick: int) -> list:
        """Align to the global end tick, finalize monitors, send the
        ranks home as runs."""
        kernel = self.kernel
        if kernel.clock.tick < end_tick and kernel.alive_work():
            # degraded abort: best-effort idle-through to the end
            kernel.run(
                max_ticks=end_tick - kernel.clock.tick,
                until_tick=end_tick,
                raise_on_stall=False,
            )
        kernel.park(end_tick)
        self.step.finalize()
        # detach after every monitor finalized: the node state is final
        return [monitor.detach() for monitor in self.step.monitors]


def _serve(shard: _Shard, conn) -> None:
    """Answer orchestrator commands until finish or EOF."""
    while True:
        try:
            cmd = conn.recv()
        except EOFError:
            return  # orchestrator went away
        if cmd[0] == "epoch":
            _, until, inbound, completions = cmd
            conn.send(("epoch", shard.run_epoch(until, inbound, completions)))
        elif cmd[0] == "finish":
            conn.send(("results", shard.finish(cmd[1])))
            return
        else:  # pragma: no cover - protocol error
            raise LaunchError(f"unknown shard command {cmd[0]!r}")


def _worker_main(conn, build, to_close) -> None:
    """Worker process entry: build the shard, serve barrier commands.

    ``to_close`` lists every inherited connection this worker must NOT
    hold — other shards' pipes and the orchestrator-side end of its
    own.  Closing them is what makes EOF death-detection work: a pipe
    only reports EOF once *every* copy of the far end is gone.
    """
    for stale in to_close:
        try:
            stale.close()
        except (OSError, ValueError):
            pass
    try:
        _serve(build(), conn)
    except BaseException as exc:
        try:
            conn.send(
                ("error", {"exc": repr(exc), "traceback": traceback.format_exc()})
            )
        except Exception:
            pass
        os._exit(1)


# ----------------------------------------------------------------------
# orchestrator side
# ----------------------------------------------------------------------
def _reap(proc, join_timeout: float) -> None:
    """terminate -> join -> kill -> join: a worker that ignores SIGTERM
    cannot outlive the step as a zombie child."""
    if proc.is_alive():
        proc.terminate()
        proc.join(join_timeout)
        if proc.is_alive():
            proc.kill()
    proc.join(join_timeout)


def _describe(cause: BaseException) -> str:
    """Human-form diagnosis: type plus message (many EOFErrors are bare)."""
    text = str(cause)
    return f"{type(cause).__name__}: {text}" if text else type(cause).__name__


class _WorkerLost(Exception):
    """Internal: one worker failed to answer; carries the diagnosis."""

    def __init__(self, shard: int, cause: BaseException):
        super().__init__(f"shard {shard}: {cause!r}")
        self.cause = cause


class ShardedJobStep(_StepSurface):
    """A sharded job: the serial :class:`~repro.launch.job.JobStep`'s
    accessor surface over the runs its workers sent home.

    ``run()`` drives the epoch barrier loop *and* finalizes the
    workers (remote monitors cannot be flushed lazily), so
    ``finalize()`` is a no-op kept for call-site compatibility.
    Afterwards ``monitors`` holds one store-backed run per surviving
    rank, in rank order; a lost shard's ranks raise
    :class:`~repro.errors.LaunchError` from the accessors.
    """

    def __init__(
        self,
        plans: list[ShardPlan],
        options: SrunOptions,
        lookahead: int,
        *,
        epoch_timeout: Optional[float],
    ):
        self.plans = plans
        self.options = options
        self.lookahead = lookahead
        self.epoch_timeout = epoch_timeout
        # lazy: repro.collect pulls in repro.core, which imports launch
        from repro.collect.faults import DegradationLedger

        self.monitors: list = []
        #: the runs the workers sent home, by rank
        self.rank_results: dict = {}
        self.ticks_run = 0
        self.epochs_run = 0
        self.ledger = DegradationLedger()
        self._procs: list = []
        self._conns: list = []
        self._sent_at: list[float] = []
        self._boundary = 0
        self._lost: set[int] = set()
        self._collected = False
        self._shard_of_rank = {
            r: p.index for p in plans for r in p.ranks
        }
        self._hz = Clock().hz

    # -- lifecycle -------------------------------------------------------
    def _fork(self, ctx, build: Callable[[], _Shard]) -> None:
        """Fork one worker; it keeps only its own end of its own pipe."""
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main,
            args=(child_conn, build, [*self._conns, parent_conn]),
            name=f"zerosum-shard-{len(self._procs)}",
            daemon=True,
        )
        proc.start()
        child_conn.close()
        self._procs.append(proc)
        self._conns.append(parent_conn)
        self._sent_at.append(time.monotonic())

    def close(self, join_timeout: float = 5.0) -> None:
        """Reap every worker (idempotent).

        Closing the pipes first lets healthy workers exit on EOF;
        whatever survives is escalated by :func:`_reap`.
        """
        for conn in self._conns:
            conn.close()
        for proc in self._procs:
            _reap(proc, join_timeout)

    def __del__(self):  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            pass

    # -- the wire --------------------------------------------------------
    def _send(self, shard: int, cmd: tuple) -> None:
        self._sent_at[shard] = time.monotonic()
        try:
            self._conns[shard].send(cmd)
        except (OSError, ValueError):
            pass  # the worker died between barriers; _await diagnoses it

    def _await(self, shard: int, expect: str):
        """The worker's ``expect`` reply, or :class:`_WorkerLost`.

        The diagnosis distinguishes death — EOF, an unreadable frame,
        a reaped exit — from a hang: alive but silent past
        ``epoch_timeout`` since the command was sent, which is
        ``HangDetected``.
        """
        from repro.collect.faults import HangDetected

        conn = self._conns[shard]
        proc = self._procs[shard]
        slice_s = min(1.0, (self.epoch_timeout or 120.0) / 8)
        while True:
            try:
                if conn.poll(slice_s):
                    msg = conn.recv()
                    if msg[0] == expect:
                        return msg[1]
                    if msg[0] == "error":
                        detail = msg[1]["exc"] + "\n" + msg[1]["traceback"]
                        raise _WorkerLost(shard, RuntimeError(detail))
                    raise _WorkerLost(
                        shard,
                        LaunchError(
                            f"protocol violation: {msg[0]!r} while "
                            f"awaiting {expect!r}"
                        ),
                    )
            except (EOFError, OSError, pickle.UnpicklingError) as exc:
                raise _WorkerLost(shard, exc)
            if not proc.is_alive():
                if conn.poll(0):
                    continue  # drain the dying worker's last message
                raise _WorkerLost(
                    shard, EOFError(f"worker exited (exitcode {proc.exitcode})")
                )
            elapsed = time.monotonic() - self._sent_at[shard]
            if self.epoch_timeout is not None and elapsed > self.epoch_timeout:
                raise _WorkerLost(
                    shard,
                    HangDetected(
                        f"missed the epoch barrier after "
                        f"{self.epoch_timeout:g}s with the process still "
                        f"alive"
                    ),
                )

    def _record_loss(self, shard: int, cause: BaseException) -> None:
        """Contain one lost worker: ledger it, reap it."""
        from repro.collect.faults import HangDetected, classify_failure

        plan = self.plans[shard]
        verb = "hung" if isinstance(cause, HangDetected) else "crashed"
        self.ledger.record_failure(
            f"shard-{shard}",
            tick=float(self._boundary),
            reason=(
                f"worker for nodes {list(plan.node_indices)} "
                f"(ranks {list(plan.ranks)}) {verb}: {_describe(cause)}"
            ),
            failure_class=classify_failure(cause),
        )
        _reap(self._procs[shard], 1.0)
        self._conns[shard].close()
        self._lost.add(shard)

    # -- the epoch barrier loop ------------------------------------------
    def run(self, max_ticks: int = 10_000_000, raise_on_stall: bool = True) -> int:
        """Drive all shards to completion; returns elapsed ticks."""
        if self._collected:
            return self.ticks_run
        L = self.lookahead
        n = len(self.plans)
        active = [i for i in range(n)]
        clocks = [0] * n
        inbound: dict[int, list[RemoteEnvelope]] = {i: [] for i in range(n)}
        completions: dict[int, list[dict]] = {i: [] for i in range(n)}
        colls: dict[tuple[str, int], dict] = {}
        world = self.options.ntasks
        boundary = 0
        epochs = 0

        while active and boundary < max_ticks:
            boundary = min(boundary + L, max_ticks)
            epochs += 1
            self._boundary = boundary
            for shard in active:
                self._send(
                    shard, ("epoch", boundary, inbound[shard], completions[shard])
                )
                inbound[shard] = []
                completions[shard] = []
            replies: dict[int, dict] = {}
            for shard in list(active):
                try:
                    reply = self._await(shard, "epoch")
                except _WorkerLost as exc:
                    self._record_loss(shard, exc.cause)
                    active.remove(shard)
                    continue
                replies[shard] = reply
                clocks[shard] = reply["clock"]
            if self._lost:
                break  # degrade: the survivors finish at this epoch

            # route cross-shard messages in serial injection order
            envelopes: list[RemoteEnvelope] = []
            for reply in replies.values():
                envelopes.extend(reply["outbox"])
            envelopes.sort(key=RemoteEnvelope.sort_key)
            routed = 0
            for env in envelopes:
                dst = self._shard_of_rank.get(env.dst_rank)
                if dst is not None:
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


        self.epochs_run = epochs
        end_tick = max(clocks) if clocks else 0
        self.ticks_run = end_tick
        self._collect(end_tick)
        return self.ticks_run

    def _collect(self, end_tick: int) -> None:
        for shard in range(len(self.plans)):
            if shard in self._lost:
                continue
            self._send(shard, ("finish", end_tick))
            try:
                runs = self._await(shard, "results")
            except _WorkerLost as exc:
                self._record_loss(shard, exc.cause)
                continue
            self.rank_results.update((run.rank, run) for run in runs)
        self.monitors = [self.rank_results[r] for r in sorted(self.rank_results)]
        self._collected = True
        self.close()

    def finalize(self) -> None:
        """No-op: workers finalize their monitors inside ``run()``."""

    @property
    def degradations(self) -> list:
        """Worker-loss events recorded during the run."""
        return list(self.ledger.events)

    def _lookup(self, rank: int):
        shard = self._shard_of_rank.get(rank)
        if shard in self._lost:
            raise LaunchError(f"no monitor for rank {rank}: shard {shard} was lost")
        return self.rank_results.get(rank)

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
    epoch_timeout: Optional[float] = 120.0,
) -> ShardedJobStep:
    """Build the sharded world for one job step (does not run it).

    Workers are forked immediately so they inherit ``machines``, the
    app factory, and the monitor factory without pickling; the epoch
    loop starts on :meth:`ShardedJobStep.run`.  The monitors the
    factory makes must ``detach()`` into a picklable run, as
    :class:`~repro.core.monitor.ZeroSum` does.  ``epoch_timeout`` is
    how long a live worker may stay silent on one command before it
    is ledgered as hung (``None``: wait forever).
    """
    from repro.launch.slurm import assign_tasks

    if "fork" not in multiprocessing.get_all_start_methods():
        raise LaunchError(
            "sharded execution needs the fork start method (POSIX only)"
        )
    spec = _fabric_spec(fabric)

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
        # the epoch is the fabric lookahead (module docstring)
        int(spec["remote_latency"]),
        epoch_timeout=epoch_timeout,
    )
    ctx = multiprocessing.get_context("fork")
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

        step._fork(ctx, build)
    return step
