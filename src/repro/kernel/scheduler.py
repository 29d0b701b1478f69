"""The simulated kernel: scheduling, wakeups, timers, memory, devices.

This is the substrate that stands in for the Linux kernel on the HPC
nodes of the paper.  It runs a discrete-time loop where one tick is one
jiffy (10 ms); per tick, every hardware thread executes at most one
runnable LWP, with CFS-like timeslice preemption, wake-up preemption,
affinity enforcement and periodic idle-balancing.  All the quantities
ZeroSum observes through ``/proc`` fall out of this loop:

* per-LWP user/system jiffies, voluntary (``ctx``) and non-voluntary
  (``nv_ctx``) context switches, migrations, page faults;
* per-HWT user/system/idle jiffies;
* per-process RSS and node-wide memory.

The loop is event-driven rather than scan-the-world:

* each node keeps an **active-CPU set** (CPUs with a current occupant
  or queued work); the per-tick scheduling pass walks only those, so a
  128-HWT Frontier node with four busy CPUs costs four visits;
* the kernel keeps **O(1) incremental counters** of alive non-daemon
  and runnable LWPs (maintained by the LWP state setter), so the run
  loop's ``alive_work()``/``stalled()`` checks never rescan ``lwps``;
* :meth:`SimKernel.run` takes every **window** of ticks that needs no
  scheduler decision in one call.  Each busy CPU is steady on the
  batched SoA path (see :mod:`repro.kernel.soa`) or in a steady
  round-robin on the scalar path: every occupant mid-``Compute``, no
  wake preemption armed, so a thread is switched out only when its
  timeslice expires.  No GPU kernel is about to start, and the window
  ends before the next sleeper or timer deadline, compute running
  out, SoA eviction, GPU kernel or I/O completion, or a balance that
  could steal a queued thread.  Such a tick only runs arithmetic
  (accounting adds, slice expiries and queue rotations, device sensor
  recurrences, bandwidth drain, iowait), and the window applies the
  same sequential arithmetic for ``k`` ticks at once; idle jiffies are
  derived from the clock (see ``HWTState.idle_at``).  The tick that
  changes state is stepped.

Determinism: given identical inputs the simulation is bit-identical,
with the window jump enabled or not (``fast_forward=False`` steps
every tick, as do runs with an ``until`` predicate or ``on_tick``
observers).  All stochastic workload behaviour comes from seeded RNGs
in the apps and devices.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Iterable, Optional

from repro.errors import DeadlockError, OutOfMemoryError, SchedulerError
from repro.kernel.clock import Clock
from repro.kernel.directives import Alloc, Call, Compute, FileIo, Free, Sleep, Wait, YieldCpu
from repro.kernel.hwt import HWTState
from repro.kernel.io import IoRequest
from repro.kernel.lwp import LWP, Behavior, ThreadRole, ThreadState
from repro.kernel.node import SimNode
from repro.kernel.process import SimProcess
from repro.kernel.soa import NodeAccounting, ticks_above
from repro.topology.cpuset import CpuSet
from repro.topology.objects import Machine

__all__ = ["SimKernel"]

_EPS = 1e-9
#: a CPU only joins the batched accounting path while its directive has
#: strictly more than one full tick of work left (the final partial or
#: boundary tick needs the slow path's advance/block handling)
_ENROLL_ABOVE = 1.0 + _EPS
#: safety bound on instantaneous directives processed per advance
_MAX_INSTANT = 100_000
#: safety bound on thread switches per HWT per tick
_MAX_SWITCHES_PER_TICK = 1000


class SimKernel:
    """Discrete-time kernel simulator over one or more nodes."""

    def __init__(
        self,
        nodes: Machine | SimNode | Iterable[Machine | SimNode],
        timeslice: int = 3,
        lb_interval: int = 5,
        first_pid: int = 18300,
        smt_efficiency: float = 1.0,
        fast_forward: bool = True,
        vector_accounting: bool = True,
    ):
        if isinstance(nodes, (Machine, SimNode)):
            nodes = [nodes]
        self.nodes: list[SimNode] = [
            n if isinstance(n, SimNode) else SimNode(n, i)
            for i, n in enumerate(nodes)
        ]
        for i, node in enumerate(self.nodes):
            node.node_index = i
        if timeslice < 1:
            raise SchedulerError("timeslice must be >= 1 tick")
        if not 0.5 <= smt_efficiency <= 1.0:
            raise SchedulerError("smt_efficiency must be in [0.5, 1.0]")
        self.timeslice = timeslice
        self.lb_interval = lb_interval
        #: per-lane work throughput when the SMT sibling lane is also
        #: busy: 1.0 models independent lanes; < 1.0 models the shared
        #: core pipeline (a thread occupies the lane for a full jiffy
        #: but retires only ``smt_efficiency`` jiffies of work)
        self.smt_efficiency = smt_efficiency
        #: allow run() to take windows that need no scheduler decision
        #: in one call (see _window); False steps every tick
        self.fast_forward = fast_forward
        #: batch steady busy-CPU accounting into per-node arrays (see
        #: repro.kernel.soa); the SMT throughput model needs sequential
        #: per-lane scans, so it keeps the scalar path
        self.vector_accounting = vector_accounting and smt_efficiency >= 1.0
        for node in self.nodes:
            # nodes may be reused across kernels: re-derive the scan set
            # and (re)attach or clear the accounting arrays
            node.scan_cpus = set(node.active_cpus)
            node._acct = (
                NodeAccounting(node, _ENROLL_ABOVE)
                if self.vector_accounting
                else None
            )
        #: bumped on every LWP state transition and affinity move; part
        #: of the iowait attribution cache key
        self._state_epoch = 0
        self.clock = Clock()
        self.processes: dict[int, SimProcess] = {}
        self.lwps: dict[int, LWP] = {}
        # O(1) liveness counters, maintained via LWP state transitions
        self._nondaemon_alive = 0
        self._runnable_count = 0
        self._pid_counter = itertools.count(first_pid)
        self._seq = itertools.count()
        # (wake_tick, seq, lwp) min-heap of timed sleeps
        self._sleepers: list[tuple[int, int, LWP]] = []
        # (tick, seq, callback) min-heap of timer callbacks (MPI fabric &c.)
        self._timers: list[tuple[int, int, Callable[["SimKernel"], None]]] = []
        #: external per-tick observers (monitor bookkeeping, tracing)
        self.on_tick: list[Callable[["SimKernel"], None]] = []
        #: (tick, lwp, exception) for every crashed thread
        self.crashes: list[tuple[int, LWP, BaseException]] = []
        #: crash observers (ZeroSum's signal-handler backtrace reporter)
        self.on_crash: list[Callable[["SimKernel", LWP, BaseException], None]] = []

    # ------------------------------------------------------------------
    # construction: processes and threads
    # ------------------------------------------------------------------
    def spawn_process(
        self,
        node: SimNode | int,
        cpuset: CpuSet,
        main_behavior: Behavior,
        command: str = "a.out",
        env: Optional[dict[str, str]] = None,
        rank: Optional[int] = None,
        name: str = "main",
        roles: Optional[set[ThreadRole]] = None,
    ) -> SimProcess:
        """Create a process with its main thread (TID == PID)."""
        if isinstance(node, int):
            node = self.nodes[node]
        if not cpuset:
            raise SchedulerError("process cpuset must not be empty")
        if not cpuset.issubset(node.machine_cpuset):
            raise SchedulerError(
                f"cpuset {cpuset.to_list()} not contained in node CPUs"
            )
        pid = next(self._pid_counter)
        proc = SimProcess(pid, node, cpuset, command=command, env=env, rank=rank)
        node.processes[pid] = proc
        self.processes[pid] = proc
        main = LWP(
            tid=pid,
            process=proc,
            behavior=main_behavior,
            name=name,
            affinity=cpuset,
            roles=roles or {ThreadRole.MAIN},
            start_tick=self.clock.tick,
        )
        proc.add_thread(main)
        self.lwps[pid] = main
        self._register_lwp(main)
        self._place_new(main, parent=None)
        return proc

    def spawn_thread(
        self,
        process: SimProcess,
        behavior: Behavior,
        name: str = "",
        affinity: Optional[CpuSet] = None,
        roles: Optional[set[ThreadRole]] = None,
        daemon: bool = False,
        parent: Optional[LWP] = None,
    ) -> LWP:
        """Create an additional thread in an existing process."""
        if affinity is not None and not affinity:
            raise SchedulerError("thread affinity must not be empty")
        tid = next(self._pid_counter)
        lwp = LWP(
            tid=tid,
            process=process,
            behavior=behavior,
            name=name,
            affinity=affinity,
            roles=roles,
            daemon=daemon,
            start_tick=self.clock.tick,
        )
        process.add_thread(lwp)
        self.lwps[tid] = lwp
        self._register_lwp(lwp)
        self._place_new(lwp, parent=parent or process.main_thread)
        return lwp

    def set_next_pid(self, pid: int) -> None:
        """Reposition the PID/TID counter.

        The sharded launcher uses this to replay the serial launcher's
        global PID layout inside each shard, so per-rank reports carry
        the same PIDs regardless of how the job was partitioned.
        """
        self._pid_counter = itertools.count(pid)

    def _register_lwp(self, lwp: LWP) -> None:
        """Start counting this LWP's liveness and runnability."""
        lwp._state_watcher = self
        if lwp.alive and not lwp.daemon:
            self._nondaemon_alive += 1
        if lwp.state is ThreadState.RUNNING:
            self._runnable_count += 1

    def on_state_change(
        self, lwp: LWP, old: ThreadState, new: ThreadState
    ) -> None:
        """LWP state-setter hook: keep the O(1) counters current."""
        self._state_epoch += 1
        if not lwp.daemon:
            dead = (ThreadState.ZOMBIE, ThreadState.DEAD)
            was_alive = old not in dead
            is_alive = new not in dead
            if was_alive and not is_alive:
                self._nondaemon_alive -= 1
            elif is_alive and not was_alive:
                self._nondaemon_alive += 1
        if old is ThreadState.RUNNING:
            self._runnable_count -= 1
        if new is ThreadState.RUNNING:
            self._runnable_count += 1

    def _place_new(self, lwp: LWP, parent: Optional[LWP]) -> None:
        """Initial runqueue placement: the parent's CPU if allowed, else
        the first allowed CPU — the idle balancer spreads from there,
        which is exactly how unbound OpenMP threads end up migrating at
        least once (Table 2)."""
        node = lwp.process.node
        if parent is not None and parent.cur_cpu in lwp.affinity:
            cpu = parent.cur_cpu
        else:
            cpu = lwp.affinity.first()
        assert cpu is not None
        lwp.last_cpu = cpu
        hwt = node.hwt(cpu)
        hwt.enqueue(lwp)
        # fork preemption: a fresh thread competes immediately (CFS gives
        # new tasks minimal vruntime), so it cannot starve behind a
        # long-running thread with an unexpired slice
        hwt.preempt_pending = True

    # ------------------------------------------------------------------
    # wakeups and timers
    # ------------------------------------------------------------------
    def wake(self, lwp: LWP, preempt: bool = True) -> None:
        """Make a blocked LWP runnable again (event fired, message came)."""
        st = lwp._state
        if st is not ThreadState.DISK and st is not ThreadState.SLEEPING:
            return
        # inline blocked -> RUNNING when the state watcher is this
        # kernel (both states are alive, so only two counters move)
        if lwp._state_watcher is self:
            lwp._state = ThreadState.RUNNING
            self._state_epoch += 1
            self._runnable_count += 1
        else:
            lwp.state = ThreadState.RUNNING
        lwp.wake_tick = None
        node = lwp.process.node
        # common case inlined: the previous CPU is idle, take it
        cpu = lwp.cur_cpu
        if cpu is None or cpu in node.active_cpus or cpu not in lwp.affinity:
            cpu = self._select_wake_cpu(lwp)
        hwt = node.hwts[cpu]
        hwt.enqueue(lwp, front=True)
        if preempt:
            hwt.preempt_pending = True

    def _select_wake_cpu(self, lwp: LWP) -> int:
        """Wake placement: previous CPU if idle, else the first idle
        allowed CPU, else the previous CPU, else least-loaded allowed."""
        node = lwp.process.node
        prev = lwp.cur_cpu
        allowed = prev is not None and prev in lwp.affinity
        if allowed and prev not in node.active_cpus:
            return prev
        # a CPU is idle (nr_running == 0) iff it is not in the active
        # set; short-circuit on the first allowed one instead of
        # materializing the whole idle list
        active = node.active_cpus
        for c in lwp.affinity:
            if c not in active:
                return c
        if allowed:
            return prev
        return min(lwp.affinity, key=lambda c: (node.hwt(c).nr_running, c))

    def set_affinity(self, lwp: LWP, cpuset: CpuSet) -> None:
        """``sched_setaffinity``: restrict an LWP to a cpuset.

        If the thread currently sits on a now-disallowed CPU it is moved
        immediately (queued) or preempted off it (running).
        """
        if not cpuset:
            raise SchedulerError("affinity must not be empty")
        node = lwp.process.node
        if not cpuset.issubset(node.machine_cpuset):
            raise SchedulerError(
                f"affinity {cpuset.to_list()} not contained in node CPUs"
            )
        lwp.affinity = cpuset
        # a blocked thread's wake CPU can change below without any state
        # transition: invalidate the iowait attribution cache
        self._state_epoch += 1
        if lwp.cur_cpu is None or lwp.cur_cpu in cpuset:
            return
        old = node.hwt(lwp.cur_cpu)
        if old.current is lwp:
            old.current = None
        else:
            old.dequeue(lwp)
        if lwp.runnable:
            target = min(cpuset, key=lambda c: (node.hwt(c).nr_running, c))
            node.hwt(target).enqueue(lwp)
        else:
            lwp.cur_cpu = cpuset.first()

    def call_at(self, tick: int, fn: Callable[["SimKernel"], None]) -> None:
        """Schedule a callback at an absolute tick (>= now)."""
        if tick < self.clock.tick:
            raise SchedulerError("cannot schedule a timer in the past")
        heapq.heappush(self._timers, (tick, next(self._seq), fn))

    def call_after(self, ticks: int, fn: Callable[["SimKernel"], None]) -> None:
        """Schedule a callback a relative number of ticks from now."""
        self.call_at(self.clock.tick + max(0, ticks), fn)

    # ------------------------------------------------------------------
    # blocking and exiting
    # ------------------------------------------------------------------
    def _current_hwt(self, lwp: LWP) -> Optional[HWTState]:
        if lwp.cur_cpu is None:
            return None
        hwt = lwp.process.node.hwts[lwp.cur_cpu]
        return hwt if hwt._current is lwp else None

    def _release_cpu(self, lwp: LWP) -> None:
        hwt = self._current_hwt(lwp)
        if hwt is not None:
            hwt.current = None

    def _block_sleep(self, lwp: LWP, ticks: int) -> None:
        lwp.state = ThreadState.SLEEPING
        lwp.vcsw += 1
        lwp.current_directive = None
        lwp.wake_tick = self.clock.tick + ticks
        heapq.heappush(self._sleepers, (lwp.wake_tick, next(self._seq), lwp))
        self._release_cpu(lwp)

    def _block_wait(self, lwp: LWP, directive: Wait) -> None:
        lwp.state = (
            ThreadState.DISK if directive.state == "D" else ThreadState.SLEEPING
        )
        lwp.vcsw += 1
        lwp.current_directive = None
        directive.obj.add_waiter(lwp)
        self._release_cpu(lwp)

    def _block_io(self, lwp: LWP, directive: FileIo) -> None:
        """Issue a filesystem transfer and sleep uninterruptibly."""
        proc = lwp.process
        request = IoRequest(
            nbytes=directive.nbytes, write=directive.write, lwp=lwp
        )
        if directive.write:
            proc.write_syscalls += 1
        else:
            proc.read_syscalls += 1
        proc.node.io.start(self, request)
        # inline RUNNING -> DISK (the state watcher is this kernel and
        # both states are alive, so only these two counters move)
        lwp._state = ThreadState.DISK
        self._state_epoch += 1
        self._runnable_count -= 1
        lwp.vcsw += 1
        lwp.current_directive = None
        request.waiter = lwp
        self._release_cpu(lwp)

    def _exit_lwp(self, lwp: LWP) -> None:
        lwp.state = ThreadState.DEAD
        lwp.exit_tick = self.clock.tick
        lwp.current_directive = None
        self._release_cpu(lwp)
        proc = lwp.process
        # exit(2) semantics: once every non-daemon thread has returned,
        # the process is done — surviving daemon threads (monitors,
        # parked OpenMP workers, MPI helpers) die with it
        if proc.exit_code is None and not any(
            t.alive and not t.daemon for t in proc.threads.values()
        ):
            proc.exit_code = 0
            for t in list(proc.threads.values()):
                if t.alive:
                    self._kill_thread(t)
            self._reap_process(proc)

    def _reap_process(self, proc: SimProcess) -> None:
        """Reclaim a dead process's resident memory, like exit(2)."""
        if proc.rss_bytes > 0:
            proc.node.memory.release(proc.rss_bytes)
            proc.rss_bytes = 0

    def _kill_thread(self, lwp: LWP) -> None:
        """Mark a thread dead and scrub it from all scheduler structures."""
        lwp.state = ThreadState.DEAD
        lwp.exit_tick = self.clock.tick
        lwp.current_directive = None
        self._release_cpu(lwp)
        if lwp.cur_cpu is not None:
            lwp.process.node.hwt(lwp.cur_cpu).dequeue(lwp)

    def kill_process(self, proc: SimProcess, exit_code: int = 124) -> None:
        """Forcibly terminate a process (SIGKILL analogue) — used by the
        §3.3 deadlock mitigation "terminate the application to prevent
        wasting of allocation resources"."""
        if proc.exit_code is None:
            proc.exit_code = exit_code
        for t in list(proc.threads.values()):
            if t.alive:
                self._kill_thread(t)
        self._reap_process(proc)

    def _crash_lwp(self, lwp: LWP, exc: BaseException) -> None:
        """An exception escaped an app behavior: the simulated analogue
        of SIGSEGV/abort.  The whole process dies abnormally; registered
        crash observers (ZeroSum's backtrace handler) are notified."""
        self.crashes.append((self.clock.tick, lwp, exc))
        proc = lwp.process
        proc.exit_code = 139
        for t in list(proc.threads.values()):
            if t.alive:
                self._kill_thread(t)
        self._reap_process(proc)
        for fn in self.on_crash:
            fn(self, lwp, exc)

    # ------------------------------------------------------------------
    # generator advancement
    # ------------------------------------------------------------------
    def _advance(self, lwp: LWP, send_value: object = None) -> None:
        """Drive the behavior generator to its next time-consuming point.

        Instantaneous directives (Alloc/Free/Call, zero-length computes,
        already-satisfied waits) are executed inline; the loop ends when
        the LWP has a Compute scheduled, blocked, yielded, or exited.
        """
        pending_exc: Optional[BaseException] = None
        for _ in range(_MAX_INSTANT):
            try:
                if pending_exc is not None:
                    # deliver a failed Call like a failing syscall: the
                    # behavior may catch it (e.g. an MpiError) or die
                    directive = lwp.behavior.throw(pending_exc)
                    pending_exc = None
                else:
                    directive = lwp.behavior.send(send_value)
            except StopIteration:
                self._exit_lwp(lwp)
                return
            except SchedulerError:
                raise
            except Exception as exc:  # a simulated segfault / abort
                self._crash_lwp(lwp, exc)
                return
            send_value = None
            if isinstance(directive, Compute):
                if directive.remaining <= _EPS:
                    continue
                lwp.current_directive = directive
                return
            if isinstance(directive, FileIo):
                self._block_io(lwp, directive)
                return
            if isinstance(directive, Sleep):
                if directive.ticks <= 0:
                    continue
                self._block_sleep(lwp, directive.ticks)
                return
            if isinstance(directive, Wait):
                if directive.obj.ready(lwp):
                    continue
                self._block_wait(lwp, directive)
                return
            if isinstance(directive, YieldCpu):
                lwp.vcsw += 1
                lwp.current_directive = None
                hwt = self._current_hwt(lwp)
                if hwt is not None:
                    hwt.current = None
                    hwt.enqueue(lwp)
                return
            if isinstance(directive, Alloc):
                try:
                    self._do_alloc(lwp, directive.nbytes)
                except OutOfMemoryError:
                    # OOM-killed: every thread of the process is gone
                    self._kill_thread(lwp)
                    self._reap_process(lwp.process)
                    return
                continue
            if isinstance(directive, Free):
                lwp.process.free(directive.nbytes)
                lwp.process.node.memory.release(directive.nbytes)
                continue
            if isinstance(directive, Call):
                try:
                    result = directive.fn(self, lwp)
                except SchedulerError:
                    raise
                except Exception as exc:
                    pending_exc = exc
                    continue
                directive.result = result
                send_value = result
                continue
            raise SchedulerError(f"unknown directive {directive!r}")
        raise SchedulerError(
            f"LWP {lwp.tid} executed {_MAX_INSTANT} instantaneous directives "
            "without consuming time (runaway behavior?)"
        )

    def _do_alloc(self, lwp: LWP, nbytes: int) -> None:
        node = lwp.process.node
        try:
            node.memory.charge(nbytes)
        except OutOfMemoryError:
            node.memory.oom_events.append((self.clock.tick, lwp.process.pid))
            lwp.process.oom_killed = True
            lwp.process.exit_code = 137
            # snapshot: _kill_thread scrubs scheduler structures and a
            # state watcher may react by spawning/reaping — never mutate
            # the dict being iterated
            for t in list(lwp.process.threads.values()):
                if t.alive and t is not lwp:
                    self._kill_thread(t)
            raise
        lwp.minflt += lwp.process.allocate(nbytes)

    # ------------------------------------------------------------------
    # the per-tick loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the whole simulation by one tick (one jiffy)."""
        now = self.clock.tick

        # 1. timer callbacks (message deliveries, injected events)
        while self._timers and self._timers[0][0] <= now:
            _, _, fn = heapq.heappop(self._timers)
            fn(self)

        # 2. timed sleeper wakeups
        while self._sleepers and self._sleepers[0][0] <= now:
            _, _, lwp = heapq.heappop(self._sleepers)
            if lwp.state is ThreadState.SLEEPING and lwp.wake_tick is not None \
                    and lwp.wake_tick <= now:
                self.wake(lwp)

        # 3. device + filesystem progress (completions wake waiters)
        for node in self.nodes:
            for dev in node.gpus:
                dev.tick(self)
            node.io.tick(self)

        # 4. CPU scheduling.  Fully idle CPUs are never visited; their
        # idle time is derived (HWTState.idle_at).  The walk covers the
        # node's active set in ascending CPU order, merging in CPUs
        # activated *during* the pass (a wakeup fired while scheduling
        # an earlier CPU) exactly like a full ascending scan would:
        # activations behind the cursor wait for the next tick.
        track_smt = self.smt_efficiency < 1.0
        for node in self.nodes:
            if track_smt:
                # the SMT model needs busy_prev maintained on every
                # lane, including freshly idle ones: keep the full scan
                for hwt in node.hwts.values():
                    if hwt.current is None and not hwt.runqueue:
                        if hwt.busy_prev:
                            hwt.busy_prev = False
                        continue
                    self._schedule_hwt(node, hwt)
                    hwt.busy_prev = hwt.current is not None
                continue
            if node.scan_cpus:
                self._schedule_active(node)
            acct = node._acct
            if acct is not None:
                # batched tick for enrolled CPUs, then enroll this
                # pass's candidates (never both in the same jiffy)
                if acct.n:
                    acct.tick()
                if acct.pending:
                    acct.process_pending()

        # 5. iowait: a CPU whose last occupant is blocked on I/O and
        # which sits otherwise empty accrues iowait instead of idle
        for node in self.nodes:
            if node.io.inflight:
                self._accrue_iowait(node, 1.0)

        # 6. external observers
        for hook in self.on_tick:
            hook(self)

        self.clock.advance()

        # 7. periodic idle balancing
        if self.lb_interval > 0 and self.clock.tick % self.lb_interval == 0:
            self._balance()

    def _accrue_iowait(self, node: SimNode, amount: float) -> None:
        """Add ``amount`` iowait jiffies to every eligible CPU.

        The eligible set only changes when the in-flight set, CPU
        occupancy, or thread states/affinities do, so it is cached under
        an epoch key and reused across steady blocked-heavy windows.
        ``amount`` may batch several ticks: iowait only ever grows by
        whole jiffies, so ``+= k`` equals ``k`` additions of ``1.0``
        bit-for-bit.
        """
        io = node.io
        key = (io.epoch, node._occ_epoch, self._state_epoch)
        cache = node._iowait_cache
        if cache is not None and cache[0] == key:
            targets = cache[1]
        else:
            # the CPUs whose last occupant is blocked on I/O and that
            # nothing occupies now — one pass over the in-flight list,
            # no intermediate set, no property dispatch
            hwts = node.hwts
            targets = []
            seen: set[int] = set()
            sleeping = ThreadState.SLEEPING
            disk = ThreadState.DISK
            for request in io.inflight:
                lwp = request.lwp
                cpu = lwp.cur_cpu
                if cpu is None or cpu in seen:
                    continue
                st = lwp._state
                if st is not disk and st is not sleeping:
                    continue
                seen.add(cpu)
                hwt = hwts.get(cpu)
                if hwt is not None and hwt._current is None \
                        and not hwt.runqueue:
                    targets.append(hwt)
            node._iowait_cache = (key, targets)
        for hwt in targets:
            hwt.iowait += amount

    def _schedule_active(self, node: SimNode) -> None:
        """One scheduling pass over the node's active CPUs, ascending.

        CPUs that become active mid-pass (wakeups out of ``_advance``)
        are pushed onto a watch heap by the node and merged into the
        walk if they lie ahead of the cursor — the same set of CPUs a
        full ascending scan over ``node.hwts`` would have scheduled.
        """
        # enrolled CPUs (batched accounting) are excluded from the walk;
        # evictions behind the cursor replay their tick scalar-side, and
        # evictions ahead of it land on the watch heap like activations
        order = sorted(node.scan_cpus)
        pending: list[int] = []
        node._activation_watch = pending
        node._pass_cursor = -1
        try:
            i = 0
            last = -1
            while True:
                while pending and pending[0] <= last:
                    heapq.heappop(pending)  # behind the cursor: next tick
                nxt = order[i] if i < len(order) else None
                if pending and (nxt is None or pending[0] < nxt):
                    cpu = heapq.heappop(pending)
                else:
                    if nxt is None:
                        break
                    i += 1
                    if nxt <= last:
                        continue  # already visited via the watch heap
                    cpu = nxt
                last = cpu
                node._pass_cursor = cpu
                hwt = node.hwts[cpu]
                if hwt.current is None and not hwt.runqueue:
                    continue  # deactivated since the snapshot
                self._schedule_hwt(node, hwt)
        finally:
            node._activation_watch = None
            node._pass_cursor = None

    def _schedule_hwt(self, node: SimNode, hwt: HWTState) -> None:
        # preemption decision at the tick boundary; the wake/fork preempt
        # flag stays armed until it actually preempts someone (or the
        # queue drains), so a fresh waker cannot starve behind a long
        # unexpired timeslice
        cur = hwt.current
        if cur is not None and hwt.runqueue and (
            cur.slice_left <= 0 or hwt.preempt_pending
        ):
            cur.nvcsw += 1
            hwt.current = None
            hwt.enqueue(cur)
            hwt.preempt_pending = False
        elif not hwt.runqueue:
            hwt.preempt_pending = False

        budget = 1.0
        for _ in range(_MAX_SWITCHES_PER_TICK):
            cur = hwt._current
            if cur is None:
                if not hwt.runqueue:
                    # remaining budget counts as (derived) idle; a dead
                    # thread drained above may have emptied the CPU
                    hwt._deactivate_if_idle()
                    return
                # dispatch straight from the runqueue head, with no
                # transient deactivate/reactivate of the CPU (it had
                # queued work, so it stays active throughout)
                cur = hwt.runqueue.popleft()
                if not cur.runnable:  # killed while queued
                    continue
                hwt._current = cur
                cur.cur_cpu = hwt.os_index
                cur.slice_left = self.timeslice
            if cur.current_directive is None:
                self._advance(cur)
                if hwt.current is not cur:
                    continue  # blocked / exited / yielded: pick next now
            directive = cur.current_directive
            assert isinstance(directive, Compute)
            # SMT throughput: occupying a lane whose sibling lane was
            # busy last tick retires less work per wall jiffy
            rate = 1.0
            if self.smt_efficiency < 1.0:
                siblings = node.smt_siblings.get(hwt.os_index, ())
                if any(node.hwts[s].busy_prev for s in siblings):
                    rate = self.smt_efficiency
            user_frac = directive.user_frac
            use = min(budget, directive.remaining / rate)
            cur.charge(hwt.os_index, use, user_frac)
            # a CPU being visited is never enrolled in the batch path,
            # so its counters can be written directly
            hwt._user += use * user_frac
            hwt._system += use * (1.0 - user_frac)
            directive.remaining -= use * rate
            budget -= use
            if directive.remaining <= _EPS:
                cur.current_directive = None
                if budget <= _EPS:
                    # the compute ended exactly at the tick boundary:
                    # let the thread block/exit now rather than billing
                    # it an extra tick next round
                    self._advance(cur)
            if budget <= _EPS:
                if hwt.current is cur:
                    cur.slice_left -= 1
                    acct = node._acct
                    if (
                        acct is not None
                        and rate == 1.0
                        and not hwt.runqueue
                        and not hwt.preempt_pending
                        and cur.current_directive is not None
                        and cur.current_directive.remaining > _ENROLL_ABOVE
                    ):
                        # steady solo compute: candidate for the batched
                        # accounting path from the next tick on
                        acct.pending.append((hwt, cur, cur.current_directive))
                return
        raise SchedulerError(
            f"CPU {hwt.os_index} switched threads {_MAX_SWITCHES_PER_TICK} "
            "times in one tick"
        )

    def _balance(self) -> None:
        """Idle balancing: each idle CPU steals one queued thread whose
        affinity allows it, from the most loaded CPU on the same node.

        Donors live in one lazily refreshed min-heap keyed by
        ``(-nr_running, cpu)`` — the exact visit order the old
        sort-per-idle-CPU produced (load descending, CPU ascending on
        ties) without re-sorting the world for every idle CPU.  Stale
        entries (a donor shrank since push) are re-keyed on pop;
        drained donors are dropped.
        """
        for node in self.nodes:
            # donors can only be active CPUs with queued (not just
            # running) work — the common all-idle/all-pinned tick exits
            # here without touching the full CPU map
            hwts = node.hwts
            heap = [
                (-hwts[c].nr_running, c)
                for c in node.active_cpus
                if hwts[c].runqueue
            ]
            if not heap:
                continue
            heapq.heapify(heap)
            # only idle CPUs some queued candidate is allowed to run on
            # are worth visiting; scanning any other idle CPU finds no
            # movable thread and has no observable effect.  Stolen
            # threads re-enter the donor order with the same affinities,
            # so the union over the initial candidates covers every
            # candidate this round will ever hold.
            movable = 0
            for _, cpu in heap:
                for cand in hwts[cpu].runqueue:
                    movable |= cand.affinity.mask
            if not movable:
                continue
            # idle snapshot up front, as before: a CPU fed by an earlier
            # steal this round keeps its slot in the visit order.  A CPU
            # is idle (nr_running == 0) exactly when it is not active
            active_mask = 0
            for cpu in node.active_cpus:
                active_mask |= 1 << cpu
            idle_mask = movable & ~active_mask
            while idle_mask:
                low_bit = idle_mask & -idle_mask
                idle_mask ^= low_bit
                idle = hwts[low_bit.bit_length() - 1]
                stolen = None
                kept: list[tuple[int, int]] = []  # popped, still donors
                while heap:
                    neg_nr, cpu = heapq.heappop(heap)
                    donor = hwts[cpu]
                    if not donor.runqueue:
                        continue  # drained: drop permanently
                    key = (-donor.nr_running, cpu)
                    if key != (neg_nr, cpu):
                        heapq.heappush(heap, key)  # re-key and retry
                        continue
                    if donor.nr_running <= 1:
                        kept.append(key)
                        break  # every remaining donor is as light
                    for cand in reversed(donor.runqueue):
                        if idle.os_index in cand.affinity:
                            stolen = cand
                            donor.dequeue(cand)
                            break
                    if stolen is not None:
                        if donor.runqueue:
                            heapq.heappush(heap, (-donor.nr_running, cpu))
                        break
                    kept.append(key)  # no movable thread for this CPU
                for key in kept:
                    heapq.heappush(heap, key)
                if stolen is not None:
                    idle.enqueue(stolen)
                    # the fed CPU now holds one queued thread: it joins
                    # the donor order (only ever as a break sentinel)
                    heapq.heappush(heap, (-1, idle.os_index))

    # ------------------------------------------------------------------
    # run control
    # ------------------------------------------------------------------
    def alive_work(self) -> bool:
        """True while any non-daemon LWP is alive (O(1), counted)."""
        return self._nondaemon_alive > 0

    def stalled(self) -> bool:
        """True if nothing can ever make progress again: non-daemon work
        remains but no LWP is runnable and no timer/sleeper/device event
        is pending."""
        if self._runnable_count > 0:
            return False
        if self._nondaemon_alive == 0:
            return False
        if self._sleepers or self._timers:
            return False
        if any(node.io.inflight for node in self.nodes):
            return False
        if any(dev.pending_kernels for node in self.nodes for dev in node.gpus):
            return False
        return True

    # -- the window jump --------------------------------------------------
    def _window(self, limit: int) -> int:
        """Ticks from now (at most ``limit``) that need no scheduler
        decision, so :meth:`_advance_window` may take them in one call.

        Zero while an SoA enroll candidate waits, a CPU on the scalar
        path is not in a steady round-robin (see :meth:`_rotation_ticks`)
        or a device holds a queued kernel that has not started.
        Otherwise every tick before the first state change: a rotating
        thread's compute about to run out, a balance that could steal a
        queued thread, an SoA member evicted, a GPU kernel or I/O
        transfer completing.  The tick that changes state is left to
        :meth:`step`.  Sleeper and timer deadlines are the caller's bound
        (see :meth:`run`).
        """
        if limit < 1:
            return 0
        nodes = self.nodes
        for node in nodes:
            acct = node._acct
            if acct is not None and acct.pending:
                return 0
        now = self.clock.tick
        for node in nodes:
            if node.scan_cpus:
                limit = self._rotation_ticks(node, now, limit)
                if limit < 1:
                    return 0
        for node in nodes:
            acct = node._acct
            if acct is not None:
                limit = acct.steady_ticks(limit)
            for dev in node.gpus:
                limit = dev.window(limit)
            if node.io.inflight:
                # a completion one past the limit no longer binds
                limit = node.io.ticks_until_completion(now, limit + 1) - 1
            if limit < 1:
                return 0
        return limit

    def _rotation_ticks(self, node: SimNode, now: int, limit: int) -> int:
        """Ticks (at most ``limit``) for which every scan CPU of ``node``
        stays in a steady round-robin; 0 at the first CPU that is not.

        A CPU is steady while it has a current thread, no wake or fork
        preemption is armed, and every occupant, current or queued, is
        runnable and mid-``Compute`` with more than ``_ENROLL_ABOVE`` of
        work left.  Each tick then charges the current thread one full
        jiffy, and the only switch is a slice expiry: the current thread
        runs out its ``slice_left``, then the queue takes ``timeslice``
        ticks each, in order, the current thread last.  So the tick on
        which an occupant would first start a tick with too little work
        left is integer arithmetic on its ``ticks_above`` quota and its
        slot in that rotation.  A lone thread is never switched out.

        The periodic balancer only steals queued threads, onto idle CPUs
        their affinity allows.  If the occupants' affinities reach an
        idle CPU, the window ends before the next balance.
        """
        if self.smt_efficiency != 1.0:
            return 0  # the SMT model's rate depends on the sibling lane
        below = _ENROLL_ABOVE
        timeslice = self.timeslice
        running = ThreadState.RUNNING
        hwts = node.hwts
        movable = 0
        for cpu in node.scan_cpus:
            hwt = hwts[cpu]
            cur = hwt._current
            if cur is None or hwt.preempt_pending:
                return 0
            directive = cur.current_directive
            if (
                directive is None
                or cur._state is not running
                or not directive.remaining > below
            ):
                return 0
            queue = hwt.runqueue
            # an occupant with more than limit + 2 left takes at least
            # limit steady ticks, so it cannot bind: skip its quota
            rem = directive.remaining
            if not queue:
                if rem <= limit + 2:
                    limit = min(limit, ticks_above(rem, below) + 1)
                continue
            first = cur.slice_left if cur.slice_left > 0 else 0
            cycle = (len(queue) + 1) * timeslice
            if rem <= limit + 2:
                # ticks the current thread may still take: the first
                # ones now, the rest in the last slot of each cycle
                quota = ticks_above(rem, below) + 1
                if quota < first:
                    limit = min(limit, quota)
                else:
                    turns, extra = divmod(quota - first, timeslice)
                    limit = min(limit, first + turns * cycle
                                + len(queue) * timeslice + extra)
            for slot, lwp in enumerate(queue):
                directive = lwp.current_directive
                if (
                    directive is None
                    or lwp._state is not running
                    or not directive.remaining > below
                ):
                    return 0
                rem = directive.remaining
                if rem <= limit + 2:
                    quota = ticks_above(rem, below) + 1
                    turns, extra = divmod(quota, timeslice)
                    limit = min(limit, first + turns * cycle
                                + slot * timeslice + extra)
                movable |= lwp.affinity.mask
            movable |= cur.affinity.mask
        if movable and self.lb_interval > 0:
            active = node.active_cpus
            while movable:
                low_bit = movable & -movable
                movable ^= low_bit
                if low_bit.bit_length() - 1 not in active:
                    # step() balances once the clock reaches a multiple
                    # of lb_interval: stop one tick short of that
                    lb = self.lb_interval
                    return min(limit, lb - 1 - now % lb)
        return limit

    def _advance_window(self, ticks: int) -> None:
        """Advance ``ticks`` jiffies of a :meth:`_window`, bit-identical
        to stepping them.

        Per stepped tick, such a window only runs the round-robin
        rotations of the scan CPUs, the batched accounting tick, device
        progress, I/O drain and iowait, and a balance that finds no
        idle CPU a queued thread may move to; each of those advances
        ``ticks`` at once with the same sequential arithmetic.  Idle
        jiffies are derived from the clock.
        """
        for node in self.nodes:
            if node.scan_cpus:
                hwts = node.hwts
                for cpu in node.scan_cpus:
                    self._rotate(hwts[cpu], ticks)
            acct = node._acct
            if acct is not None:
                acct.advance(ticks)
            for dev in node.gpus:
                dev.advance(ticks)
            if node.io.inflight:
                node.io.drain(ticks)
                # iowait holds whole jiffies: += k is k exact += 1.0
                self._accrue_iowait(node, float(ticks))
            if self.smt_efficiency < 1.0:
                # a stepped idle tick clears the SMT busy-prev flags
                for hwt in node.hwts.values():
                    hwt.busy_prev = False
        self.clock.advance(ticks)

    def _rotate(self, hwt: HWTState, ticks: int) -> None:
        """Take ``ticks`` steady round-robin ticks of one CPU (see
        :meth:`_rotation_ticks`) as :meth:`_schedule_hwt` steps them.

        Segment by segment, one per thread run: each thread's counters
        take their own sequential adds, the CPU's take them in tick
        order, and a slice expiry preempts, rotates and dispatches.
        """
        cpu = hwt.os_index
        queue = hwt.runqueue
        cur = hwt._current
        user = hwt._user
        system = hwt._system
        # ticks until the current slice expires; a lone thread runs on
        run = cur.slice_left if queue else ticks
        left = ticks
        while True:
            if run > 0:
                seg = run if run < left else left
                if cur.last_cpu != cpu:  # LWP.charge on a first run here
                    cur.migrations += 1
                    cur.last_cpu = cpu
                directive = cur.current_directive
                user_frac = directive.user_frac
                system_frac = 1.0 - user_frac
                utime = cur._utime
                stime = cur._stime
                jiffies = cur._cpu_jiffies.get(cpu, 0.0)
                remaining = directive.remaining
                for _ in range(seg):
                    utime += user_frac
                    stime += system_frac
                    jiffies += 1.0
                    remaining -= 1.0
                    user += user_frac
                    system += system_frac
                cur._utime = utime
                cur._stime = stime
                cur._cpu_jiffies[cpu] = jiffies
                directive.remaining = remaining
                cur.slice_left -= seg
                left -= seg
                if not left:
                    break
            # the slice expired with others queued: preempt and dispatch
            cur.nvcsw += 1
            queue.append(cur)
            cur = queue.popleft()
            cur.slice_left = run = self.timeslice
        hwt._current = cur
        hwt._user = user
        hwt._system = system

    def park(self, tick: int) -> bool:
        """Idle the clock forward to ``tick`` while no thread is
        runnable; report whether the clock got there.

        Sleeper and timer deadlines are not honoured: the sharded
        launcher parks a shard that waits for a message from another
        shard, or whose own work is over, at the epoch or job end.  A
        tick with no window (a device starts a queued kernel, as when a
        rank exits in the tick it submits one, or a kernel or transfer
        completes) is stepped, as serial steps it, and the jump resumes
        after it.
        """
        while self.clock.tick < tick:
            if self._runnable_count:
                return False
            ticks = self._window(tick - self.clock.tick)
            if ticks:
                self._advance_window(ticks)
            else:
                self.step()
        return True

    def run(
        self,
        max_ticks: int = 10_000_000,
        until: Optional[Callable[["SimKernel"], bool]] = None,
        raise_on_stall: bool = True,
        until_tick: Optional[int] = None,
    ) -> int:
        """Run until all non-daemon work finished (or ``until`` fires).

        Returns the number of ticks executed.  Raises
        :class:`~repro.errors.DeadlockError` on a true stall unless
        ``raise_on_stall`` is false (the heartbeat experiments disable
        it and let the ZeroSum monitor make the diagnosis).

        ``until_tick`` bounds the run at an absolute clock tick — the
        epoch boundary of the sharded launcher.  A kernel that stalls
        with an ``until_tick`` pending is *not* deadlocked: it may be
        waiting for a message another shard will hand over at the
        barrier, so the clock is idled forward to the boundary instead
        of raising (idling a stalled kernel is bit-identical to
        stepping it — nothing local can fire).

        When :attr:`fast_forward` is set (the default) and the run has
        no per-tick ``until`` predicate or ``on_tick`` observers, every
        window of ticks that needs no scheduler decision (see
        :meth:`_window`) is taken in one call instead of being stepped
        through one jiffy at a time.  The jump is bit-identical to
        stepping (see ``tests/kernel/test_fast_forward.py`` and the
        window property in ``tests/properties``).
        """
        start = self.clock.tick
        cap = start + max_ticks
        if until_tick is not None:
            cap = min(cap, until_tick)
        may_jump = self.fast_forward and until is None
        while self.clock.tick < cap:
            if not self.alive_work():
                break
            if until is not None and until(self):
                break
            if self.stalled():
                if until_tick is not None and self.park(cap):
                    break  # cross-shard wait: parked at the epoch boundary
                if raise_on_stall:
                    blocked = [l.tid for l in self.lwps.values()
                               if l.alive and l.blocked and not l.daemon]
                    raise DeadlockError(
                        f"simulation stalled at tick {self.clock.tick}; "
                        f"blocked LWPs: {blocked}"
                    )
                break
            if may_jump and not self.on_tick:
                limit = cap
                if self._sleepers and self._sleepers[0][0] < limit:
                    limit = self._sleepers[0][0]
                if self._timers and self._timers[0][0] < limit:
                    limit = self._timers[0][0]
                ticks = self._window(limit - self.clock.tick)
                if ticks > 0:
                    self._advance_window(ticks)
                    continue
            self.step()
        return self.clock.tick - start

    # -- conveniences -----------------------------------------------------
    @property
    def now(self) -> int:
        return self.clock.tick

    def node_of(self, pid: int) -> SimNode:
        """The node a process lives on."""
        return self.processes[pid].node

    def __repr__(self) -> str:
        return (
            f"<SimKernel t={self.clock.seconds:.2f}s nodes={len(self.nodes)} "
            f"procs={len(self.processes)} lwps={len(self.lwps)}>"
        )
