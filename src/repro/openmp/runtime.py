"""Simulated OpenMP runtime: thread teams, binding, OMPT callbacks.

Applications use it from inside their main-thread behavior::

    omp = OpenMPRuntime(kernel, process)

    def main_behavior():
        yield from omp.parallel(region)       # fork-join
        yield from omp.shutdown()

    def region(thread_num, team_size):        # one generator per thread
        yield Compute(100)

Semantics reproduced from real runtimes (and relied on by the paper's
experiments):

* the default team size is the number of CPUs assigned to the process
  (``taskset``/cgroup cpuset), overridable with ``OMP_NUM_THREADS``;
* worker threads are created once and parked on a queue between
  parallel regions (the team "typically lives for the duration of the
  application", §3.1.2);
* ``OMP_PROC_BIND`` / ``OMP_PLACES`` binding is applied at team
  creation, including to the master thread;
* OMPT ``thread_begin`` callbacks fire with the backing LWP, which is
  how ZeroSum classifies threads as OpenMP.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.errors import LaunchError
from repro.kernel.directives import Call, Wait
from repro.kernel.events import Barrier, MessageQueue
from repro.kernel.lwp import LWP, Behavior, ThreadRole
from repro.kernel.process import SimProcess
from repro.kernel.scheduler import SimKernel
from repro.openmp.bind import assign_places
from repro.openmp.ompt import OmptRegistry, OmptThreadType
from repro.openmp.places import make_places
from repro.topology.cpuset import CpuSet

__all__ = ["OpenMPRuntime", "RegionFn"]

#: A parallel region: (thread_num, team_size) -> behavior generator.
RegionFn = Callable[[int, int], Behavior]

_SHUTDOWN = object()


@dataclass
class _Task:
    region: RegionFn
    thread_num: int
    team_size: int
    barrier: Barrier


class _Worker:
    __slots__ = ("lwp", "queue")

    def __init__(self, lwp: LWP, queue: MessageQueue):
        self.lwp = lwp
        self.queue = queue


class OpenMPRuntime:
    """One process's OpenMP runtime instance."""

    def __init__(
        self,
        kernel: SimKernel,
        process: SimProcess,
        env: Optional[dict[str, str]] = None,
    ):
        self.kernel = kernel
        self.process = process
        self.env = dict(process.env if env is None else env)
        self.ompt = OmptRegistry()
        self._workers: list[_Worker] = []
        self._team_affinities: list[CpuSet] = []
        self._initialized = False

        nt = self.env.get("OMP_NUM_THREADS")
        try:
            self.num_threads = int(nt) if nt else len(process.cpuset)
        except ValueError as exc:
            raise LaunchError(f"bad OMP_NUM_THREADS {nt!r}") from exc
        if self.num_threads < 1:
            raise LaunchError("OMP_NUM_THREADS must be >= 1")
        self.proc_bind = self.env.get("OMP_PROC_BIND")
        self.places_spec = self.env.get("OMP_PLACES")

    # ------------------------------------------------------------------
    def _compute_affinities(self, team: int) -> list[CpuSet]:
        machine = self.process.node.machine
        bound = self.proc_bind and self.proc_bind.lower() != "false"
        spec = self.places_spec
        if bound and spec is None:
            spec = "cores"  # OpenMP default places when binding requested
        places = make_places(machine, self.process.cpuset, spec)
        return assign_places(places, team, self.proc_bind)

    def _init_team(self, kernel: SimKernel, master: LWP, team: int) -> None:
        self._team_affinities = self._compute_affinities(team)
        master.add_role(ThreadRole.OPENMP)
        kernel.set_affinity(master, self._team_affinities[0])
        self.ompt.thread_begin(OmptThreadType.INITIAL, master)
        self._grow_pool(kernel, master, team)
        self._initialized = True

    def _grow_pool(self, kernel: SimKernel, master: LWP, team: int) -> None:
        while len(self._workers) < team - 1:
            idx = len(self._workers) + 1
            queue = MessageQueue(name=f"omp-worker-{idx}")
            affinity = (
                self._team_affinities[idx]
                if idx < len(self._team_affinities)
                else self._team_affinities[-1]
            )
            lwp = kernel.spawn_thread(
                self.process,
                self._worker_behavior(queue),
                name=f"omp-{idx}",
                affinity=affinity,
                roles={ThreadRole.OPENMP},
                daemon=True,
                parent=master,
            )
            self.ompt.thread_begin(OmptThreadType.WORKER, lwp)
            self._workers.append(_Worker(lwp, queue))

    def _worker_behavior(self, queue: MessageQueue) -> Behavior:
        def gen() -> Behavior:
            while True:
                task = yield Call(lambda k, l: queue.get_nowait())
                if task is None:
                    yield Wait(queue)
                    continue
                if task is _SHUTDOWN:
                    return
                assert isinstance(task, _Task)
                yield from task.region(task.thread_num, task.team_size)
                blocked = yield Call(lambda k, l: task.barrier.arrive(k, l))
                if blocked:
                    yield Wait(task.barrier)

        return gen()

    # ------------------------------------------------------------------
    def parallel(self, region: RegionFn, num_threads: Optional[int] = None) -> Behavior:
        """``#pragma omp parallel``: fork a team, join at the end.

        Must be driven with ``yield from`` inside the master thread's
        behavior generator.
        """
        team = num_threads or self.num_threads
        if team < 1:
            raise LaunchError("parallel region needs >= 1 thread")
        master = yield Call(lambda k, l: l)
        assert isinstance(master, LWP)
        if not self._initialized:
            yield Call(lambda k, l: self._init_team(k, master, team))
        elif team - 1 > len(self._workers):
            yield Call(lambda k, l: self._grow_pool(k, master, team))

        barrier = Barrier(team, name="omp-join")
        self.ompt.parallel_begin(team, master)

        def dispatch(k: SimKernel, l: LWP) -> None:
            for i in range(1, team):
                self._workers[i - 1].queue.put(
                    k, _Task(region, i, team, barrier)
                )

        yield Call(dispatch)
        yield from region(0, team)
        blocked = yield Call(lambda k, l: barrier.arrive(k, l))
        if blocked:
            yield Wait(barrier)
        self.ompt.parallel_end(master)

    def shutdown(self) -> Behavior:
        """Tear down the worker pool (end of the OpenMP runtime)."""

        def send(k: SimKernel, l: LWP) -> None:
            for w in self._workers:
                w.queue.put(k, _SHUTDOWN)

        yield Call(send)
        for w in self._workers:
            self.ompt.thread_end(w.lwp)

    @property
    def workers(self) -> list[LWP]:
        return [w.lwp for w in self._workers]
