"""Job-step orchestration: build the simulated world and run it.

:func:`launch_job` is the simulation analogue of typing::

    OMP_NUM_THREADS=7 srun -n8 -c7 zerosum-mpi miniqmc

It instantiates nodes, computes per-rank assignments, spawns one
process per rank with its main-thread behavior, wires up MPI and an
OpenMP runtime per process, optionally spawns the unbound MPI helper
thread (the ``Other`` row of the paper's tables), and optionally
attaches a monitor per rank (the ``zerosum-mpi`` wrapper).  That
per-rank loop is :func:`build_world`, which the sharded launcher's
workers run over their node groups too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Protocol

from repro.errors import LaunchError
from repro.kernel.directives import Compute, Sleep
from repro.kernel.lwp import Behavior, ThreadRole
from repro.kernel.process import SimProcess
from repro.kernel.scheduler import SimKernel
from repro.launch.options import SrunOptions
from repro.launch.slurm import TaskAssignment, assign_tasks
from repro.mpi.comm import MpiJob, RankComm
from repro.mpi.fabric import Fabric
from repro.openmp.runtime import OpenMPRuntime
from repro.topology.objects import Machine

__all__ = ["RankContext", "JobStep", "launch_job", "build_world", "AppFactory"]


@dataclass
class RankContext:
    """Everything one rank's application code can see."""

    rank: int
    size: int
    env: dict[str, str]
    assignment: TaskAssignment
    kernel: Optional[SimKernel] = None
    process: Optional[SimProcess] = None
    comm: Optional[RankComm] = None
    omp: Optional[OpenMPRuntime] = None
    gpus: list = field(default_factory=list)  # list[GpuDevice]

    @property
    def node(self):
        assert self.process is not None
        return self.process.node


class AppFactory(Protocol):
    """An application: RankContext → main-thread behavior generator."""

    def __call__(self, ctx: RankContext) -> Behavior: ...


class _Monitor(Protocol):
    def finalize(self) -> None: ...


def _mpi_helper_behavior(period_ticks: int = 70) -> Behavior:
    """The unbound progress/helper thread MPI runtimes spawn.

    Wakes rarely, does almost nothing — its signature in the LWP report
    is utime≈stime≈0 with a node-wide affinity list.
    """
    while True:
        yield Sleep(period_ticks)
        yield Compute(0.001, user_frac=0.0)


class _StepSurface:
    """The accessor surface the serial and the sharded step share.

    ``monitors`` holds one store-backed run per rank: the live
    :class:`~repro.core.monitor.ZeroSum` monitors of a serial step, or
    the runs a sharded step's workers sent home.  Only the rank lookup
    differs between the two.
    """

    options: SrunOptions
    monitors: list

    def _lookup(self, rank: int):
        return self.monitors[rank] if 0 <= rank < len(self.monitors) else None

    def monitor(self, rank: int = 0):
        """The store-backed run of one rank (requires a monitor_factory)."""
        run = self._lookup(rank)
        if run is None:
            raise LaunchError(
                f"no monitor for rank {rank}" if self.monitors
                else "job was launched without monitors"
            )
        return run

    def report(self, rank: int = 0):
        """Utilization report for one rank (Listing 2 layout)."""
        return self.monitor(rank).report()

    def findings(self, rank: int = 0):
        """Contention/misconfiguration findings for one rank."""
        from repro.core.contention import analyze

        return analyze(self.monitor(rank))

    def advice(self, rank: int = 0):
        """Launch-configuration advice derived from one rank's run."""
        from repro.core.advisor import advise

        return advise(self.monitor(rank), self.options)

    def comm_matrix(self):
        """The merged point-to-point bytes matrix (Figure 5 input)."""
        from repro.core.heatmap import merge_monitors

        return merge_monitors(self.monitors)

    @property
    def degradations(self) -> list:
        """Worker-loss events; a serial step has no workers to lose."""
        return []


@dataclass
class JobStep(_StepSurface):
    """A launched job: world, processes, monitors, results."""

    kernel: SimKernel
    options: SrunOptions
    assignments: list[TaskAssignment]
    contexts: list[RankContext]
    mpi: Optional[MpiJob]
    monitors: list = field(default_factory=list)
    ticks_run: int = 0

    @property
    def processes(self) -> list[SimProcess]:
        return [ctx.process for ctx in self.contexts if ctx.process is not None]

    def run(self, max_ticks: int = 10_000_000, raise_on_stall: bool = True) -> int:
        """Run to completion; returns elapsed ticks."""
        self.ticks_run = self.kernel.run(
            max_ticks=max_ticks, raise_on_stall=raise_on_stall
        )
        return self.ticks_run

    def finalize(self) -> None:
        """Flush all monitors (end-of-execution reports)."""
        for monitor in self.monitors:
            monitor.finalize()

    @property
    def duration_seconds(self) -> float:
        return self.ticks_run / self.kernel.clock.hz


def build_world(
    kernel: SimKernel,
    mpi: Optional[MpiJob],
    assignments: list[TaskAssignment],
    options: SrunOptions,
    app: AppFactory,
    *,
    helper_thread: bool,
    monitor_factory: Optional[Callable[[RankContext], _Monitor]],
    first_pid: Optional[int] = None,
) -> JobStep:
    """Populate ``kernel`` with the ranks whose node it simulates.

    Per rank: the process, its communicator, its OpenMP runtime, its
    GPUs and the MPI helper thread; then one monitor per rank, so the
    sampling threads see the whole world.  The serial launcher's kernel
    holds every node; a shard's kernel holds its node group, under the
    nodes' global indices, and passes ``first_pid`` to replay the
    serial launcher's PID layout (rank ``r``'s process at ``first_pid +
    r × stride``, its monitor thread after every rank's threads).
    """
    nodes = {node.node_index: node for node in kernel.nodes}
    stride = 2 if helper_thread else 1
    contexts: list[RankContext] = []
    for assignment in assignments:
        node = nodes.get(assignment.node_index)
        if node is None:
            continue  # another shard's rank
        ctx = RankContext(
            rank=assignment.rank,
            size=options.ntasks,
            env=dict(options.env),
            assignment=assignment,
        )
        ctx.kernel = kernel
        if first_pid is not None:
            kernel.set_next_pid(first_pid + stride * assignment.rank)
        proc = kernel.spawn_process(
            node,
            assignment.cpuset,
            app(ctx),
            command=options.command,
            env=dict(options.env),
            rank=assignment.rank if mpi is not None else None,
        )
        ctx.process = proc
        if mpi is not None:
            ctx.comm = mpi.add_rank(assignment.rank, proc)
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
        contexts.append(ctx)

    if mpi is not None:
        mpi.finalize_ranks()

    monitors: list[_Monitor] = []
    if monitor_factory is not None:
        for ctx in contexts:
            if first_pid is not None:
                kernel.set_next_pid(first_pid + stride * options.ntasks + ctx.rank)
            monitors.append(monitor_factory(ctx))

    return JobStep(
        kernel=kernel,
        options=options,
        assignments=assignments,
        contexts=contexts,
        mpi=mpi,
        monitors=monitors,
    )


def launch_job(
    machines: list[Machine] | Machine,
    options: SrunOptions,
    app: AppFactory,
    *,
    use_mpi: bool = True,
    helper_thread: bool = True,
    monitor_factory: Optional[Callable[[RankContext], _Monitor]] = None,
    fabric: Optional[Fabric] = None,
    timeslice: int = 3,
    smt_efficiency: float = 1.0,
    workers: int = 1,
) -> JobStep:
    """Build the simulated world for one job step (does not run it).

    ``workers > 1`` shards a multi-node job across a pool of kernel
    worker processes (see :mod:`repro.launch.sharded`) and returns a
    :class:`~repro.launch.sharded.ShardedJobStep` with the same
    run/accessor surface.  Jobs that occupy a single node always take
    the serial path, whatever ``workers`` says.
    """
    if workers < 1:
        raise LaunchError("workers must be >= 1")
    if isinstance(machines, Machine):
        machines = [machines]
    assignments = assign_tasks(machines, options)
    if workers > 1 and use_mpi and len(machines) > 1:
        from repro.launch.sharded import launch_sharded, plan_shards

        if len(plan_shards(assignments, len(machines), workers)) >= 2:
            return launch_sharded(  # type: ignore[return-value]
                machines,
                options,
                app,
                workers=workers,
                use_mpi=use_mpi,
                helper_thread=helper_thread,
                monitor_factory=monitor_factory,
                fabric=fabric,
                timeslice=timeslice,
                smt_efficiency=smt_efficiency,
            )
    kernel = SimKernel(machines, timeslice=timeslice,
                       smt_efficiency=smt_efficiency)
    return build_world(
        kernel,
        MpiJob(kernel, fabric=fabric) if use_mpi else None,
        assignments,
        options,
        app,
        helper_thread=helper_thread,
        monitor_factory=monitor_factory,
    )
