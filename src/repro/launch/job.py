"""Job-step orchestration: build the simulated world and run it.

:func:`launch_job` is the simulation analogue of typing::

    OMP_NUM_THREADS=7 srun -n8 -c7 zerosum-mpi miniqmc

It instantiates nodes, computes per-rank assignments, spawns one
process per rank with its main-thread behavior, wires up MPI and an
OpenMP runtime per process, optionally spawns the unbound MPI helper
thread (the ``Other`` row of the paper's tables), and optionally
attaches a monitor per rank (the ``zerosum-mpi`` wrapper).
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

__all__ = ["RankContext", "JobStep", "launch_job", "AppFactory"]


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


@dataclass
class JobStep:
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

    # -- convenience accessors over the attached monitors -----------------
    def monitor(self, rank: int = 0):
        """The ZeroSum monitor of one rank (requires a monitor_factory)."""
        if not self.monitors:
            raise LaunchError("job was launched without monitors")
        if not 0 <= rank < len(self.monitors):
            raise LaunchError(f"no monitor for rank {rank}")
        return self.monitors[rank]

    def report(self, rank: int = 0):
        """Utilization report for one rank (Listing 2 layout)."""
        from repro.core.reports import build_report

        return build_report(self.monitor(rank))

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
    def duration_seconds(self) -> float:
        return self.ticks_run / self.kernel.clock.hz


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
    epoch_ticks: Optional[int] = None,
) -> JobStep:
    """Build the simulated world for one job step (does not run it).

    ``workers > 1`` shards a multi-node job across a pool of kernel
    worker processes (see :mod:`repro.launch.sharded`) and returns a
    :class:`~repro.launch.sharded.ShardedJobStep` with the same
    run/report surface.  Jobs that occupy a single node always take
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
                epoch_ticks=epoch_ticks,
            )
    kernel = SimKernel(machines, timeslice=timeslice,
                       smt_efficiency=smt_efficiency)
    mpi = MpiJob(kernel, fabric=fabric) if use_mpi else None

    contexts: list[RankContext] = []
    monitors: list[_Monitor] = []
    for assignment in assignments:
        ctx = RankContext(
            rank=assignment.rank,
            size=options.ntasks,
            env=dict(options.env),
            assignment=assignment,
        )
        ctx.kernel = kernel
        node = kernel.nodes[assignment.node_index]
        proc = kernel.spawn_process(
            node,
            assignment.cpuset,
            app(ctx),
            command=options.command,
            env=dict(options.env),
            rank=assignment.rank if use_mpi else None,
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

    # monitors last, so their sampling threads see the full world
    if monitor_factory is not None:
        for ctx in contexts:
            monitors.append(monitor_factory(ctx))

    return JobStep(
        kernel=kernel,
        options=options,
        assignments=assignments,
        contexts=contexts,
        mpi=mpi,
        monitors=monitors,
    )
