"""ZeroSum reproduction: user-space monitoring of resource utilization
and contention on (simulated) heterogeneous HPC systems.

The package reproduces Huck & Malony, *ZeroSum* (HUST-23/SC-W 2023):
the monitor itself lives in :mod:`repro.core`; every substrate it
depends on — hwloc-style topology, a kernel scheduler, ``/proc``, GPUs
with SMI shims, MPI, OpenMP, and a Slurm-like launcher — is implemented
in the sibling subpackages.  :mod:`repro.live` runs the same monitor
against the real ``/proc`` of a Linux host.

Quickstart::

    from repro import (
        frontier_node, SrunOptions, launch_job,
        MiniQmcConfig, miniqmc_app,
        zerosum_mpi, ZeroSumConfig, build_report, analyze,
    )

    opts = SrunOptions.parse(
        "OMP_NUM_THREADS=7 OMP_PROC_BIND=spread OMP_PLACES=cores "
        "srun -n8 -c7 zerosum-mpi miniqmc")
    step = launch_job([frontier_node()], opts,
                      miniqmc_app(MiniQmcConfig()),
                      monitor_factory=zerosum_mpi(ZeroSumConfig()))
    step.run(); step.finalize()
    print(build_report(step.monitors[0]).render())
"""

from repro.apps import (
    MiniQmcConfig,
    PicConfig,
    crash_app,
    deadlock_app,
    miniqmc_app,
    oom_app,
    pic_app,
)
from repro.core import (
    CommMatrix,
    LdmsAggregator,
    SampleStream,
    ZeroSum,
    ZeroSumConfig,
    advise,
    analyze,
    build_report,
    merge_monitors,
    render_log,
    zerosum_mpi,
)
from repro.kernel import SimKernel
from repro.launch import JobStep, RankContext, SrunOptions, launch_job
from repro.live import LiveZeroSum
from repro.topology import (
    CpuSet,
    Machine,
    aurora_node,
    frontier_node,
    generic_node,
    perlmutter_node,
    render_lstopo,
    summit_node,
    testnode_i7,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # topology
    "CpuSet",
    "Machine",
    "frontier_node",
    "summit_node",
    "perlmutter_node",
    "aurora_node",
    "testnode_i7",
    "generic_node",
    "render_lstopo",
    # kernel + launch
    "SimKernel",
    "SrunOptions",
    "launch_job",
    "JobStep",
    "RankContext",
    # core
    "ZeroSum",
    "ZeroSumConfig",
    "zerosum_mpi",
    "build_report",
    "analyze",
    "advise",
    "SampleStream",
    "LdmsAggregator",
    "merge_monitors",
    "CommMatrix",
    "render_log",
    # live
    "LiveZeroSum",
    # apps
    "MiniQmcConfig",
    "miniqmc_app",
    "PicConfig",
    "pic_app",
    "deadlock_app",
    "oom_app",
    "crash_app",
]
