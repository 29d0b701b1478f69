"""A monitored run is the same run on either accounting backend, and
with or without the window jump.

The monitor samples a rank's counters in the middle of the scheduling
pass, while the rank's busy CPUs sit in the batched (SoA) accounting
arrays and are read through them.  So the batch path and the scalar
path must give a monitored job byte-identical outputs, not just equal
kernel counters: the report, the §3.6 log, the alert ledger and the
journal file.  Likewise the run loop's window jump (every tick that
needs no scheduler decision taken in one call) must leave the same
bytes as stepping each tick.

Each shape runs a journaled ``zerosum-mpi`` miniQMC job with online
detection, built by :func:`repro.launch.job.build_world` on a
hand-made kernel of each kind:

* accounting: 56 OpenMP threads sampled at 10 Hz (the e2e benchmark's
  ``sim_sampling`` shape);
* window jump: 4 OpenMP threads offloading to their GPU (the
  ``sim_bound`` shape, Listing 2), whose ticks are mostly SoA-steady
  or GPU-busy windows;
* window jump: two ranks of 7 OpenMP threads time-slicing on one
  hardware thread each (the ``sim_oversub`` shape, Table 1), whose
  ticks are mostly steady round-robin windows.
"""

from dataclasses import replace

import pytest

from repro.apps import MiniQmcConfig, miniqmc_app
from repro.core import ZeroSumConfig, render_log, zerosum_mpi
from repro.kernel import SimKernel
from repro.launch import SrunOptions, assign_tasks
from repro.launch.job import build_world
from repro.mpi import MpiJob
from repro.topology import frontier_node

SAMPLING = (
    "OMP_NUM_THREADS=56 OMP_PROC_BIND=spread OMP_PLACES=cores "
    "srun -n1 -c56 zerosum-mpi miniqmc"
)
OFFLOAD = (
    "OMP_PROC_BIND=spread OMP_PLACES=cores OMP_NUM_THREADS=4 srun -n1 "
    "--gpus-per-task=1 --cpus-per-task=7 --gpu-bind=closest "
    "--threads-per-core=1 zerosum-mpi miniqmc"
)
OVERSUBSCRIBED = "OMP_NUM_THREADS=7 srun -n2 zerosum-mpi miniqmc"
#: shape -> (kernel switch under test, command line, offload, period
#: in seconds)
SHAPES = {
    "sampling": ("vector_accounting", SAMPLING, False, 0.1),
    "offload": ("fast_forward", OFFLOAD, True, 0.5),
    "oversubscribed": ("fast_forward", OVERSUBSCRIBED, False, 0.5),
}


def _monitored_run(shape: str, on: bool, journals) -> dict:
    axis, cmdline, offload, period = SHAPES[shape]
    machine = frontier_node(name="frontier00000")
    options = SrunOptions.parse(cmdline)
    app = miniqmc_app(
        MiniQmcConfig(
            blocks=4, block_jiffies=100, jitter=0.01, seed=1, offload=offload
        )
    )
    config = ZeroSumConfig(period_seconds=period, detect_online=True)

    def journaled(ctx):
        path = str(journals / f"{shape}-{on}-{ctx.rank}.zsj")
        return zerosum_mpi(replace(config, journal_path=path))(ctx)

    kernel = SimKernel([machine], **{axis: on})
    steps = 0
    step_one = kernel.step

    def counting_step():
        nonlocal steps
        steps += 1
        step_one()

    kernel.step = counting_step
    step = build_world(
        kernel,
        MpiJob(kernel),
        assign_tasks([machine], options),
        options,
        app,
        helper_thread=True,
        monitor_factory=journaled,
    )
    step.run()
    step.finalize()
    run = {"ticks": kernel.now, "stepped": steps, "samples": [], "report": [],
           "log": [], "alerts": [], "journal": []}
    for rank, monitor in enumerate(step.monitors):
        _, log = render_log(monitor)
        run["samples"].append(monitor.samples_taken)
        run["report"].append(monitor.report().render())
        run["log"].append(log)
        run["alerts"].append(monitor.store.alerts)
        run["journal"].append(
            (journals / f"{shape}-{on}-{rank}.zsj").read_bytes()
        )
    return run


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    journals = tmp_path_factory.mktemp("monitored")
    return {
        (shape, on): _monitored_run(shape, on, journals)
        for shape in SHAPES
        for on in (True, False)
    }


class TestMonitoredRunIdentity:
    """The batch accounting path against the scalar one."""

    shape = "sampling"
    #: 10 Hz over four 100-jiffy blocks: dozens of mid-run samples
    min_samples = 30

    def test_the_run_is_monitored(self, runs):
        for samples in runs[self.shape, True]["samples"]:
            assert samples > self.min_samples
        for alerts in runs[self.shape, True]["alerts"]:
            assert alerts is not None

    @pytest.mark.parametrize("output", ["report", "log", "journal"])
    def test_byte_identical(self, runs, output):
        assert runs[self.shape, True][output] == runs[self.shape, False][output]

    def test_same_alert_ledger(self, runs):
        for on, off in zip(runs[self.shape, True]["alerts"],
                           runs[self.shape, False]["alerts"]):
            assert on == off
            assert on.summary_lines() == off.summary_lines()


class TestWindowJumpIdentity(TestMonitoredRunIdentity):
    """The window jump against stepping every tick."""

    shape = "offload"
    #: 2 Hz over the offload run's ~8 s
    min_samples = 10
    #: most of the run's ticks are jumped
    max_stepped_share = 0.5

    def test_the_run_is_mostly_jumped(self, runs):
        jumped, stepped = runs[self.shape, True], runs[self.shape, False]
        assert jumped["ticks"] == stepped["ticks"] == stepped["stepped"]
        assert jumped["stepped"] < jumped["ticks"] * self.max_stepped_share


class TestOversubscribedWindowJumpIdentity(TestWindowJumpIdentity):
    """The window jump against stepping every tick, on CPUs time-sliced
    by nine threads each: the jumped ticks are round-robin rotations."""

    shape = "oversubscribed"
    #: 243 of 2 823 ticks are stepped when this was written
    max_stepped_share = 0.2

    def test_the_findings_fire(self, runs):
        for alerts in runs[self.shape, True]["alerts"]:
            assert len(alerts) > 0
