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

Each axis runs one journaled ``zerosum-mpi`` miniQMC rank, built by
:func:`repro.launch.job.build_world` on a hand-made kernel of each
kind:

* accounting: 56 OpenMP threads sampled at 10 Hz with online detection
  (the e2e benchmark's ``sim_sampling`` shape);
* window jump: 4 OpenMP threads offloading to their GPU (the
  ``sim_bound`` shape, Listing 2), whose ticks are mostly SoA-steady
  or GPU-busy windows.
"""

import pytest

from repro.apps import MiniQmcConfig, miniqmc_app
from repro.core import MemorySink, ZeroSumConfig, write_log, zerosum_mpi
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
#: axis -> (command line, offload, period in seconds)
SHAPES = {
    "vector_accounting": (SAMPLING, False, 0.1),
    "fast_forward": (OFFLOAD, True, 0.5),
}


def _monitored_run(axis: str, on: bool, journal) -> dict:
    cmdline, offload, period = SHAPES[axis]
    machine = frontier_node(name="frontier00000")
    options = SrunOptions.parse(cmdline)
    app = miniqmc_app(
        MiniQmcConfig(
            blocks=4, block_jiffies=100, jitter=0.01, seed=1, offload=offload
        )
    )
    config = ZeroSumConfig(
        period_seconds=period, detect_online=True, journal_path=str(journal)
    )
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
        monitor_factory=zerosum_mpi(config),
    )
    step.run()
    step.finalize()
    monitor = step.monitor(0)
    sink = MemorySink()
    name = write_log(monitor, sink)
    return {
        "ticks": kernel.now,
        "stepped": steps,
        "samples": monitor.samples_taken,
        "report": monitor.report().render(),
        "log": sink.documents[name],
        "alerts": monitor.store.alerts,
        "journal": journal.read_bytes(),
    }


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("monitored")
    return {
        (axis, on): _monitored_run(axis, on, tmp / f"{axis}-{on}.zsj")
        for axis in SHAPES
        for on in (True, False)
    }


class TestMonitoredRunIdentity:
    """The batch accounting path against the scalar one."""

    axis = "vector_accounting"
    #: 10 Hz over four 100-jiffy blocks: dozens of mid-run samples
    min_samples = 30

    def test_the_run_is_monitored(self, runs):
        assert runs[self.axis, True]["samples"] > self.min_samples
        assert runs[self.axis, True]["alerts"] is not None

    @pytest.mark.parametrize("output", ["report", "log", "journal"])
    def test_byte_identical(self, runs, output):
        assert runs[self.axis, True][output] == runs[self.axis, False][output]

    def test_same_alert_ledger(self, runs):
        on, off = runs[self.axis, True]["alerts"], runs[self.axis, False]["alerts"]
        assert on == off
        assert on.summary_lines() == off.summary_lines()


class TestWindowJumpIdentity(TestMonitoredRunIdentity):
    """The window jump against stepping every tick."""

    axis = "fast_forward"
    #: 2 Hz over the offload run's ~8 s
    min_samples = 10

    def test_the_run_is_mostly_jumped(self, runs):
        jumped, stepped = runs[self.axis, True], runs[self.axis, False]
        assert jumped["ticks"] == stepped["ticks"] == stepped["stepped"]
        assert jumped["stepped"] < jumped["ticks"] / 2
