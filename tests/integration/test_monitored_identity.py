"""A monitored run is the same run on either accounting backend.

The monitor samples a rank's counters in the middle of the scheduling
pass, while the rank's busy CPUs sit in the batched (SoA) accounting
arrays and are read through them.  So the batch path and the scalar
path must give a monitored job byte-identical outputs, not just equal
kernel counters: the report, the §3.6 log, the alert ledger and the
journal file.  The job is one journaled 10 Hz ``zerosum-mpi`` miniQMC
rank of 56 OpenMP threads (the e2e benchmark's ``sim_sampling`` shape,
a few blocks long), built by :func:`repro.launch.job.build_world` on a
hand-made kernel of each kind.
"""

import pytest

from repro.apps import MiniQmcConfig, miniqmc_app
from repro.core import MemorySink, ZeroSumConfig, write_log, zerosum_mpi
from repro.kernel import SimKernel
from repro.launch import SrunOptions, assign_tasks
from repro.launch.job import build_world
from repro.mpi import MpiJob
from repro.topology import frontier_node

CMDLINE = (
    "OMP_NUM_THREADS=56 OMP_PROC_BIND=spread OMP_PLACES=cores "
    "srun -n1 -c56 zerosum-mpi miniqmc"
)


def _monitored_run(vector: bool, journal) -> dict:
    machine = frontier_node(name="frontier00000")
    options = SrunOptions.parse(CMDLINE)
    app = miniqmc_app(
        MiniQmcConfig(blocks=4, block_jiffies=100, jitter=0.01, seed=1)
    )
    config = ZeroSumConfig(
        period_seconds=0.1, detect_online=True, journal_path=str(journal)
    )
    kernel = SimKernel([machine], vector_accounting=vector)
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
        vector: _monitored_run(vector, tmp / f"vector-{vector}.zsj")
        for vector in (True, False)
    }


class TestMonitoredRunIdentity:
    def test_the_run_is_monitored(self, runs):
        # 10 Hz over four 100-jiffy blocks: dozens of mid-run samples
        assert runs[True]["samples"] > 30
        assert runs[True]["alerts"] is not None

    @pytest.mark.parametrize("output", ["report", "log", "journal"])
    def test_byte_identical(self, runs, output):
        assert runs[True][output] == runs[False][output]

    def test_same_alert_ledger(self, runs):
        vector, scalar = runs[True]["alerts"], runs[False]["alerts"]
        assert vector == scalar
        assert vector.summary_lines() == scalar.summary_lines()
