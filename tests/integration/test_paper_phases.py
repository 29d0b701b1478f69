"""The paper's §3 evolutionary trajectory, phase by phase.

§3 lists six phases for a tool like ZeroSum and states the prototype
covers 1, 3, 4, 5 and 6 (2 is future work).  This module demonstrates
each phase — including phase 2, which this reproduction implements —
against one monitored run, serving as an executable table of contents
for the reproduction.
"""

import pytest

from tests.helpers import run_miniqmc
from repro.core import (
    MemorySink,
    ZeroSumConfig,
    advise,
    analyze,
    build_report,
    write_log,
    zerosum_mpi,
)
from repro.core.stream import LdmsAggregator, SampleStream
from repro.launch import SrunOptions, launch_job
from repro.apps import MiniQmcConfig, miniqmc_app
from repro.reproduce import T1_CMD
from repro.topology import frontier_node


@pytest.fixture(scope="module")
def run():
    stream = SampleStream()
    ldms = LdmsAggregator()
    stream.subscribe(ldms)
    step = launch_job(
        [frontier_node()],
        SrunOptions.parse(T1_CMD),
        miniqmc_app(MiniQmcConfig(blocks=8, block_jiffies=60)),
        monitor_factory=zerosum_mpi(
            ZeroSumConfig(heartbeat_every=1), stream=stream
        ),
    )
    step.run()
    step.finalize()
    return step, ldms


class TestPhase1DetectInitialConfiguration(object):
    def test_detects_affinity_topology_mpi(self, run):
        step, _ = run
        initial = step.monitor(0).initial
        assert initial.cpus_allowed.to_list() == "1"
        assert initial.mpi_rank == 0 and initial.mpi_size == 8
        assert "HWLOC Node topology:" in initial.topology_text
        assert initial.mem_total_kib == 512 * 1024 * 1024


class TestPhase2EvaluateConfiguration:
    """Future work in the paper; implemented here."""

    def test_misconfiguration_detected_and_fixed(self, run):
        step, _ = run
        findings = analyze(step.monitor(0))
        assert findings.by_code("oversubscription")
        advice = advise(step.monitor(0), step.options)
        assert advice.suggested.cpus_per_task == 7


class TestPhase3RuntimeFeedback:
    def test_heartbeats_flow(self, run):
        step, _ = run
        assert len(step.monitor(0).heartbeats) >= 2
        assert all("viable" in h for h in step.monitor(0).heartbeats)

    def test_live_stream_reported_progress(self, run):
        _, ldms = run
        assert ldms.events > 8
        assert ldms.mean_busy(0) > 5.0


class TestPhase4UtilizationReport:
    def test_report_complete(self, run):
        step, _ = run
        report = build_report(step.monitor(0))
        text = report.render()
        assert "LWP (thread) Summary:" in text
        assert "Hardware Summary:" in text
        assert len(report.lwp_rows) == 9


class TestPhase5ContentionReport:
    def test_contention_identified(self, run):
        step, _ = run
        findings = analyze(step.monitor(0))
        assert findings.by_code("time-slicing")
        assert findings.by_code("affinity-overlap")


class TestPhase6DataExport:
    def test_log_with_csv_series(self, run):
        step, _ = run
        sink = MemorySink()
        name = write_log(step.monitor(0), sink)
        doc = sink.documents[name]
        for section in ("== LWP samples (CSV) ==", "== HWT samples (CSV) ==",
                        "== memory samples (CSV) ==",
                        "== MPI point-to-point (CSV) =="):
            assert section in doc
