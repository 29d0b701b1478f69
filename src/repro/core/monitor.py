"""The ZeroSum monitor: the *simulated-substrate driver* of the pipeline.

This is the paper's primary contribution.  One :class:`ZeroSum`
instance attaches to one process (the LD_PRELOAD injection of §3.1 is
modelled by :mod:`repro.core.wrapper`).  It

1. detects the initial configuration through ``/proc`` (phase 1);
2. spawns an asynchronous monitoring thread, pinned by default to the
   *last* hardware thread of the process's affinity list;
3. every period drives the shared
   :class:`~repro.collect.engine.CollectionEngine` — the same
   collectors, parsers, and store the live and replay drivers use —
   over the simulated ``/proc``;
4. wraps the MPI point-to-point API of its rank to accumulate the
   communication matrix;
5. tracks progress/deadlock, emits heartbeats, and on finalize holds
   everything the report and CSV exporters need.

All sampling, parsing, storage, and delta math lives in
:mod:`repro.collect`; this class only schedules samples and manages
lifecycle (OpenMP identification, crash handling, deadlock policy).
The sampling work costs simulated CPU (configurable jiffies per
sample), which is what the Figure 8 overhead experiment measures.
"""

from __future__ import annotations

import traceback
from functools import cached_property
from typing import Optional

from repro.collect import (
    CollectionEngine,
    GpuCollector,
    HwtCollector,
    LwpCollector,
    MemoryCollector,
    SampleStore,
)
from repro.collect.report import StoreBackedRun
from repro.core.config import ZeroSumConfig
from repro.core.detect import ProcessConfig, detect_configuration
from repro.core.heartbeat import ProgressTracker, heartbeat_line
from repro.detect import GpuFacts, TopologyFacts
from repro.errors import MonitorError
from repro.gpu.backend import SmiBackend, make_smi
from repro.kernel.directives import Call, Compute, Sleep
from repro.kernel.lwp import LWP, Behavior, ThreadRole
from repro.kernel.process import SimProcess
from repro.kernel.scheduler import SimKernel
from repro.mpi.comm import RankComm
from repro.mpi.interpose import P2PRecorder
from repro.openmp.ompt import OmptEvent, OmptThreadType
from repro.openmp.runtime import OpenMPRuntime
from repro.procfs.filesystem import ProcFS
from repro.topology.cpuset import CpuSet

__all__ = ["ZeroSum", "DetachedRun"]

#: simulated cost of a sample per observed LWP, in jiffies, on top of
#: ``ZeroSumConfig.sample_cost_jiffies`` (each thread means reading two
#: more /proc files)
SAMPLE_COST_PER_THREAD = 0.01


class ZeroSum(StoreBackedRun):
    """User-space monitor attached to one (simulated) process."""

    def __init__(
        self,
        kernel: SimKernel,
        process: SimProcess,
        config: Optional[ZeroSumConfig] = None,
        gpus: Optional[list] = None,
        comm: Optional[RankComm] = None,
        omp: Optional[OpenMPRuntime] = None,
        stream: Optional["SampleStream"] = None,
    ):
        self.kernel = kernel
        self.process = process
        self.config = config or ZeroSumConfig()
        self.procfs = ProcFS(kernel, process.node, self_pid=process.pid)
        self.start_tick = kernel.now
        self.end_tick: Optional[int] = None

        # phase 1: initial configuration detection
        self.initial: ProcessConfig = detect_configuration(
            self.procfs, process.pid, machine=process.node.machine
        )
        # the run's identity record (driver "sim", zero baseline)
        self.hz = kernel.clock.hz
        self.pid = process.pid
        self.rank = process.rank
        self.hostname = process.node.hostname
        self.cpus_allowed = self.initial.cpus_allowed

        # GPU SMI session over the devices visible to this rank,
        # dispatched to the vendor-appropriate backend (§3.4)
        self.smi: Optional[SmiBackend] = None
        if gpus and self.config.collect_gpu:
            self.smi = make_smi(gpus)

        # MPI point-to-point interposition
        self.comm = comm
        self.recorder: Optional[P2PRecorder] = None
        if comm is not None:
            self.recorder = P2PRecorder(comm.Get_size())
            self.recorder.attach(comm)

        # OpenMP thread identification: OMPT callback (5.1+) or the
        # pre-5.1 probe that queries the team directly (§3.1.2)
        self._openmp_tids: set[int] = set()
        self._omp = omp
        if omp is not None and self.config.openmp_detection == "ompt":
            self.register_openmp(omp)

        # the shared collection pipeline over the simulated /proc
        self.store = SampleStore(
            keep_series=self.config.keep_series,
            max_rows=self.config.max_series_rows,
            summary_rows=1,  # zero baseline: the report needs only the latest row
            start_tick=self.start_tick,
        )
        collectors = [
            LwpCollector(
                self.procfs, self.store, process.pid, missing_process="ignore"
            )
        ]
        if self.config.collect_hwt:
            collectors.append(
                HwtCollector(self.procfs, self.store, self.initial.cpus_allowed)
            )
        if self.config.collect_memory:
            collectors.append(
                MemoryCollector(self.procfs, self.store, process.pid)
            )
        if self.smi is not None:
            collectors.append(GpuCollector(self.store, self.smi))
        # the same journal / detector / fault policy wiring the live
        # driver gets, fed the same committed rows — which is what makes
        # the recovery path deterministically testable (bit-identical
        # reports) and findings substrate-identical
        self.engine = CollectionEngine.for_run(self, collectors)
        self.journal = self.engine.journal
        self.detector = self.engine.detector
        if self.journal is not None:
            self.journal.open(
                self.store,
                {
                    **self.journal_meta(),
                    "period_seconds": self.config.period_seconds,
                },
            )

        #: optional live export bus (the LDMS/TAU seam, §6)
        self.stream = stream
        self.heartbeats: list[str] = []
        self.crash_reports: list[str] = []
        if self.config.signal_handler:
            kernel.on_crash.append(self._on_crash)

        # progress / deadlock tracking
        self.progress = ProgressTracker(threshold=self.config.deadlock_after)

        # the asynchronous monitoring thread
        self.monitor_lwp: LWP = kernel.spawn_thread(
            process,
            self._monitor_behavior(),
            name="zerosum",
            affinity=self._monitor_affinity(),
            roles={ThreadRole.ZEROSUM},
            daemon=True,
        )
        self.progress.ignore_tids.add(self.monitor_lwp.tid)
        if self.detector is not None:
            # the monitor thread's own (light) activity must not trip
            # the per-thread rules, same as the progress tracker
            self.detector.ignore_tids.add(self.monitor_lwp.tid)
        self._finalized = False

    # ------------------------------------------------------------------
    def _monitor_affinity(self) -> CpuSet:
        cfg = self.config.monitor_cpu
        cpuset = self.process.cpuset
        if cfg is None:
            return cpuset
        if cfg == "last":
            return CpuSet([cpuset.last()])
        if cfg == "first":
            return CpuSet([cpuset.first()])
        if isinstance(cfg, int):
            if cfg not in self.process.node.machine.cpuset():
                raise MonitorError(f"monitor_cpu {cfg} not on this node")
            return CpuSet([cfg])
        raise MonitorError(f"bad monitor_cpu {cfg!r}")

    def probe_openmp_team(self) -> None:
        """Pre-OMPT fallback: identify the team by asking the runtime
        (the simulated analogue of launching a probe parallel region
        and collecting the member LWP ids, §3.1.2)."""
        if self._omp is None or not self._omp._initialized:
            return
        for worker in self._omp.workers:
            self._openmp_tids.add(worker.tid)
        self._openmp_tids.add(self.process.pid)

    def register_openmp(self, omp: OpenMPRuntime) -> None:
        """Register the OMPT thread-begin callback (§3.1.2)."""

        def on_thread_begin(thread_type: OmptThreadType, lwp: LWP) -> None:
            self._openmp_tids.add(lwp.tid)

        omp.ompt.set_callback(OmptEvent.THREAD_BEGIN, on_thread_begin)

    # ------------------------------------------------------------------
    def _monitor_behavior(self) -> Behavior:
        period = max(1, round(self.config.period_seconds * self.kernel.clock.hz))
        while True:
            yield Sleep(period)
            yield Call(lambda k, l: self.take_sample())
            cost = (
                self.config.sample_cost_jiffies
                + SAMPLE_COST_PER_THREAD * self.store.last_thread_count
            )
            if cost > 0:
                yield Compute(cost, user_frac=self.config.sample_user_frac)

    # ------------------------------------------------------------------
    def classify(self, tid: int) -> str:
        """Thread type label, as in the paper's LWP table."""
        roles = []
        if tid == self.process.pid:
            roles.append("Main")
        if tid == self.monitor_lwp.tid:
            roles.append("ZeroSum")
        if tid in self._openmp_tids:
            roles.append("OpenMP")
        if not roles:
            roles.append("Other")
        return ", ".join(roles)

    # ------------------------------------------------------------------
    def take_sample(self) -> None:
        """One periodic observation (runs inside the monitor thread)."""
        tick = self.kernel.now
        # pre-5.1 OpenMP runtimes: probe the team like the paper's
        # fallback parallel region does
        if self._omp is not None and self.config.openmp_detection == "probe":
            self.probe_openmp_team()

        snapshots = self.engine.sample(tick)

        # -- heartbeat + deadlock suspicion ----------------------------
        if (
            self.config.heartbeat_every
            and self.store.samples_taken % self.config.heartbeat_every == 0
        ):
            self.heartbeats.append(
                heartbeat_line(
                    seconds=tick / self.kernel.clock.hz,
                    pid=self.process.pid,
                    threads=len(snapshots),
                    ledger=self.store.ledger,
                    alerts=self.store.alerts,
                )
            )
        # a process whose main thread returned is finished, not
        # deadlocked (daemon helper threads may outlive it)
        if self.config.deadlock_after and self.process.main_thread.alive:
            flagged = self.progress.observe(snapshots)
            if flagged and self.config.deadlock_action == "terminate" \
                    and self.process.alive:
                self.heartbeats.append(
                    f"[zerosum] t={tick / self.kernel.clock.hz:.1f}s "
                    f"pid={self.process.pid} TERMINATING: "
                    f"{self.progress.describe()}"
                )
                self.kernel.kill_process(self.process, exit_code=124)

        # -- live streaming (LDMS/TAU seam, §6) ------------------------
        if self.stream is not None:
            self.stream.publish(
                self.engine.make_event(
                    tick,
                    snapshots,
                    hz=self.kernel.clock.hz,
                    hostname=self.process.node.hostname,
                    pid=self.process.pid,
                    rank=self.process.rank,
                    monitor_tid=self.monitor_lwp.tid,
                    deadlock_suspected=self.progress.deadlock_suspected,
                )
            )
        self.engine.commit(tick, snapshots)

    # ------------------------------------------------------------------
    def _on_crash(self, kernel: SimKernel, lwp: LWP, exc: BaseException) -> None:
        if lwp.process is not self.process:
            return
        tb = "".join(
            traceback.format_exception(type(exc), exc, exc.__traceback__)
        )
        self.crash_reports.append(
            f"*** ZeroSum abnormal-exit handler: LWP {lwp.tid} "
            f"({self.classify(lwp.tid)}) died at t="
            f"{kernel.now / kernel.clock.hz:.2f}s ***\n{tb}"
        )

    # ------------------------------------------------------------------
    def finalize(self) -> None:
        """Take the final sample and close the observation window."""
        if self._finalized:
            return
        self.take_sample()
        self.end_tick = self.kernel.now
        if self.recorder is not None:
            self.recorder.detach_all()
        self.engine.close_journal(self.kernel.now)
        self._finalized = True

    # -- what the shared run surface asks of the driver -----------------
    @cached_property
    def facts(self) -> TopologyFacts:
        """§3.5 node context, from the machine tree and the SMI session."""
        machine = self.process.node.machine
        cpu_numa = machine.cpu_numa
        gpus = {}
        if self.smi is not None:
            for visible in range(self.smi.num_devices()):
                info = self.smi.device(visible).info
                gpus[visible] = GpuFacts(
                    info.numa, info.physical_index, info.memory_bytes
                )
        return TopologyFacts(
            node_cpus=machine.node_cpus,
            cpu_numa=cpu_numa,
            rank_numas=frozenset(
                cpu_numa[cpu] for cpu in self.cpus_allowed if cpu in cpu_numa
            ),
            gpus=gpus,
            l3_cores=machine.l3_cores,
        )

    @property
    def oom_events(self) -> list[tuple[int, int]]:
        """The node's OOM kills so far, as (tick, pid)."""
        return self.process.node.memory.oom_events

    @property
    def mem_used_frac(self) -> float:
        """Used-memory fraction of the node the process lives on."""
        mem = self.process.node.memory
        return 1.0 - (mem.available_bytes / mem.total_bytes)

    def banner_lines(self) -> list[str]:
        """The phase-1 summary, plus the lstopo tree when rendered."""
        lines = self.initial.summary_lines()
        if self.initial.topology_text:
            lines += ["", self.initial.topology_text]
        return lines

    @property
    def duration_ticks(self) -> int:
        end = self.end_tick if self.end_tick is not None else self.kernel.now
        return max(1, end - self.start_tick)

    @property
    def duration_seconds(self) -> float:
        return self.duration_ticks / self.hz

    def deadlock_suspected(self) -> bool:
        """Whether the progress tracker has flagged a deadlock."""
        return self.progress.deadlock_suspected

    def deadlock_note(self) -> str:
        """The progress tracker's verdict, once a deadlock is flagged."""
        return self.progress.describe() if self.deadlock_suspected() else ""

    def detach(self) -> "DetachedRun":
        """The finished run as plain values, free of the simulated world."""
        return DetachedRun(self)


class DetachedRun(StoreBackedRun):
    """A finalized :class:`ZeroSum`'s run without its kernel.

    The store, the identity record and every value the report, the
    analyses (``analyze``, ``advise``, ``build_cluster_view``),
    ``merge_monitors`` and ``write_log`` read of the monitor, frozen at
    detach time.  It pickles, so a rank simulated in a sharded
    launcher's worker comes home as the same kind of run a serial rank
    is.
    """

    # plain values where the base class derives them
    duration_ticks = 0
    facts = TopologyFacts(frozenset())

    def __init__(self, monitor: ZeroSum):
        for name in (
            "store", "hz", "start_tick", "pid", "rank", "hostname",
            "cpus_allowed", "duration_ticks", "duration_seconds", "facts",
            "recorder", "mem_used_frac",
        ):
            setattr(self, name, getattr(monitor, name))
        self.heartbeats = list(monitor.heartbeats)
        self.crash_reports = list(monitor.crash_reports)
        self.oom_events = list(monitor.oom_events)
        self.kinds = {
            tid: monitor.classify(tid) for tid in monitor.observed_tids()
        }
        self.banner = monitor.banner_lines()
        self.note = monitor.deadlock_note()

    def classify(self, tid: int) -> str:
        """Thread kind as the monitor labelled it."""
        return self.kinds.get(tid) or super().classify(tid)

    def banner_lines(self) -> list[str]:
        return list(self.banner)

    def deadlock_note(self) -> str:
        return self.note
