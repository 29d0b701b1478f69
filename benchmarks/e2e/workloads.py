"""One repeat of one e2e workload, in a process of its own.

``run.py`` starts this file as a fresh subprocess for every repeat (a
second in-process ``heatmap --ranks 512`` ran almost three times slower
than the first because of the heap the first one left behind) and reads
the one JSON line it prints last.  Everything here goes through the
public API a CLI user reaches: ``launch_job`` + ``zerosum_mpi``,
``LiveZeroSum.sample_once``, ``recover_journal``,
``step.report/findings/advice/comm_matrix``.

Timed region of every workload: build world -> run -> finalize ->
render.  What comes before it (interpreter start, imports, fixtures) is
``setup_s``; the output checks come after it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
OUT = HERE / "out"

#: ledger actions that mean an operation was lost (retries, respawns and
#: straggler notes are recoveries, not failures)
FAILED_ACTIONS = {"failure", "dropped-row", "disabled", "error"}

#: (full, smoke) sizes.  The full sizes give ~2-4 s per repeat on the
#: 2-core sandbox, so one 12 s benchmark run holds several repeats.
SIZES = {
    "sim_bound_blocks": (120, 10),
    "sim_oversub_blocks": (40, 6),
    "sim_sampling_blocks": (60, 6),
    "recoveries": (20, 3),
    "pic_ranks": (512, 64),
    "pic_steps": (40, 6),
    "live_threads": (64, 64),
    "live_warmup": (20, 5),
    "live_samples": (400, 60),
    "live_intercept_samples": (300, 30),
}

SIM_BOUND_CMD = (
    "OMP_PROC_BIND=spread OMP_PLACES=cores OMP_NUM_THREADS=4 srun -n8 "
    "--gpus-per-task=1 --cpus-per-task=7 --gpu-bind=closest "
    "--threads-per-core=1 zerosum-mpi miniqmc"
)
SIM_OVERSUB_CMD = "OMP_NUM_THREADS=7 srun -n8 zerosum-mpi miniqmc"
SIM_SAMPLING_CMD = (
    "OMP_NUM_THREADS=56 OMP_PROC_BIND=spread OMP_PLACES=cores "
    "srun -n1 -c56 zerosum-mpi miniqmc"
)


def _children_cpu_seconds() -> float:
    """CPU of the reaped children (the sharded workers)."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


def _sha256(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


class Repeat:
    """Clocks, checks and counts of one repeat."""

    def __init__(self, workload: str, seed: int, smoke: bool, tracer, spawned_at):
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.tracer = tracer
        self.span = tracer.span
        self.spawned_at = spawned_at
        self.tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
        self.e2e: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: exact, seed-determined counts and digests; must repeat exactly
        self.counts: dict[str, object] = {}
        #: measured values that are not end-to-end metrics (live.*, ...)
        self.extra: dict[str, float] = {}

    def size(self, key: str) -> int:
        return SIZES[key][1 if self.smoke else 0]

    # -- the timed region -------------------------------------------------
    @contextmanager
    def timed(self):
        """Set-up ends here; the body is what ``wall_s``/``cpu_s`` cover."""
        self.e2e["setup_s"] = time.monotonic() - self.spawned_at
        counters0 = dict(self.tracer.counters)
        with self.span("harness"):
            own0, children0 = time.process_time(), _children_cpu_seconds()
            wall0 = time.perf_counter()
            yield
            self.e2e["wall_s"] = time.perf_counter() - wall0
            self.own_cpu_s = time.process_time() - own0
            self.children_cpu_s = _children_cpu_seconds() - children0
            self.e2e["cpu_s"] = self.own_cpu_s + self.children_cpu_s
        #: the tracer's counts, taken inside the timed region only
        self.timed_counters = {
            key: value - counters0.get(key, 0)
            for key, value in self.tracer.counters.items()
        }

    # -- failure accounting -----------------------------------------------
    def check(self, name: str, ok: bool, detail: str = "") -> None:
        """One output check; a failed one fails the whole benchmark run."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}" if detail else name)

    def account(self, periods: int, *ledgers) -> None:
        """Sampling periods attempted, and the ones a ledger says were lost."""
        self.attempted += periods
        for ledger in ledgers:
            for event in ledger.events:
                if event.action in FAILED_ACTIONS:
                    self.failed += 1
                    self.failures.append(event.render())

    def result(self) -> dict:
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.e2e["peak_rss_mb"] = max(own, children) / 1024.0
        return {
            "workload": self.workload,
            "seed": self.seed,
            "traced": self.tracer.enabled,
            "e2e": self.e2e,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures[:20],
            "counts": self.counts,
            "extra": self.extra,
        }


# -- miniQMC on one Frontier node (sim_bound / sim_oversub / sim_sampling) ----


def _miniqmc_step(rep: Repeat, cmdline: str, blocks: int, config, offload=False):
    """Build, run, finalize and render one monitored miniQMC job."""
    from repro.apps import MiniQmcConfig, miniqmc_app
    from repro.core import zerosum_mpi
    from repro.launch import SrunOptions, launch_job
    from repro.topology import frontier_node

    opts = SrunOptions.parse(cmdline)
    app = miniqmc_app(
        MiniQmcConfig(
            blocks=blocks,
            block_jiffies=100,
            jitter=0.01,
            seed=rep.seed,
            offload=offload,
        )
    )
    with rep.span("topology.build"):
        machine = frontier_node(name="frontier00000")
    with rep.span("launch.build"):
        step = launch_job(
            [machine], opts, app, monitor_factory=zerosum_mpi(config)
        )
    step.run()
    step.finalize()
    return step, _render_rank0(rep, step)


def _render_rank0(rep: Repeat, step) -> str:
    """What ``zerosum-sim run`` prints for rank 0."""
    with rep.span("core.reports.render"):
        text = step.report(0).render()
    with rep.span("core.contention.analyze"):
        text += step.findings(0).render()
    with rep.span("core.advisor.advise"):
        text += step.advice(0).render()
    return text


def _check_zero_sum(rep: Repeat, monitor) -> None:
    """The paper's namesake law on rank 0: per hardware thread,
    user+system+idle+iowait advance by exactly the elapsed ticks (each
    of the four counters is floored to whole jiffies, hence the 4)."""
    broken = []
    for cpu, series in monitor.hwt_series.items():
        rows = series.array
        elapsed = rows[-1, 0] - rows[0, 0]
        accounted = (rows[-1, 1:] - rows[0, 1:]).sum()
        if abs(accounted - elapsed) > 4:
            broken.append(f"cpu{cpu}: {accounted:g} of {elapsed:g} ticks")
    rep.check(
        "zero_sum", bool(monitor.hwt_series) and not broken, "; ".join(broken)
    )


def _store_rows(store) -> int:
    """Rows ever appended to a store, over all of its series."""
    families = (store.lwp_series, store.hwt_series, store.gpu_series)
    return store.mem_series.appended + sum(
        series.appended for family in families for series in family.values()
    )


def _account_sim(rep: Repeat, step, text: str) -> None:
    monitors = step.monitors
    rep.account(
        sum(m.samples_taken for m in monitors),
        *(m.store.ledger for m in monitors),
    )
    _check_zero_sum(rep, step.monitor(0))
    rep.counts.update(
        {
            "kernel.ticks": step.ticks_run,
            "collect.engine.samples": sum(m.samples_taken for m in monitors),
            "collect.store.rows": sum(_store_rows(m.store) for m in monitors),
            "detect.findings": sum(
                len(m.store.alerts) for m in monitors
                if m.store.alerts is not None
            ),
            "launch.ranks": len(monitors),
            "digest": _sha256(text.encode()),
        }
    )


def sim_bound(rep: Repeat) -> None:
    from repro.core import ZeroSumConfig

    with rep.timed():
        step, text = _miniqmc_step(
            rep, SIM_BOUND_CMD, rep.size("sim_bound_blocks"), ZeroSumConfig(),
            offload=True,
        )
    _account_sim(rep, step, text)


def sim_oversub(rep: Repeat) -> None:
    from repro.core import ZeroSumConfig

    with rep.timed():
        step, text = _miniqmc_step(
            rep, SIM_OVERSUB_CMD, rep.size("sim_oversub_blocks"),
            ZeroSumConfig(detect_online=True),
        )
    _account_sim(rep, step, text)
    rep.check(
        "findings_fire",
        "oversubscri" in text.lower(),
        "72 LWPs on 8 HWTs produced no oversubscription finding",
    )


def _journaled_step(rep: Repeat):
    from repro.core import ZeroSumConfig

    journal = rep.tmp / "r0.zsj"
    step, text = _miniqmc_step(
        rep, SIM_SAMPLING_CMD, rep.size("sim_sampling_blocks"),
        ZeroSumConfig(
            period_seconds=0.1, detect_online=True, journal_path=str(journal)
        ),
    )
    return step, text, journal


def _recover(rep: Repeat, journal: Path):
    from repro.collect.journal import recover_journal

    with rep.span("collect.journal.recover"):
        recovered = recover_journal(journal)
    with rep.span("core.reports.render"):
        return recovered, recovered.report().render()


def _check_recovery(rep: Repeat, step, recovered, rendered: str) -> None:
    """Post-mortem recovery must reproduce the in-memory report."""
    rep.check(
        "recover_identical",
        rendered == step.report(0).render(),
        "recovered report differs from the in-memory one",
    )
    rep.check(
        "recover_not_torn",
        recovered.torn_records == 0,
        f"{recovered.torn_records} torn journal record(s)",
    )


def sim_sampling(rep: Repeat) -> None:
    with rep.timed():
        step, text, journal = _journaled_step(rep)
    _account_sim(rep, step, text)
    writer = step.monitor(0).journal
    size = journal.stat().st_size
    rep.counts.update(
        {
            "collect.journal.periods": writer.periods_recorded,
            "collect.journal.bytes": size,
            "collect.journal.bytes_per_period": size / writer.periods_recorded,
        }
    )
    _check_recovery(rep, step, *_recover(rep, journal))


def recover(rep: Repeat) -> None:
    step, text, journal = _journaled_step(rep)  # the fixture: setup_s
    recoveries = rep.size("recoveries")
    with rep.timed():
        for _ in range(recoveries):
            recovered, rendered = _recover(rep, journal)
    rep.attempted += recoveries
    _check_recovery(rep, step, recovered, rendered)
    rep.counts.update(
        {
            "collect.journal.recoveries": recoveries,
            "collect.journal.bytes": journal.stat().st_size,
            "collect.engine.samples": recovered.samples_taken,
            "digest": _sha256(rendered.encode()),
        }
    )


# -- the Figure 5 PIC heatmap (pic_512 / pic_512_w2) --------------------------


def _pic(rep: Repeat, workers: int) -> None:
    from repro.apps import PicConfig, pic_app
    from repro.core import ZeroSumConfig, zerosum_mpi
    from repro.launch import SrunOptions, launch_job
    from repro.mpi import Fabric
    from repro.topology import frontier_node
    from repro.units import KIB, MIB

    ranks = rep.size("pic_ranks")
    # PicConfig has no seed: the seed picks the message sizes, which
    # change the matrix (and its digest) but not the number of messages
    rng = random.Random(rep.seed)
    config = PicConfig(
        steps=rep.size("pic_steps"),
        halo_bytes=4 * MIB + rng.randrange(64) * KIB,
        shift_bytes=64 * KIB + rng.randrange(16) * KIB,
    )
    opts = SrunOptions(ntasks=ranks, cpus_per_task=1, command="pic")

    with rep.timed():
        with rep.span("topology.build"):
            nodes = [
                frontier_node(name=f"frontier{i:05d}")
                for i in range((ranks + 55) // 56)
            ]
        with rep.span("launch.build"):
            step = launch_job(
                nodes,
                opts,
                pic_app(config),
                monitor_factory=zerosum_mpi(
                    ZeroSumConfig(collect_hwt=False, collect_gpu=False)
                ),
                fabric=Fabric(remote_latency=8),
                workers=workers,
            )
        if workers > 1:
            with rep.span("launch.sharded.run"):
                step.run()
        else:
            step.run()
        step.finalize()
        with rep.span("core.heatmap.merge"):
            matrix = step.comm_matrix()
        with rep.span("core.heatmap.render"):
            matrix.render(bins=min(64, ranks))

    if workers > 1:
        rep.extra["launch.sharded.orchestrator_cpu_s"] = rep.own_cpu_s
        rep.extra["launch.sharded.worker_cpu_s"] = rep.children_cpu_s
        stores = [r.store for r in step.rank_results.values()]
        degradations = step.degradations
        rep.failed += len(degradations)
        rep.check(
            "no_degradations",
            not degradations,
            "; ".join(f"[{e.action}] {e.reason}" for e in degradations),
        )
        rep.counts["launch.sharded.epochs"] = step.epochs_run
        rep.counts["launch.sharded.degradations"] = len(degradations)
    else:
        stores = [m.store for m in step.monitors]
    rep.check("all_ranks_reported", len(stores) == ranks,
              f"{len(stores)} of {ranks} ranks")
    rep.account(
        sum(s.samples_taken for s in stores), *(s.ledger for s in stores)
    )
    rep.counts.update(
        {
            "kernel.ticks": step.ticks_run,
            "collect.engine.samples": sum(s.samples_taken for s in stores),
            "launch.ranks": ranks,
            "mpi.messages": int(matrix.messages.sum()),
            "mpi.bytes": matrix.total_bytes(),
            # serial and sharded runs of one seed must agree on this
            "matrix_digest": _sha256(
                matrix.bytes.tobytes(), matrix.messages.tobytes()
            ),
        }
    )


def pic_512(rep: Repeat) -> None:
    _pic(rep, workers=1)


def pic_512_w2(rep: Repeat) -> None:
    _pic(rep, workers=2)


# -- the real /proc (live_proc) -----------------------------------------------


def _sample_loop(rep: Repeat, monitor, samples: int):
    """``samples`` back-to-back ``sample_once()`` calls on this thread."""
    latencies_ms, fewest_rows = [], None
    cpu0, wall0 = time.thread_time(), time.perf_counter()
    for _ in range(samples):
        t0 = time.perf_counter()
        with rep.span("live.monitor.sample"):
            monitor.sample_once()
        latencies_ms.append((time.perf_counter() - t0) * 1e3)
        rows = monitor.store.last_thread_count
        fewest_rows = rows if fewest_rows is None else min(fewest_rows, rows)
    wall = time.perf_counter() - wall0
    return latencies_ms, (time.thread_time() - cpu0) / samples, wall, fewest_rows


def live_proc(rep: Repeat) -> None:
    from repro.core import ZeroSumConfig
    from repro.live import LiveZeroSum

    # the observed population, not load generators: parked threads burn
    # no CPU, they only add /proc/self/task entries to read
    threads = rep.size("live_threads")
    tasks_before = len(os.listdir("/proc/self/task"))
    release_bulk, release_last = threading.Event(), threading.Event()
    parked = [
        threading.Thread(
            target=(release_last if i == 0 else release_bulk).wait, daemon=True
        )
        for i in range(threads)
    ]
    for thread in parked:
        thread.start()
    monitor = LiveZeroSum(ZeroSumConfig())
    # a live monitor runs for hours: its first samples are not its cost
    _sample_loop(rep, monitor, rep.size("live_warmup"))

    samples = rep.size("live_samples")
    with rep.timed():
        latencies_ms, cpu_per_sample, _, fewest_rows = _sample_loop(
            rep, monitor, samples
        )

    rep.check(
        "all_threads_observed",
        fewest_rows >= threads,
        f"a kept sample saw {fewest_rows} LWP rows, {threads} are parked",
    )
    quantiles = statistics.quantiles(latencies_ms, n=100)
    rep.extra.update(
        {
            "live.sample_ms_p50": statistics.median(latencies_ms),
            "live.sample_ms_p99": quantiles[98],
            # the paper's section 4.1 figure: monitor CPU per sample
            # over a 1 s period, on the real /proc
            "live.overhead_pct_1hz": cpu_per_sample / 1.0 * 100.0,
        }
    )

    # intercept: the same loop with one parked thread left
    release_bulk.set()
    for thread in parked[1:]:
        thread.join()
    # join() returns before the kernel has reaped the thread; sampling
    # now would race the dying tasks and drop their rows
    deadline = time.monotonic() + 5.0
    while (
        len(os.listdir("/proc/self/task")) > tasks_before + 1
        and time.monotonic() < deadline
    ):
        time.sleep(0.001)
    baseline = LiveZeroSum(ZeroSumConfig())
    intercept_samples = rep.size("live_intercept_samples")
    _sample_loop(rep, baseline, rep.size("live_warmup"))
    _, _, wall_one, _ = _sample_loop(rep, baseline, intercept_samples)
    release_last.set()
    parked[0].join()
    ms_many = rep.e2e["wall_s"] / samples * 1e3
    ms_one = wall_one / intercept_samples * 1e3
    slope_ms = (ms_many - ms_one) / (threads - 1)
    rep.extra["live.per_thread_us"] = slope_ms * 1e3
    rep.extra["live.fixed_ms"] = ms_one - slope_ms

    rep.account(
        monitor.samples_taken + baseline.samples_taken,
        monitor.store.ledger,
        baseline.store.ledger,
    )
    # not seed-determined (the host decides): reported, never compared
    rep.extra["collect.engine.samples"] = monitor.samples_taken
    rep.extra["collect.store.rows"] = _store_rows(monitor.store)


WORKLOADS = {
    "sim_bound": sim_bound,
    "sim_oversub": sim_oversub,
    "sim_sampling": sim_sampling,
    "recover": recover,
    "pic_512": pic_512,
    "pic_512_w2": pic_512_w2,
    "live_proc": live_proc,
}


# -- per-layer numbers of a traced repeat -------------------------------------

#: span name -> the per-layer metric holding its self time
SELF_TIME_METRICS = {
    "kernel.run": "kernel.run_self_s",
    "procfs.read": "procfs.read_s",
    "procfs.snapshot": "procfs.snapshot_s",
    "collect.reader.read": "collect.reader.read_s",
    "procfs.parsers.parse": "procfs.parsers.parse_s",
    "collect.collectors.lwp": "collect.collectors.lwp_s",
    "collect.collectors.hwt": "collect.collectors.hwt_s",
    "collect.collectors.mem": "collect.collectors.mem_s",
    "collect.collectors.gpu": "collect.collectors.gpu_s",
    "collect.store.commit": "collect.store.commit_s",
    "detect.observe": "detect.observe_s",
    "collect.journal.write": "collect.journal.write_s",
    "collect.journal.recover": "collect.journal.recover_s",
    "core.monitor.attach": "core.monitor.attach_s",
    "core.monitor.take_sample": "core.monitor.take_sample_self_s",
    "core.monitor.finalize": "core.monitor.finalize_s",
    "core.detect.configure": "core.detect.configure_s",
    "topology.build": "topology.build_s",
    "topology.lstopo": "topology.lstopo_s",
    "launch.build": "launch.build_s",
    "launch.sharded.run": "launch.sharded.run_s",
    "core.heatmap.merge": "core.heatmap.merge_s",
    "core.heatmap.render": "core.heatmap.render_s",
    "core.reports.render": "core.reports.render_s",
    "core.contention.analyze": "core.contention.analyze_s",
    "core.advisor.advise": "core.advisor.advise_s",
    "live.monitor.sample": "live.monitor.sample_self_s",
    "harness": "trace.untraced_s",
}

#: span name -> the per-layer metric counting its calls
CALL_COUNT_METRICS = {
    "procfs.read": "procfs.reads",
    "procfs.snapshot": "procfs.snapshots",
    "collect.reader.read": "collect.reader.reads",
    "procfs.parsers.parse": "procfs.parsers.calls",
    "detect.observe": "detect.observes",
}


def layer_metrics(rep: Repeat) -> dict[str, float]:
    """The traced repeat's per-layer values (seconds of self time unless
    the name says otherwise; a layer the workload never enters reads 0).

    Only the timed region counts — the ``harness`` span and what it
    encloses — so the self times add up to this repeat's ``wall_s``.
    """
    names, spans = rep.tracer.names, rep.tracer.spans
    harness = names.index("harness")
    root = next(i for i, span in enumerate(spans) if span[0] == harness)
    # spans are appended in start order: the region is one slice
    stop = root + 1
    while stop < len(spans) and spans[stop][1] < spans[root][2]:
        stop += 1
    region = [
        [name_id, start, end, max(parent - root, -1)]
        for name_id, start, end, parent in spans[root:stop]
    ]
    own = tracing.self_times(region, names)
    inclusive = tracing.inclusive_times(region, names)
    calls = dict.fromkeys(names, 0)
    for span in region:
        calls[names[span[0]]] += 1

    layers = {
        metric: own.get(span, 0.0) for span, metric in SELF_TIME_METRICS.items()
    }
    for span, metric in CALL_COUNT_METRICS.items():
        layers[metric] = calls.get(span, 0)
    layers["collect.engine.sample_s"] = inclusive.get("collect.engine.sample", 0.0)
    layers["collect.engine.commit_s"] = inclusive.get("collect.engine.commit", 0.0)
    layers["collect.engine.self_s"] = own.get(
        "collect.engine.sample", 0.0
    ) + own.get("collect.engine.commit", 0.0)
    for counter in ("collect.reader.bytes", "collect.collectors.rows"):
        layers[counter] = rep.timed_counters.get(counter, 0)
    layers["trace.spans"] = len(region)
    recover_s = inclusive.get("collect.journal.recover", 0.0)
    if recover_s:
        layers["collect.journal.recover_mb_per_s"] = (
            rep.counts["collect.journal.recoveries"]
            * rep.counts["collect.journal.bytes"] / 2**20 / recover_s
        )
    epochs = rep.counts.get("launch.sharded.epochs")
    if epochs:
        layers["launch.sharded.epoch_ms"] = (
            layers["launch.sharded.run_s"] / epochs * 1e3
        )
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--repeat", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() of the parent at spawn")
    args = parser.parse_args(argv)
    spawned_at = time.monotonic() if args.spawned_at is None else args.spawned_at

    sys.path.insert(0, str(REPO / "src"))
    import repro  # noqa: F401  (the CLI user's import cost is set-up)

    OUT.mkdir(exist_ok=True)
    tracer = tracing.Tracer(enabled=bool(args.trace))
    rep = Repeat(args.workload, args.seed, args.smoke, tracer, spawned_at)
    # sharded workers fork after the wrappers would be installed and
    # would carry them along: pic_512_w2 records orchestrator-side
    # spans only (worker-internal spans are the later telemetry issue)
    if tracer.enabled and args.workload != "pic_512_w2":
        tracing.install_wrappers(tracer)
    try:
        WORKLOADS[args.workload](rep)
    finally:
        tracer.restore()
        shutil.rmtree(rep.tmp, ignore_errors=True)
    result = rep.result()
    if tracer.enabled:
        result["layers"] = layer_metrics(rep)
        tracer.write(OUT / f"trace_{args.workload}.json", args.workload, args.repeat)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
