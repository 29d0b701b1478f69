"""The paper's experiments as one table: ``zerosum-sim reproduce``.

One :class:`Row` per artefact of the paper's §3-§4 (and our three
ablations), keyed by the DESIGN.md experiment ids: the jobs it needs, a
``measure`` function from the finished jobs to its quantities — name,
the paper's value, measured value, print format — and the qualitative
claims, predicates over the measured values, that say what
"reproduced" means on a simulated substrate.  :func:`run_rows` runs
rows through the public API, each distinct job once; :func:`render` is
the paper-vs-measured record (committed as ``EXPERIMENTS.generated.md``);
:func:`drift` compares a fresh run with a committed record line by line.
Every quantity is seeded simulated jiffies, so the print format *is*
the tolerance.

Top layer: nothing in the package imports this module, and ``repro.cli``
only inside its ``reproduce`` handler.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, Iterable, Mapping

import numpy as np

from repro.analysis import all_hwt_series, all_lwp_series, compare_distributions
from repro.apps import MiniQmcConfig, PicConfig, miniqmc_app, pic_app
from repro.core import (
    ZeroSumConfig,
    analyze,
    build_report,
    merge_monitors,
    zerosum_mpi,
)
from repro.errors import ReproError
from repro.launch import JobStep, SrunOptions, launch_job
from repro.topology import frontier_node, render_lstopo, testnode_i7

__all__ = [
    "TABLE", "Job", "Row", "RowResult", "run_rows", "render", "drift",
    "T1_CMD", "T2_CMD", "T3_CMD", "LISTING2_CMD", "TWO_PER_CORE_CMD", "PIC_CMD",
]

# the three configurations of §4 and the other launch lines of the paper
T1_CMD = "OMP_NUM_THREADS=7 srun -n8 zerosum-mpi miniqmc"
T2_CMD = "OMP_NUM_THREADS=7 srun -n8 -c7 zerosum-mpi miniqmc"
T3_CMD = ("OMP_NUM_THREADS=7 OMP_PROC_BIND=spread OMP_PLACES=cores "
          "srun -n8 -c7 zerosum-mpi miniqmc")
LISTING2_CMD = (
    "OMP_PROC_BIND=spread OMP_PLACES=cores OMP_NUM_THREADS=4 "
    "srun -n8 --gpus-per-task=1 --cpus-per-task=7 --gpu-bind=closest "
    "--threads-per-core=1 zerosum-mpi miniqmc"
)
TWO_PER_CORE_CMD = (
    "OMP_NUM_THREADS=14 OMP_PROC_BIND=spread OMP_PLACES=threads "
    "srun -n8 -c7 --threads-per-core=2 zerosum-mpi miniqmc"
)
PIC_CMD = "srun -n512 pic"


@dataclass(frozen=True)
class Job:
    """One simulated job on Frontier nodes; equal jobs run once."""

    cmdline: str
    app: MiniQmcConfig | PicConfig
    #: ``None`` launches without ``zerosum-mpi`` (an overhead baseline)
    config: ZeroSumConfig | None
    nodes: int = 1
    smt_efficiency: float = 1.0

    def run(self) -> JobStep:
        factory = pic_app if isinstance(self.app, PicConfig) else miniqmc_app
        step = launch_job(
            [frontier_node(name=f"frontier{i:05d}") for i in range(self.nodes)],
            SrunOptions.parse(self.cmdline),
            factory(self.app),
            monitor_factory=zerosum_mpi(self.config) if self.config else None,
            smt_efficiency=self.smt_efficiency,
        )
        step.run(max_ticks=5_000_000)
        step.finalize()
        return step


def _qmc(cmdline, blocks=25, block_jiffies=100.0, jitter=0.01, seed=1,
         offload=False, monitor=True, smt_efficiency=1.0, **zs) -> Job:
    """A miniQMC job; 25 blocks of 100 jiffies ~ the paper's 27 s runs."""
    return Job(
        cmdline,
        MiniQmcConfig(blocks=blocks, block_jiffies=block_jiffies,
                      jitter=jitter, seed=seed, offload=offload),
        ZeroSumConfig(**zs) if monitor else None,
        smt_efficiency=smt_efficiency,
    )


@dataclass(frozen=True)
class Row:
    """One artefact: jobs -> measured quantities -> claims."""

    id: str
    artefact: str
    jobs: Mapping[object, Job]
    #: finished jobs (same keys) -> (quantity, the paper's value, measured
    #: value[, print format, "{}" if left out]) in print order; a tuple
    #: value is splatted into its format
    measure: Callable[[Mapping[object, JobStep]], Iterable[tuple]]
    #: claim -> predicate over the measured values, by quantity
    claims: dict[str, Callable[[Mapping[str, object]], bool]]


@dataclass(frozen=True)
class RowResult:
    row: Row
    #: (quantity, the paper's value, the measured value as printed)
    cells: tuple[tuple[str, str, str], ...]
    #: the claims that do not hold
    failed: tuple[str, ...]


# -- what each row measures -------------------------------------------------

_RANGE = "{}–{}"
_RANGE1 = "{:.1f}–{:.1f}"
_RANGE2 = "{:.2f}–{:.2f}"


def _omp(step: JobStep):
    """Rank 0's team rows (Main included): the paper's table bodies."""
    return [r for r in build_report(step.monitors[0]).lwp_rows
            if "OpenMP" in r.kind]


def _span(values) -> tuple:
    values = list(values)
    return min(values), max(values)


def _findings(step: JobStep) -> str:
    codes = sorted({f.code for f in analyze(step.monitors[0]).findings})
    return ", ".join(codes) or "none"


def _listing1(steps):
    text = render_lstopo(testnode_i7())
    for name, fragment in (
        ("logical PU 0", "PU L#0 P#0"),
        ("logical PU 1", "PU L#1 P#4"),
        ("L3 cache", "L3Cache L#0 12MB"),
        ("last L2 cache", "L2Cache L#3 1280KB"),
        ("last core", "Core L#3"),
    ):
        yield name, fragment, fragment if fragment in text else "absent"


def _listing2(steps):
    step = steps["offload"]
    report = build_report(step.monitors[0])
    hwt = {r.cpu: r for r in report.hwt_rows}
    gpu = {s.label: (s.minimum, s.average, s.maximum)
           for s in report.gpu_stats[0]}
    yield "Main CPUs", "1", report.lwp_by_kind("Main")[0].cpus.to_list()
    yield "OpenMP CPUs", "3, 5, 7", ", ".join(sorted(
        r.cpus.to_list() for r in report.lwp_rows if r.kind == "OpenMP"))
    yield ("rank 0 GPU (physical GCD)", "4",
           step.contexts[0].gpus[0].info.physical_index)
    yield ("even cores (2, 4, 6) idle %", "~99.8",
           _span(hwt[c].idle_pct for c in (2, 4, 6)), _RANGE1)
    yield ("walker cores (1, 3, 5) idle %", "~22.7",
           np.mean([hwt[c].idle_pct for c in (1, 3, 5)]), "{:.1f}")
    yield ("walker cores (1, 3, 5) system %", "~12.5",
           np.mean([hwt[c].system_pct for c in (1, 3, 5)]), "{:.1f}")
    for label, paper in (("Device Busy %", "0 / 14.6 / 52"),
                         ("Power Average (W)", "90 / 126.5 / 138"),
                         ("Temperature (C)", "35 / 37.9 / 39")):
        yield (f"{label}, min / avg / max", paper, gpu[label],
               "{:.1f} / {:.1f} / {:.1f}")
    yield "GPU metrics in the table", "16", len(gpu)


def _table1(steps):
    step = steps["default"]
    report = build_report(step.monitors[0])
    omp = _omp(step)
    other = report.lwp_by_kind("Other")[0]
    yield "team threads", "7", len(omp)
    yield "CPUs of team + ZeroSum threads", "1", ", ".join(sorted(
        {r.cpus.to_list() for r in omp + report.lwp_by_kind("ZeroSum")}))
    yield ("OpenMP utime %", "12.93–15.17",
           _span(r.utime_pct for r in omp), _RANGE2)
    yield ("OpenMP stime %", "0.21–1.54",
           _span(r.stime_pct for r in omp), _RANGE2)
    yield ("OpenMP nv_ctx", "92 528–394 014",
           _span(r.nv_ctx for r in omp), _RANGE)
    yield ("OpenMP nv_ctx in the bound case (T3)", "0–208",
           _span(r.nv_ctx for r in _omp(steps["bound"])), _RANGE)
    yield ('"Other" helper', "unbound (1-127-style mask), idle",
           (len(other.cpus), other.utime_pct), "{} CPUs allowed, utime {:.2f}")
    yield "findings", "(detection is future work)", _findings(step)


def _table2(steps):
    step = steps["cores7"]
    omp = _omp(step)
    nv_ctx = sorted(r.nv_ctx for r in omp)
    threads = step.processes[0].threads.values()
    yield ("OpenMP utime %", "88.40–93.00",
           _span(r.utime_pct for r in omp), _RANGE2)
    yield ("OpenMP nv_ctx", "5–14 (300 on the ZeroSum-sharing thread)",
           (nv_ctx[0], nv_ctx[-2], nv_ctx[-1]),
           "{}–{} ({} on the ZeroSum-sharing thread)")
    yield ("threads migrated at least once", "all",
           (sum(1 for t in threads if t.migrations > 0), len(threads)),
           "{} of {}")
    yield "findings", "—", _findings(step)


def _table3(steps):
    step = steps["bound"]
    omp = _omp(step)
    team = [t for t in step.processes[0].threads.values()
            if len(t.affinity) == 1 and t.total_jiffies > 10]
    yield ("OpenMP thread cores", "1, 2, 3, 4, 5, 6, 7",
           ", ".join(str(c) for c in sorted(r.cpus[0] for r in omp)))
    yield ("migrations of the bound threads", "0",
           sum(t.migrations for t in team))
    yield ("nv_ctx off the ZeroSum core", "0–2",
           _span(r.nv_ctx for r in omp if list(r.cpus) != [7]), _RANGE)
    yield ("nv_ctx on core 7 (shared with ZeroSum)", "208",
           max((r.nv_ctx for r in omp if list(r.cpus) == [7]), default=0))
    yield "findings", "—", _findings(step)


def _runtimes(steps):
    default, cores7, bound = (
        steps[k].duration_seconds for k in ("default", "cores7", "bound"))
    yield "default (s)", "63.67", default, "{:.2f}"
    yield "-c7 (s)", "27.33", cores7, "{:.2f}"
    yield "-c7 bound (s)", "27.40", bound, "{:.2f}"
    yield "default -> -c7 speedup", "2.33x", default / cores7, "{:.2f}x"
    yield "bound / unbound", "1.003", bound / cores7, "{:.3f}"


def _figure5(steps):
    matrix = merge_monitors(steps["pic"].monitors)
    yield "ranks", "512", matrix.size
    yield ("diagonal dominance (band 1) %",
           "strong nearest-neighbor pattern along the central diagonal",
           100 * matrix.diagonal_dominance(band=1), "{:.1f}")
    yield "total traffic (GB)", "—", matrix.total_bytes() / 1e9, "{:.1f}"


def _figure6(steps):
    series = all_lwp_series(steps["bound"].monitors[0])
    busy = [s for s in series if s.mean_user() > 50.0]
    yield "LWP series", "9", len(series)
    yield "busy threads (mean user > 50 %)", "7", len(busy)
    yield ("busy-thread mean user %", "near 100",
           _span(s.mean_user() for s in busy), _RANGE1)
    yield ("noisiness (mean std of busy %)", "visibly noisy",
           np.mean([s.noisiness() for s in busy]), "{:.2f}")


def _figure7(steps):
    hwts = all_hwt_series(steps["bound"].monitors[0])
    yield "HWT series", "7", len(hwts)
    yield ("per-core mean user %", "tracks the run",
           _span(s.user_pct.mean() for s in hwts), _RANGE1)
    yield ("max deviation of user + system + idle from 100", "—",
           max(np.abs(s.user_pct + s.system_pct + s.idle_pct - 100.0).max()
               for s in hwts), "{:.1f}")
    yield ("noisiness (mean std of busy %)", "steadier than Figure 6's",
           np.mean([s.noisiness() for s in hwts]), "{:.2f}")


_F8_REPS = 10


def _figure8(steps):
    for arm, label, paper_runs, paper_p, paper_overhead in (
        ("one", "1 thr/core", "27.3396±0.0358 vs 27.3395±0.1043", "0.998",
         "-0.0004"),
        ("two", "2 thr/core", "57.0657±0.0486 vs 57.3409±0.1823", "0.0006",
         "+0.482 (0.2752 s)"),
    ):
        base, zs = (
            [steps[arm, monitored, seed].duration_seconds
             for seed in range(_F8_REPS)]
            for monitored in (False, True))
        result = compare_distributions(base, zs)
        yield (f"{label}: baseline vs ZeroSum (s)", paper_runs,
               (result.baseline.mean, result.baseline.std,
                result.treated.mean, result.treated.std),
               "{:.3f}±{:.3f} vs {:.3f}±{:.3f}")
        yield f"{label}: t-test p", paper_p, result.p_value, "{:.2f}"
        yield (f"{label}: mean overhead %", paper_overhead,
               result.mean_overhead_percent, "{:+.3f}")


_A1_PERIODS = (2.0, 1.0, 0.5, 0.1, 0.05)
_A1_REPS = 6


def _ablation_frequency(steps):
    base = [steps[None, seed].duration_seconds for seed in range(_A1_REPS)]
    for period in _A1_PERIODS:
        runs = [steps[period, seed] for seed in range(_A1_REPS)]
        result = compare_distributions(base, [s.duration_seconds for s in runs])
        yield (f"period {period:g} s",
               "< 0.5 % overhead" if period == 1.0 else "—",
               (runs[-1].monitors[0].samples_taken,
                result.mean_overhead_percent, result.p_value),
               "{} samples, {:+.3f} % overhead, p={:.2f}")


def _ablation_placement(steps):
    for placement, step in steps.items():
        nv_ctx = {r.cpus[0]: r.nv_ctx for r in _omp(step) if len(r.cpus) == 1}
        yield (f"monitor_cpu={placement}",
               "nv_ctx 208 on core 7 (Table 3)" if placement == "last" else "—",
               (step.duration_seconds, nv_ctx.get(1, 0), nv_ctx.get(7, 0)),
               "{:.2f} s, nv_ctx {} on core 1, {} on core 7")


_A3_EFFICIENCIES = (1.0, 0.96, 0.92, 0.85)


def _ablation_smt(steps):
    for eff in _A3_EFFICIENCIES:
        one, two = (steps[arm, eff].duration_seconds for arm in ("one", "two"))
        yield (f"smt_efficiency={eff:g}",
               "27.34 s vs 57.07 s: 2x walkers cost 2.087x"
               if eff == 0.96 else "—",
               (one, two, two / one, 2 * two / one),
               "{:.2f} s vs {:.2f} s: ratio {:.3f}, 2x walkers cost {:.3f}x")


# -- the table --------------------------------------------------------------

_T1, _T2, _T3 = _qmc(T1_CMD), _qmc(T2_CMD), _qmc(T3_CMD)
_SERIES = _qmc(T3_CMD, blocks=20, jitter=0.02)

TABLE: dict[str, Row] = {row.id: row for row in (
    Row("L1", "Listing 1 — hwloc topology of the i7-1165G7 test node",
        {}, _listing1, {
            "interleaved PU indexing (logical 1 is OS 4)":
                lambda m: m["logical PU 1"] == "PU L#1 P#4",
            "four cores, four 1280KB L2, one 12MB L3":
                lambda m: "absent" not in m.values(),
        }),
    Row("L2", "Listing 2 — utilization report of the GPU-offload run",
        {"offload": _qmc(LISTING2_CMD, blocks=12, offload=True)}, _listing2, {
            "Main on core 1, OpenMP on cores 3, 5, 7":
                lambda m: (m["Main CPUs"], m["OpenMP CPUs"]) == ("1", "3, 5, 7"),
            "even cores > 95 % idle":
                lambda m: m["even cores (2, 4, 6) idle %"][0] > 95.0,
            "bursty offload: Device Busy min < 5, max > 20":
                lambda m: m["Device Busy %, min / avg / max"][0] < 5.0
                and m["Device Busy %, min / avg / max"][2] > 20.0,
        }),
    Row("T1", "Table 1 — default configuration, all threads on one core",
        {"default": _T1, "bound": _T3}, _table1, {
            "seven team threads":
                lambda m: m["team threads"] == 7,
            "all team threads on core 1":
                lambda m: m["CPUs of team + ZeroSum threads"] == "1",
            "starved utilization: 8 < utime < 20 on every thread":
                lambda m: 8.0 < m["OpenMP utime %"][0]
                and m["OpenMP utime %"][1] < 20.0,
            "time slicing: nv_ctx > 100 on every thread":
                lambda m: m["OpenMP nv_ctx"][0] > 100,
            "nv_ctx orders of magnitude above the bound case":
                lambda m: m["OpenMP nv_ctx"][0]
                > 10 * m["OpenMP nv_ctx in the bound case (T3)"][1],
        }),
    Row("T2", "Table 2 — seven cores per rank, threads unbound",
        {"cores7": _T2}, _table2, {
            "utime > 80 % on every team thread":
                lambda m: m["OpenMP utime %"][0] > 80.0,
            "the least preempted thread has nv_ctx <= 5":
                lambda m: m["OpenMP nv_ctx"][0] <= 5,
            "at least three threads migrated":
                lambda m: m["threads migrated at least once"][0] >= 3,
            "clean contention report":
                lambda m: m["findings"] == "none",
        }),
    Row("T3", "Table 3 — threads bound one per core (spread/cores)",
        {"bound": _T3}, _table3, {
            "one thread per core, cores 1-7":
                lambda m: m["OpenMP thread cores"] == "1, 2, 3, 4, 5, 6, 7",
            "no migrations":
                lambda m: m["migrations of the bound threads"] == 0,
            "only the thread sharing a core with ZeroSum is preempted":
                lambda m: m["nv_ctx off the ZeroSum core"][1] <= 2
                and m["nv_ctx on core 7 (shared with ZeroSum)"] > 0,
            "clean contention report":
                lambda m: m["findings"] == "none",
        }),
    Row("RT", "§4 runtimes of the three configurations",
        {"default": _T1, "cores7": _T2, "bound": _T3}, _runtimes, {
            "the default configuration is more than 2x slower":
                lambda m: m["default -> -c7 speedup"] > 2.0,
            "bound ≈ unbound (within 10 %)":
                lambda m: 0.9 < m["bound / unbound"] < 1.1,
        }),
    Row("F5", "Figure 5 — MPI point-to-point heatmap, 512-rank PIC",
        {"pic": Job(PIC_CMD, PicConfig(steps=4),
                    ZeroSumConfig(collect_hwt=False, collect_gpu=False,
                                  collect_memory=False), nodes=10)},
        _figure5, {
            "512 x 512 matrix":
                lambda m: m["ranks"] == 512,
            "diagonal band ≥ 99 %":
                lambda m: m["diagonal dominance (band 1) %"] >= 99.0,
            "traffic was recorded":
                lambda m: m["total traffic (GB)"] > 0,
        }),
    Row("F6", "Figure 6 — per-LWP user/system/idle time series",
        {"bound": _SERIES}, _figure6, {
            "one series per LWP":
                lambda m: m["LWP series"] == 9,
            "seven busy threads (Main + 6 team)":
                lambda m: m["busy threads (mean user > 50 %)"] == 7,
            "busy threads above 70 % user":
                lambda m: m["busy-thread mean user %"][0] > 70.0,
            "jiffy-granular sampling is visibly noisy":
                lambda m: m["noisiness (mean std of busy %)"] > 0.0,
        }),
    Row("F7", "Figure 7 — per-HWT utilization time series",
        {"bound": _SERIES}, _figure7, {
            "seven allocated cores":
                lambda m: m["HWT series"] == 7,
            "every core above 60 % user":
                lambda m: m["per-core mean user %"][0] > 60.0,
            "user + system + idle = 100 ± 10 at every sample":
                lambda m: m["max deviation of user + system + idle from 100"]
                <= 10.0,
        }),
    Row("F8", "Figure 8 — runtime with and without ZeroSum, 10 runs each",
        {(arm, monitored, seed): _qmc(cmd, blocks=8, block_jiffies=50,
                                      jitter=0.012, seed=seed, monitor=monitored)
         for arm, cmd in (("one", T3_CMD), ("two", TWO_PER_CORE_CMD))
         for monitored in (False, True) for seed in range(_F8_REPS)},
        _figure8, {
            "1 thr/core: |overhead| < 1 %":
                lambda m: abs(m["1 thr/core: mean overhead %"]) < 1.0,
            "1 thr/core: statistically invisible (p ≥ 0.05)":
                lambda m: m["1 thr/core: t-test p"] >= 0.05,
            "< 0.5 % contended overhead":
                lambda m: -0.1 <= m["2 thr/core: mean overhead %"] < 0.5,
        }),
    Row("A1", "Ablation (ours) — sampling period vs overhead, 2 thr/core",
        {(period, seed): _qmc(
            TWO_PER_CORE_CMD, blocks=6, block_jiffies=40, jitter=0.012,
            seed=seed, monitor=period is not None,
            **({"period_seconds": period} if period else {}))
         for period in (None,) + _A1_PERIODS for seed in range(_A1_REPS)},
        _ablation_frequency, {
            "the 1 Hz design point stays under 0.5 %":
                lambda m: m["period 1 s"][1] < 0.5,
            "20 Hz costs no less than 1 Hz":
                lambda m: m["period 0.05 s"][1] >= m["period 1 s"][1] - 0.2,
            "faster sampling yields more samples":
                lambda m: m["period 0.05 s"][0] > m["period 1 s"][0],
        }),
    Row("A2", "Ablation (ours) — where the ZeroSum thread lives",
        {placement: _qmc(T3_CMD, blocks=15, block_jiffies=60,
                         monitor_cpu=placement)
         for placement in ("last", "first", None)},
        _ablation_placement, {
            "last HWT: the contention lands on core 7, not core 1":
                lambda m: m["monitor_cpu=last"][2] > m["monitor_cpu=last"][1],
            "first HWT: core 7 is left alone":
                lambda m: m["monitor_cpu=first"][2] <= 2,
        }),
    Row("A3", "Ablation (ours) — SMT lane efficiency vs §4.1's "
        "two-threads-per-core cost",
        {(arm, eff): _qmc(cmd, blocks=10, block_jiffies=60, jitter=0.0, seed=0,
                          smt_efficiency=eff)
         for eff in _A3_EFFICIENCIES
         for arm, cmd in (("one", T3_CMD), ("two", TWO_PER_CORE_CMD))},
        _ablation_smt, {
            "independent lanes: ratio ≈ 1":
                lambda m: 0.97 <= m["smt_efficiency=1"][2] <= 1.05,
            "shared lanes slow the doubled configuration":
                lambda m: m["smt_efficiency=0.92"][2] > m["smt_efficiency=1"][2],
            "the ratio is monotone in the sharing cost":
                lambda m: [v[2] for v in m.values()]
                == sorted(v[2] for v in m.values()),
        }),
)}


# -- the driver -------------------------------------------------------------

def run_rows(ids=()) -> list[RowResult]:
    """Run the asked rows (all when none is named), each distinct job once."""
    unknown = [i for i in ids if i not in TABLE]
    if unknown:
        raise ReproError(
            f"unknown experiment id {', '.join(unknown)}; "
            f"choose from {' '.join(TABLE)}")
    rows = [TABLE[i] for i in dict.fromkeys(ids)] or list(TABLE.values())
    done: list[tuple[Job, JobStep]] = []

    def finished(job: Job) -> JobStep:
        # by value, not identity; Job holds (unhashable) config dataclasses
        for known, step in done:
            if known == job:
                return step
        done.append((job, job.run()))
        return done[-1][1]

    results = []
    for n, row in enumerate(rows):
        steps = {key: finished(job) for key, job in row.jobs.items()}
        quantities = list(row.measure(steps))
        # F8 and A1 run dozens of jobs: keep only what a later row asks for
        later = [job for r in rows[n + 1:] for job in r.jobs.values()]
        done[:] = [(job, step) for job, step in done if job in later]
        values = {name: value for name, _, value, *_ in quantities}
        results.append(RowResult(
            row,
            tuple((name, paper, _shown(*shown))
                  for name, paper, *shown in quantities),
            tuple(c for c, holds in row.claims.items() if not holds(values)),
        ))
    return results


def _shown(value, fmt="{}") -> str:
    return fmt.format(*value) if isinstance(value, tuple) else fmt.format(value)


def _section(result: RowResult) -> list[str]:
    row = result.row
    lines = [f"## {row.id} — {row.artefact}", ""]
    lines += [f"- `{cmdline}`" for cmdline in
              dict.fromkeys(job.cmdline for job in row.jobs.values())]
    lines += [""] * bool(row.jobs)
    lines += ["| quantity | paper | measured |", "|---|---|---|"]
    lines += [f"| {' | '.join(cell)} |" for cell in result.cells]
    lines.append("")
    lines += [f"- [{' ' if claim in result.failed else 'x'}] {claim}"
              for claim in row.claims]
    return lines


_HEADER = """\
# EXPERIMENTS.generated — paper vs. measured

Written by `zerosum-sim reproduce > EXPERIMENTS.generated.md` from the
table in `src/repro/reproduce.py` (job sizes and seeds are there); do not
edit.  `zerosum-sim reproduce --check EXPERIMENTS.generated.md` (tier-1
on eleven rows, CI on all) fails when a measured value below differs
from a fresh run at its printed precision, or a ticked claim no longer
holds.  Every value is seeded simulated jiffies on the Frontier model —
no wall clock.
"""


def render(results: list[RowResult]) -> str:
    """The paper-vs-measured record of ``results``, as markdown."""
    return "\n".join(
        [_HEADER] + ["\n".join(_section(r)) + "\n" for r in results])


def drift(results: list[RowResult], committed: str) -> list[str]:
    """Where a committed record and ``results`` differ, line by line."""
    sections: dict[str, list[str]] = {}
    for line in committed.splitlines():
        if line.startswith("## "):
            current = sections.setdefault(line[3:].split(" — ")[0], [])
        if sections and line:
            current.append(line)
    problems = []
    for result in results:
        rid = result.row.id
        if rid not in sections:
            problems.append(f"{rid}: not in the committed record")
            continue
        fresh = [line for line in _section(result) if line]
        problems += [
            f"{rid}: committed `{old}`, measured `{new}`"
            for old, new in zip_longest(sections[rid], fresh, fillvalue="")
            if old != new
        ]
    return problems
