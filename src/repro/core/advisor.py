"""Configuration advice: from findings to a corrected launch line.

The paper frames its whole motivation as *configuration optimization*:
"low hanging fruit that can be automated, but to our knowledge has not
yet [been]" (§1), and §3.2 sketches evaluating a configuration against
a known-good one.  This module automates the paper's own §4 narrative:
given the launch options and the monitor's findings, it proposes the
concrete fixes — ``-c N``, ``OMP_PROC_BIND=spread OMP_PLACES=cores``,
``--gpu-bind=closest`` — and synthesizes the corrected ``srun`` line.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from repro.collect.report import StoreBackedRun
from repro.core.contention import ContentionReport, analyze
from repro.core.reports import UtilizationReport, build_report
from repro.detect.rules import THRESHOLDS
from repro.launch.options import SrunOptions

__all__ = ["Suggestion", "Advice", "advise"]


@dataclass(frozen=True)
class Suggestion:
    """One actionable change to the launch configuration."""

    code: str
    message: str
    #: e.g. ``{"cpus_per_task": 7}`` or env additions
    option_changes: tuple[tuple[str, object], ...] = ()
    env_changes: tuple[tuple[str, str], ...] = ()

    def render(self) -> str:
        """Bullet-point form."""
        return f"- {self.message}"


@dataclass
class Advice:
    """All suggestions plus the synthesized corrected command line."""

    original: SrunOptions
    suggestions: list[Suggestion] = field(default_factory=list)
    suggested: Optional[SrunOptions] = None

    @property
    def is_clean(self) -> bool:
        return not self.suggestions

    def by_code(self, code: str) -> list[Suggestion]:
        """Suggestions of one kind."""
        return [s for s in self.suggestions if s.code == code]

    def command_line(self) -> str:
        """Render the suggested launch as one srun command line."""
        opts = self.suggested or self.original
        parts = []
        for key, value in sorted(opts.env.items()):
            parts.append(f"{key}={value}")
        parts.append("srun")
        parts.append(f"-n{opts.ntasks}")
        if opts.cpus_per_task > 1:
            parts.append(f"-c{opts.cpus_per_task}")
        if opts.gpus_per_task:
            parts.append(f"--gpus-per-task={opts.gpus_per_task}")
        if opts.gpu_bind != "none":
            parts.append(f"--gpu-bind={opts.gpu_bind}")
        if opts.threads_per_core != 1:
            parts.append(f"--threads-per-core={opts.threads_per_core}")
        parts.append(opts.command)
        return " ".join(parts)

    def render(self) -> str:
        """Human-readable advice block with the suggested launch line."""
        if self.is_clean:
            return "Configuration advice: launch configuration looks good.\n"
        lines = ["Configuration advice:"]
        lines += [s.render() for s in self.suggestions]
        lines.append("")
        lines.append("suggested launch:")
        lines.append(f"  {self.command_line()}")
        return "\n".join(lines) + "\n"


def _busy_threads_per_rank(report: UtilizationReport) -> int:
    return sum(
        1 for row in report.lwp_rows
        if row.utime_pct + row.stime_pct >= THRESHOLDS.busy_pct
        and row.kind != "ZeroSum"
    )


def advise(
    monitor: StoreBackedRun,
    options: SrunOptions,
    report: Optional[UtilizationReport] = None,
    contention: Optional[ContentionReport] = None,
) -> Advice:
    """Produce launch-configuration advice from one rank's observations."""
    report = report or build_report(monitor)
    contention = contention or analyze(monitor, report)
    advice = Advice(original=options)
    opt_changes: dict[str, object] = {}
    env_changes: dict[str, str] = {}

    busy = _busy_threads_per_rank(report)

    # 1. oversubscription: the Table 1 -> Table 2 fix
    if contention.by_code("oversubscription") or (
        busy > options.cpus_per_task * options.threads_per_core
    ):
        wanted = max(busy, 2)
        # cap at what one NUMA/L3 region offers so ranks stay local
        per_l3 = monitor.facts.l3_cores
        suggestion_c = min(wanted, per_l3) if per_l3 else wanted
        advice.suggestions.append(
            Suggestion(
                code="request-more-cpus",
                message=(
                    f"{busy} busy threads share "
                    f"{options.cpus_per_task} allocated CPU(s) per rank: "
                    f"request -c{suggestion_c} so each thread gets a core"
                ),
                option_changes=(("cpus_per_task", suggestion_c),),
            )
        )
        opt_changes["cpus_per_task"] = suggestion_c

    # 2. unbound threads: the Table 2 -> Table 3 fix
    proc_cpus = monitor.cpus_allowed
    unbound_busy = [
        row for row in report.lwp_rows
        if row.utime_pct + row.stime_pct >= THRESHOLDS.busy_pct
        and len(row.cpus) > 1 and row.cpus == proc_cpus
    ]
    bind = (options.env.get("OMP_PROC_BIND") or "false").lower()
    if unbound_busy and bind in ("", "false") and len(proc_cpus) > 1:
        advice.suggestions.append(
            Suggestion(
                code="bind-threads",
                message=(
                    f"{len(unbound_busy)} busy threads are unbound within "
                    f"[{proc_cpus.to_list()}]: set OMP_PROC_BIND=spread "
                    f"OMP_PLACES=cores to pin one per core and stop "
                    f"migrations"
                ),
                env_changes=(("OMP_PROC_BIND", "spread"),
                             ("OMP_PLACES", "cores")),
            )
        )
        env_changes.update(OMP_PROC_BIND="spread", OMP_PLACES="cores")

    # 3. GPU locality: the Figure 2 fix
    if contention.by_code("gpu-locality") and options.gpu_bind != "closest":
        advice.suggestions.append(
            Suggestion(
                code="gpu-bind-closest",
                message=(
                    "a rank drives a GPU outside its NUMA domain: add "
                    "--gpu-bind=closest so each rank gets a local device"
                ),
                option_changes=(("gpu_bind", "closest"),),
            )
        )
        opt_changes["gpu_bind"] = "closest"

    # 4. undersubscription: allocated cores doing nothing
    under = contention.by_code("undersubscription")
    if under and busy < options.cpus_per_task:
        advice.suggestions.append(
            Suggestion(
                code="trim-allocation",
                message=(
                    f"only {busy} of {options.cpus_per_task} allocated "
                    f"CPUs per rank do work: either lower -c or raise "
                    f"OMP_NUM_THREADS to use what you asked for"
                ),
            )
        )

    # 5. memory pressure: spread ranks out
    if contention.by_code("memory-pressure") or contention.by_code("oom"):
        advice.suggestions.append(
            Suggestion(
                code="reduce-memory-per-node",
                message=(
                    "node memory was (nearly) exhausted: reduce ranks per "
                    "node or request more nodes"
                ),
            )
        )

    if advice.suggestions:
        new_env = dict(options.env)
        new_env.update(env_changes)
        advice.suggested = replace(options, env=new_env, **opt_changes)
    return advice
