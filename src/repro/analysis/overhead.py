"""Overhead statistics (§4.1, Figure 8).

The paper measures ZeroSum's cost by running miniQMC ten times with
and without the tool and comparing the runtime distributions with a
t-test: statistically indistinguishable with one thread per core, a
~0.5 % mean slowdown with two threads per core.  This module provides
the statistical machinery: summary stats, Welch's and Student's
t-tests (via scipy), and a rendered comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MonitorError, ReproError

__all__ = ["DistributionSummary", "OverheadResult", "compare_distributions"]


@dataclass(frozen=True)
class DistributionSummary:
    """Mean/std/extremes of one set of repeated runtimes."""

    label: str
    n: int
    mean: float
    std: float
    minimum: float
    maximum: float

    @classmethod
    def from_samples(cls, label: str, samples) -> "DistributionSummary":
        arr = np.asarray(samples, dtype=np.float64)
        if arr.size < 2:
            raise MonitorError("need at least two runs per distribution")
        return cls(
            label=label,
            n=int(arr.size),
            mean=float(arr.mean()),
            std=float(arr.std(ddof=1)),
            minimum=float(arr.min()),
            maximum=float(arr.max()),
        )

    def render(self) -> str:
        """One-line mean ± std summary."""
        return (
            f"{self.label}: {self.mean:.4f} ± {self.std:.4f} s "
            f"(n={self.n}, min={self.minimum:.4f}, max={self.maximum:.4f})"
        )


@dataclass(frozen=True)
class OverheadResult:
    """Outcome of comparing baseline vs monitored runtimes."""

    baseline: DistributionSummary
    treated: DistributionSummary
    t_statistic: float
    p_value: float
    mean_overhead_seconds: float
    mean_overhead_percent: float

    @property
    def significant(self) -> bool:
        """True if the distributions differ at the 5 % level."""
        return self.p_value < 0.05

    def render(self) -> str:
        """Full comparison: both summaries, delta, t-test verdict."""
        verdict = (
            "distributions differ (monitoring overhead detected)"
            if self.significant
            else "no statistically significant difference"
        )
        return "\n".join(
            [
                self.baseline.render(),
                self.treated.render(),
                f"overhead: {self.mean_overhead_seconds:+.4f} s "
                f"({self.mean_overhead_percent:+.3f} %)",
                f"t-test: t={self.t_statistic:.3f}, p={self.p_value:.4f} "
                f"-> {verdict}",
            ]
        )


def compare_distributions(
    baseline,
    treated,
    labels: tuple[str, str] = ("baseline", "with zerosum"),
    equal_var: bool = False,
) -> OverheadResult:
    """Summarize and t-test two runtime sample sets.

    ``equal_var=False`` (default) is Welch's t-test, which is the safe
    choice when the monitored runs are noisier — exactly what the paper
    observes in Figure 8.
    """
    # the one scipy user in the package: imported here so that loading
    # repro.cli (every `zerosum-sim` invocation) does not pay for it
    try:
        from scipy import stats
    except ModuleNotFoundError as exc:
        raise ReproError(
            "the t-test of compare_distributions needs scipy, an optional "
            "extra: pip install repro[analysis]"
        ) from exc

    base = np.asarray(baseline, dtype=np.float64)
    treat = np.asarray(treated, dtype=np.float64)
    b = DistributionSummary.from_samples(labels[0], base)
    t = DistributionSummary.from_samples(labels[1], treat)
    stat, p = stats.ttest_ind(base, treat, equal_var=equal_var)
    delta = t.mean - b.mean
    return OverheadResult(
        baseline=b,
        treated=t,
        t_statistic=float(stat),
        p_value=float(p),
        mean_overhead_seconds=delta,
        mean_overhead_percent=100.0 * delta / b.mean if b.mean else 0.0,
    )
