"""Shared application plumbing.

Applications are factories ``(RankContext) -> Behavior`` (see
:mod:`repro.launch.job`).  This module holds helpers common to the
workloads: deterministic per-(rank, thread, block) jitter and simple
work-unit math.
"""

from __future__ import annotations

import numpy as np

__all__ = ["jitter_factor"]


def jitter_factor(
    seed: int, rank: int, thread: int, block: int, sigma: float
) -> float:
    """Deterministic multiplicative noise around 1.0.

    Every (seed, rank, thread, block) tuple maps to one factor, so runs
    are reproducible while different seeds give the run-to-run spread
    the Figure 8 overhead statistics need.  Clamped to [0.5, 1.5].
    """
    if sigma <= 0:
        return 1.0
    rng = np.random.default_rng((seed, rank, thread, block))
    # the clamp np.clip would make, without its per-call ufunc set-up
    return min(max(float(rng.normal(1.0, sigma)), 0.5), 1.5)
