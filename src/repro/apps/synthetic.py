"""Failure-injection workloads: the monitor's edge paths.

A deadlocking app (for the §3.3 progress detector), an OOM-driving app
(for the §3.5 memory contention check, and, in small chunks, the slow
leak the online detector's ``mem-leak-oom`` precursor warns of) and a
crashing app (for the abnormal-exit backtrace handler).
``examples/failure_diagnosis.py`` runs all three.
"""

from __future__ import annotations

from repro.kernel.directives import Alloc, Compute, Wait
from repro.kernel.events import Event
from repro.kernel.lwp import Behavior
from repro.launch.job import RankContext

__all__ = ["deadlock_app", "oom_app", "crash_app"]


def deadlock_app(deadlock_after_jiffies: float = 50.0):
    """Computes for a while, then blocks forever on an event nobody
    sets — the classic lost-message / missing-partner hang."""

    def app(ctx: RankContext) -> Behavior:
        def main() -> Behavior:
            yield Compute(deadlock_after_jiffies, user_frac=0.95)
            never = Event(name="never-signalled")
            yield Wait(never)

        return main()

    return app


def oom_app(chunk_bytes: int = 16 * 1024**3, chunks: int = 64):
    """Allocates until the node runs out of memory."""

    def app(ctx: RankContext) -> Behavior:
        def main() -> Behavior:
            for _ in range(chunks):
                yield Alloc(chunk_bytes)
                yield Compute(2.0, user_frac=0.5)

        return main()

    return app


def crash_app(crash_after_jiffies: float = 30.0):
    """Raises mid-run: the simulated segmentation violation."""

    def app(ctx: RankContext) -> Behavior:
        def main() -> Behavior:
            yield Compute(crash_after_jiffies, user_frac=0.95)
            raise RuntimeError("simulated segmentation fault (SIGSEGV)")

        return main()

    return app
