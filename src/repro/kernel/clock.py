"""Virtual kernel clock.

One tick of the simulated kernel equals one jiffy (``1/USER_HZ`` s =
10 ms), so every CPU-time counter in the simulator is already in the
unit that ``/proc`` reports.
"""

from __future__ import annotations

from repro.units import USER_HZ

__all__ = ["Clock"]


class Clock:
    """Monotonic tick counter with second conversions."""

    __slots__ = ("tick", "hz")

    def __init__(self, hz: int = USER_HZ):
        self.tick: int = 0
        self.hz: int = hz

    def advance(self, ticks: int = 1) -> None:
        """Move time forward; refuses to go backwards."""
        if ticks < 0:
            raise ValueError("clock cannot go backwards")
        self.tick += ticks

    @property
    def seconds(self) -> float:
        """Elapsed simulated wall-clock time in seconds."""
        return self.tick / self.hz

    def __repr__(self) -> str:
        return f"Clock(tick={self.tick}, t={self.seconds:.2f}s)"
