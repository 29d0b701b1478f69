"""Live monitoring of the real host through /proc (Linux only)."""

from repro.live.monitor import LiveZeroSum
from repro.live.watchdog import SamplerWatchdog, StallEvent

__all__ = ["LiveZeroSum", "SamplerWatchdog", "StallEvent"]
