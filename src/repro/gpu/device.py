"""Simulated GPU device (one MI250X GCD, A100, ...).

The device executes offloaded kernels from a FIFO queue, one at a time,
and integrates a small physical model so that the sensors ZeroSum reads
behave like the real thing:

* **DVFS**: the graphics clock ramps between ``min_clock`` and
  ``max_clock`` with utilization;
* **power** follows clock and busyness between ``idle_power`` and
  ``max_power``;
* **temperature** is a first-order lag toward a power-dependent target;
* **VRAM/GTT** track explicit device allocations by the host threads;
* **busy %** is derived from busy-jiffy deltas between sensor reads,
  exactly how SMI tools compute it.

Thread interaction happens through the kernel simulator: submitting a
kernel returns an :class:`~repro.kernel.events.Event` the calling LWP
can block on; completion sets the event.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.errors import GpuError
from repro.kernel.events import Event
from repro.topology.objects import GpuInfo

if TYPE_CHECKING:
    from repro.kernel.scheduler import SimKernel

__all__ = ["KernelRequest", "GpuDevice"]


@dataclass
class KernelRequest:
    """One offloaded kernel: duration plus activity characteristics."""

    jiffies: float
    #: fraction of cycles hitting the memory controller (0..1)
    memory_intensity: float = 0.1
    name: str = "kernel"
    done: Event = field(default_factory=lambda: Event("gpu-kernel-done"))
    remaining: float = field(init=False)
    submitted_tick: int = field(default=0)

    def __post_init__(self) -> None:
        if self.jiffies <= 0:
            raise GpuError("kernel duration must be positive")
        if not 0.0 <= self.memory_intensity <= 1.0:
            raise GpuError("memory_intensity must be in [0, 1]")
        self.remaining = float(self.jiffies)


class GpuDevice:
    """One simulated accelerator device."""

    def __init__(
        self,
        info: GpuInfo,
        min_clock_mhz: float = 800.0,
        max_clock_mhz: float = 1700.0,
        soc_clock_mhz: float = 1090.0,
        idle_power_w: float = 90.0,
        max_power_w: float = 140.0,
        idle_temp_c: float = 35.0,
        temp_per_watt: float = 0.09,
        seed: int = 0,
    ):
        self.info = info
        self.min_clock_mhz = min_clock_mhz
        self.max_clock_mhz = max_clock_mhz
        self.soc_clock_mhz = soc_clock_mhz
        self.idle_power_w = idle_power_w
        self.max_power_w = max_power_w
        self.idle_temp_c = idle_temp_c
        self.temp_per_watt = temp_per_watt
        self._rng = np.random.default_rng((seed, info.physical_index))

        self.queue: deque[KernelRequest] = deque()
        self.active: Optional[KernelRequest] = None

        # cumulative counters
        self.busy_jiffies: float = 0.0
        self.total_jiffies: float = 0.0
        self.energy_j: float = 0.0
        self.gfx_activity: float = 0.0
        self.memory_activity: float = 0.0
        self.kernels_completed: int = 0

        # memory
        self.vram_used: int = 15044608  # runtime baseline, as in Listing 2
        self.gtt_used: int = 11624448
        self.vram_peak: int = self.vram_used

        # instantaneous sensors
        self.clock_gfx_mhz: float = min_clock_mhz
        self.power_w: float = idle_power_w
        self.temperature_c: float = idle_temp_c

        #: the idle sensor recurrence has converged: further idle ticks
        #: change only total_jiffies and energy (constant increments),
        #: so they take a two-operation fast path
        self._idle_steady: bool = False

    # -- host-side API ------------------------------------------------------
    def submit(self, request: KernelRequest, tick: int = 0) -> Event:
        """Enqueue a kernel; the returned event fires on completion."""
        request.submitted_tick = tick
        self.queue.append(request)
        return request.done

    def alloc_vram(self, nbytes: int) -> None:
        """Reserve device memory; raises GpuError when exhausted."""
        if nbytes < 0:
            raise GpuError("allocation must be >= 0")
        if self.vram_used + nbytes > self.info.memory_bytes:
            raise GpuError(
                f"GPU {self.info.physical_index} out of memory: "
                f"{self.vram_used + nbytes} > {self.info.memory_bytes}"
            )
        self.vram_used += nbytes
        self.vram_peak = max(self.vram_peak, self.vram_used)

    def free_vram(self, nbytes: int) -> None:
        """Return device memory."""
        if nbytes < 0:
            raise GpuError("free must be >= 0")
        self.vram_used = max(0, self.vram_used - nbytes)

    # -- simulation ----------------------------------------------------------
    def tick(self, kernel: "SimKernel") -> None:
        """Advance one jiffy of device time."""
        active = self.active
        if active is None:
            if not self.queue:
                if self._idle_steady:
                    # _advance_idle(1) at the fixed point, inlined: the
                    # call would quadruple the cost of a stepped idle tick
                    self.total_jiffies += 1.0
                    self.energy_j += self.power_w * 0.01
                else:
                    self._advance_idle(1)
                return
            active = self.active = self.queue.popleft()
        self._advance_busy(1)
        if active.remaining <= 0:
            self.kernels_completed += 1
            active.done.set(kernel)
            self.active = None

    def window(self, limit: int) -> int:
        """Ticks (at most ``limit``) this device can take in one
        :meth:`advance`: none while a queued kernel waits to start, up to
        (not including) the active kernel's completion tick, and any
        number while idle.

        The active kernel loses exactly ``1.0`` per tick, and while its
        remaining work exceeds one jiffy that subtraction is exact, so it
        completes on tick ``ceil(remaining)``.
        """
        active = self.active
        if active is None:
            return 0 if self.queue else limit
        return min(limit, math.ceil(active.remaining) - 1)

    def advance(self, ticks: int) -> None:
        """Advance ``ticks`` jiffies in which no kernel starts or ends.

        Bit-identical to calling :meth:`tick` that many times: a tick
        is a one-jiffy call of the same helpers, whose DVFS ramp, power,
        energy and thermal lag stay sequential, and a busy device draws
        its power noise in one ``normal(size=ticks)`` call, which
        returns exactly the values of ``ticks`` scalar draws.  Callers
        keep ``ticks`` within :meth:`window`.
        """
        if ticks > self.window(ticks):
            raise GpuError("advance across a kernel start or completion")
        if self.active is None:
            self._advance_idle(ticks)
        else:
            self._advance_busy(ticks)

    def _advance_idle(self, ticks: int) -> None:
        """``ticks`` jiffies with no kernel queued or active."""
        remaining = ticks
        if not self._idle_steady:
            min_clock = self.min_clock_mhz
            idle_power = self.idle_power_w
            max_power = self.max_power_w
            power_span = max_power - idle_power
            clock_span = self.max_clock_mhz - min_clock
            idle_temp = self.idle_temp_c
            temp_per_watt = self.temp_per_watt
            clock = self.clock_gfx_mhz
            power = self.power_w
            temp = self.temperature_c
            energy = self.energy_j
            clock_fixed = False
            while remaining > 0 and not clock_fixed:
                remaining -= 1
                # DVFS: the clock decays toward its idle level
                new_clock = clock + 0.5 * (min_clock - clock)
                new_power = (
                    idle_power + (new_clock - min_clock) / clock_span * power_span
                )
                # same selection np.clip performs, without the ufunc overhead
                if new_power < idle_power:
                    new_power = idle_power
                elif new_power > max_power:
                    new_power = max_power
                energy += new_power * 0.01  # one jiffy = 10 ms
                # first-order thermal response
                new_temp = temp + 0.02 * (
                    idle_temp + temp_per_watt * (new_power - idle_power) - temp
                )
                clock_fixed = new_clock == clock
                if clock_fixed and new_power == power and new_temp == temp:
                    # a deterministic recurrence that reproduced its
                    # inputs has reached its fixed point
                    self._idle_steady = True
                clock, power, temp = new_clock, new_power, new_temp
            if clock_fixed and not self._idle_steady:
                # the ramp is a function of the clock alone: clock and
                # power stay fixed, only the thermal lag still moves,
                # toward a fixed target
                target = idle_temp + temp_per_watt * (power - idle_power)
                increment = power * 0.01
                while remaining > 0:
                    new_temp = temp + 0.02 * (target - temp)
                    if new_temp == temp:
                        self._idle_steady = True
                        break
                    remaining -= 1
                    energy += increment
                    temp = new_temp
            self.clock_gfx_mhz = clock
            self.power_w = power
            self.temperature_c = temp
            self.energy_j = energy
        if remaining:
            # at the fixed point only energy moves, by a constant; the
            # additions stay sequential
            increment = self.power_w * 0.01
            energy = self.energy_j
            for _ in range(remaining):
                energy += increment
            self.energy_j = energy
        # total_jiffies only ever holds whole jiffies: its k additions
        # of 1.0 are one exact += k
        self.total_jiffies += ticks

    def _advance_busy(self, ticks: int) -> None:
        """``ticks`` jiffies of the active kernel, the last of which may
        complete it (:meth:`tick` checks)."""
        self._idle_steady = False
        active = self.active
        min_clock = self.min_clock_mhz
        max_clock = self.max_clock_mhz
        idle_power = self.idle_power_w
        max_power = self.max_power_w
        power_span = max_power - idle_power
        clock_span = max_clock - min_clock
        idle_temp = self.idle_temp_c
        temp_per_watt = self.temp_per_watt
        memory_step = active.memory_intensity * 24.0
        clock = self.clock_gfx_mhz
        gfx = self.gfx_activity
        memory = self.memory_activity
        energy = self.energy_j
        temp = self.temperature_c
        remaining = active.remaining
        power = self.power_w
        if ticks == 1:
            # a size-1 array draw costs half again a scalar one
            noises = (float(self._rng.normal(0.0, 0.5)),)
        else:
            noises = self._rng.normal(0.0, 0.5, size=ticks).tolist()
        for noise in noises:
            remaining -= 1.0
            gfx += clock * 0.36
            memory += memory_step
            # DVFS: the clock ramps toward its busy level
            clock += 0.5 * (max_clock - clock)
            # power tracks the clock, with sensor noise
            power = idle_power + (clock - min_clock) / clock_span * power_span + noise
            if power < idle_power:
                power = idle_power
            elif power > max_power:
                power = max_power
            energy += power * 0.01
            temp += 0.02 * (idle_temp + temp_per_watt * (power - idle_power) - temp)
        active.remaining = remaining
        self.total_jiffies += ticks
        self.busy_jiffies += ticks
        self.gfx_activity = gfx
        self.memory_activity = memory
        self.clock_gfx_mhz = clock
        self.power_w = power
        self.energy_j = energy
        self.temperature_c = temp

    # -- derived sensors ------------------------------------------------------
    @property
    def voltage_mv(self) -> float:
        """Core voltage scales with the graphics clock (806-906 mV)."""
        frac = (self.clock_gfx_mhz - self.min_clock_mhz) / (
            self.max_clock_mhz - self.min_clock_mhz
        )
        return 806.0 + frac * 100.0

    @property
    def pending_kernels(self) -> int:
        return len(self.queue) + (1 if self.active is not None else 0)

    def __repr__(self) -> str:
        return (
            f"<GpuDevice {self.info.name} #{self.info.physical_index} "
            f"busy={self.active is not None} queue={len(self.queue)}>"
        )
