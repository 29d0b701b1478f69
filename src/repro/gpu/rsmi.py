"""The SMI session: one query API over every simulated device.

§3.4: ZeroSum reads GPUs through ROCm SMI, and through NVML or the
SYCL/Level-Zero sysman API on other vendors' hardware.  On real
machines those are three libraries; here every device, whatever its
name, is a :class:`~repro.gpu.device.GpuDevice`, so this one session
stands for all three and returns the one :class:`GpuSample` record
(Listing 2's metric set, which ``GPU_COLUMNS`` stores for every
vendor).  Like the real SMI, *rate* metrics (busy %, average
power/energy) are computed from counter deltas between successive
queries by the same client, so the very first sample of an idle device
reads 0.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import GpuError
from repro.gpu.device import GpuDevice
from repro.gpu.metrics import GpuSample

__all__ = ["RocmSmi"]


class RocmSmi:
    """Stateful SMI session over a list of visible devices."""

    def __init__(self, devices: Sequence[GpuDevice]):
        self._devices = list(devices)
        # per-device counter snapshots from the previous query
        self._prev: dict[int, tuple[float, float, float, float]] = {}

    def num_devices(self) -> int:
        """Number of visible devices in this session."""
        return len(self._devices)

    def device(self, visible_index: int) -> GpuDevice:
        """Device handle by visible index."""
        try:
            return self._devices[visible_index]
        except IndexError:
            raise GpuError(f"no visible device {visible_index}") from None

    def sample(self, visible_index: int, tick: int) -> GpuSample:
        """Read every sensor of one device (one ZeroSum sampling period)."""
        dev = self.device(visible_index)
        prev_total, prev_busy, prev_energy, prev_mem_act = self._prev.get(
            visible_index, (0.0, 0.0, 0.0, 0.0)
        )

        d_total = dev.total_jiffies - prev_total
        d_busy = dev.busy_jiffies - prev_busy
        d_energy = dev.energy_j - prev_energy
        d_mem = dev.memory_activity - prev_mem_act

        busy_pct = 100.0 * d_busy / d_total if d_total > 0 else 0.0
        # memory busy: fraction of the window the memory controller was hot
        mem_busy_pct = min(100.0, 100.0 * d_mem / (24.0 * d_total)) if d_total > 0 else 0.0

        self._prev[visible_index] = (
            dev.total_jiffies,
            dev.busy_jiffies,
            dev.energy_j,
            dev.memory_activity,
        )

        return GpuSample(
            tick=tick,
            clock_gfx_mhz=dev.clock_gfx_mhz,
            clock_soc_mhz=dev.soc_clock_mhz,
            busy_percent=busy_pct,
            energy_avg_j=d_energy,
            gfx_activity=dev.gfx_activity,
            gfx_activity_percent=busy_pct * dev.clock_gfx_mhz / dev.max_clock_mhz,
            memory_activity=dev.memory_activity,
            memory_busy_percent=mem_busy_pct,
            memory_controller_activity=mem_busy_pct * 0.85,
            power_avg_w=dev.power_w,
            temperature_c=dev.temperature_c,
            uvd_vcn_activity=0.0,
            used_gtt_bytes=float(dev.gtt_used),
            used_vram_bytes=float(dev.vram_used),
            used_visible_vram_bytes=float(dev.vram_used),
            voltage_mv=dev.voltage_mv,
        )
