"""Simulated GPU devices and the SMI session that samples them."""

from repro.gpu.device import GpuDevice, KernelRequest
from repro.gpu.metrics import METRIC_LABELS, METRIC_ORDER, GpuSample
from repro.gpu.rsmi import RocmSmi

__all__ = [
    "GpuDevice",
    "KernelRequest",
    "GpuSample",
    "METRIC_LABELS",
    "METRIC_ORDER",
    "RocmSmi",
]
