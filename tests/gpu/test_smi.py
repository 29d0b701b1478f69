"""The SMI session: one query surface over every vendor's devices."""

import pytest

from repro.errors import GpuError
from repro.gpu import KernelRequest, RocmSmi
from repro.gpu.metrics import METRIC_LABELS, METRIC_ORDER
from repro.kernel import SimKernel
from repro.topology import (
    aurora_node,
    frontier_node,
    generic_node,
    perlmutter_node,
)


@pytest.fixture
def world():
    kernel = SimKernel(generic_node(cores=1, gpus=2))
    return kernel, kernel.nodes[0].gpus


class TestRocmSmi:
    def test_num_devices(self, world):
        _, devices = world
        assert RocmSmi(devices).num_devices() == 2

    def test_unknown_device(self, world):
        _, devices = world
        with pytest.raises(GpuError):
            RocmSmi(devices).device(9)

    def test_busy_percent_is_delta_based(self, world):
        kernel, devices = world
        smi = RocmSmi(devices)
        smi.sample(0, kernel.now)  # baseline
        devices[0].submit(KernelRequest(jiffies=50))
        for _ in range(100):
            kernel.step()
        s = smi.sample(0, kernel.now)
        assert s.busy_percent == pytest.approx(50.0, abs=3.0)
        # next window is idle
        for _ in range(100):
            kernel.step()
        s2 = smi.sample(0, kernel.now)
        assert s2.busy_percent == pytest.approx(0.0, abs=1.0)

    def test_idle_device_zero_busy(self, world):
        kernel, devices = world
        smi = RocmSmi(devices)
        for _ in range(10):
            kernel.step()
        assert smi.sample(0, kernel.now).busy_percent == 0.0

    def test_sample_covers_all_metrics(self, world):
        kernel, devices = world
        s = RocmSmi(devices).sample(0, 0)
        for metric in METRIC_ORDER:
            assert hasattr(s, metric)
        assert set(METRIC_LABELS) == set(METRIC_ORDER)

    def test_uvd_always_zero(self, world):
        kernel, devices = world
        assert RocmSmi(devices).sample(1, 0).uvd_vcn_activity == 0.0

    @pytest.mark.parametrize(
        "factory", [frontier_node, perlmutter_node, aurora_node]
    )
    def test_every_vendor_samples(self, factory):
        """AMD, NVIDIA and Intel devices answer the one session alike."""
        kernel = SimKernel(factory())
        devices = kernel.nodes[0].gpus[:2]
        smi = RocmSmi(devices)
        assert smi.num_devices() == 2
        devices[0].submit(KernelRequest(jiffies=10))
        smi.sample(0, kernel.now)  # baseline
        for _ in range(20):
            kernel.step()
        assert smi.sample(0, kernel.now).busy_percent > 20.0
        assert smi.device(1) is devices[1]
