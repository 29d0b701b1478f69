"""Live-monitor log export round-trip."""

import pathlib
import time

import pytest

from repro.analysis import parse_log
from repro.core import ZeroSumConfig, render_log
from repro.live import LiveZeroSum

needs_proc = pytest.mark.skipif(
    not pathlib.Path("/proc/self/stat").exists(), reason="needs Linux /proc"
)


@needs_proc
class TestLiveLog:
    @pytest.fixture
    def monitor(self):
        zs = LiveZeroSum(ZeroSumConfig(period_seconds=0.05))
        zs.start()
        deadline = time.monotonic() + 0.3
        x = 0
        while time.monotonic() < deadline:
            x += sum(range(200))
        zs.stop()
        return zs

    def test_log_written(self, monitor):
        name, doc = render_log(monitor)
        assert name == f"zerosum.live.{monitor.pid}.log"
        assert "LWP (thread) Summary:" in doc
        assert "== LWP samples (CSV) ==" in doc

    def test_log_parses_back(self, monitor):
        """The offline parser works on live logs too."""
        _, log = render_log(monitor)
        parsed = parse_log(log)
        assert parsed.lwp is not None
        assert monitor.pid in parsed.lwp.column("tid").astype(int)
        assert parsed.record["record"]["duration_seconds"] == monitor.duration_seconds

    def test_memory_section_present(self, monitor):
        _, log = render_log(monitor)
        parsed = parse_log(log)
        assert parsed.memory is not None
        assert parsed.memory.column("mem_total_kib")[0] > 0
