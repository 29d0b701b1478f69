"""Live-monitor log export round-trip."""

import pathlib
import time

import pytest

from repro.analysis import parse_log
from repro.core import MemorySink, ZeroSumConfig, write_log
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
        sink = MemorySink()
        name = write_log(monitor, sink)
        assert name == f"zerosum.live.{monitor.pid}.log"
        doc = sink.documents[name]
        assert "LWP (thread) Summary:" in doc
        assert "== LWP samples (CSV) ==" in doc

    def test_log_parses_back(self, monitor):
        """The offline parser works on live logs too."""
        sink = MemorySink()
        name = write_log(monitor, sink)
        parsed = parse_log(sink.documents[name])
        assert parsed.lwp is not None
        assert monitor.pid in parsed.lwp.column("tid").astype(int)
        assert parsed.duration_seconds() > 0

    def test_memory_section_present(self, monitor):
        sink = MemorySink()
        name = write_log(monitor, sink)
        parsed = parse_log(sink.documents[name])
        assert parsed.memory is not None
        assert parsed.memory.column("mem_total_kib")[0] > 0
