"""Shared builders for the online-detection tests.

The detector is a pure function of committed :class:`SampleStore`
state, so every test here drives a bare store directly — no kernel,
no collectors — and calls ``observe`` per simulated period.
"""

import pytest

from repro.collect import SampleStore
from repro.core.records import (
    GPU_COLUMNS,
    LWP_COLUMNS,
    MEM_COLUMNS,
    STATE_CODES,
)
from repro.detect import OnlineDetector, TopologyFacts
from repro.topology import CpuSet

HZ = 100.0
#: one sampling period, in jiffies
PERIOD = 10.0

_LWP_IDX = {name: i for i, name in enumerate(LWP_COLUMNS)}
_MEM_IDX = {name: i for i, name in enumerate(MEM_COLUMNS)}
_GPU_IDX = {name: i for i, name in enumerate(GPU_COLUMNS)}


def lwp_row(tick, *, state="R", utime=0.0, stime=0.0, nv_ctx=0.0):
    row = [0.0] * len(LWP_COLUMNS)
    row[_LWP_IDX["tick"]] = tick
    row[_LWP_IDX["state"]] = float(STATE_CODES[state])
    row[_LWP_IDX["utime"]] = utime
    row[_LWP_IDX["stime"]] = stime
    row[_LWP_IDX["nv_ctx"]] = nv_ctx
    return tuple(row)


def mem_row(tick, *, total=16_000_000.0, available=8_000_000.0,
            rss=100_000.0, io_read=0.0, io_write=0.0):
    row = [0.0] * len(MEM_COLUMNS)
    row[_MEM_IDX["tick"]] = tick
    row[_MEM_IDX["mem_total_kib"]] = total
    row[_MEM_IDX["mem_free_kib"]] = available
    row[_MEM_IDX["mem_available_kib"]] = available
    row[_MEM_IDX["rss_kib"]] = rss
    row[_MEM_IDX["io_read_kib"]] = io_read
    row[_MEM_IDX["io_write_kib"]] = io_write
    return tuple(row)


def gpu_row(tick, *, temperature=40.0, busy=0.0, vram=0.0):
    row = [0.0] * len(GPU_COLUMNS)
    row[_GPU_IDX["tick"]] = tick
    row[_GPU_IDX["temperature_c"]] = temperature
    row[_GPU_IDX["busy_percent"]] = busy
    row[_GPU_IDX["used_vram_bytes"]] = vram
    return tuple(row)


def node_facts(cpus=16, **facts):
    """The detector's topology facts for a node of ``cpus`` CPUs."""
    return TopologyFacts(node_cpus=frozenset(range(cpus)), **facts)


class StoreDriver:
    """Feed synthetic committed periods to a store + detector pair."""

    def __init__(self, detector: OnlineDetector):
        self.detector = detector
        self.store = SampleStore()
        # mirror the engine contract: the ledger is published on the
        # store so journal snapshots and reports can see it
        self.store.alerts = detector.alerts
        self.tick = 0.0
        self.fired = []

    def period(self, *, lwps=(), mem=None, gpus=()):
        """One committed period; returns the findings it fired.

        ``lwps`` is an iterable of ``(tid, row_kwargs, affinity)``;
        ``mem`` is ``mem_row`` kwargs; ``gpus`` of ``(index, kwargs)``.
        """
        self.tick += PERIOD
        t = self.tick
        for tid, kwargs, affinity in lwps:
            self.store.add_lwp_row(
                tid, lwp_row(t, **kwargs),
                name=f"lwp{tid}",
                affinity=CpuSet(affinity) if affinity is not None else None,
            )
        if mem is not None:
            self.store.add_mem_row(mem_row(t, **mem))
        for index, kwargs in gpus:
            self.store.add_gpu_row(index, gpu_row(t, **kwargs))
        self.store.commit(t, [])
        findings = self.detector.observe(self.store, t)
        self.fired.extend(findings)
        return findings


@pytest.fixture
def driver():
    def make(**kwargs):
        kwargs.setdefault("hz", HZ)
        kwargs.setdefault("window", 8)
        kwargs.setdefault("facts", node_facts())
        return StoreDriver(OnlineDetector(**kwargs))

    return make
