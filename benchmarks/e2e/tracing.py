"""Span tracing for the e2e benchmark, installed from the outside.

The traced run wraps calls into each layer's *public* functions from
here — ``src/`` is never edited (in-program telemetry is a later
issue).  Wrappers are installed only for a traced run and restored
afterwards; the untraced runs that produce the end-to-end numbers never
pass through this module's hot path.

A span is ``(name_id, start_ns, end_ns, parent)`` (``parent`` is the
index of the enclosing span, ``-1`` at the root).  Spans stay in memory
during the run — as four parallel lists of ints, which the garbage
collector does not track, so recording them does not trigger extra
collections over the program's heap — and are written out once it is
over.  A layer's *self
time* is its spans' duration minus the part their direct child spans
cover, so self times of all names sum to the root span's duration.

(The file is ``tracing.py`` rather than ``trace.py``: pytest and the
runner put this directory on ``sys.path``, where ``trace`` would shadow
the standard-library module of that name.)
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = ["Tracer", "self_times", "inclusive_times", "install_wrappers"]


def self_times(spans: list, names: list[str]) -> dict[str, float]:
    """Seconds of self time per span name.

    Every span's duration is credited to its own name and debited from
    its parent's, which is "duration minus covered child time" summed
    per name in one pass (spans on one thread nest, so direct children
    never overlap each other).
    """
    out_ns = dict.fromkeys(names, 0)
    for name_id, start, end, parent in spans:
        duration = end - start
        out_ns[names[name_id]] += duration
        if parent >= 0:
            out_ns[names[spans[parent][0]]] -= duration
    return {name: ns / 1e9 for name, ns in out_ns.items()}


def inclusive_times(spans: list, names: list[str]) -> dict[str, float]:
    """Seconds per span name, children included (outermost spans only,
    so a name that nests inside itself is not counted twice)."""
    out_ns = dict.fromkeys(names, 0)
    for name_id, start, end, parent in spans:
        while parent >= 0 and spans[parent][0] != name_id:
            parent = spans[parent][3]
        if parent < 0:
            out_ns[names[name_id]] += end - start
    return {name: ns / 1e9 for name, ns in out_ns.items()}


class Tracer:
    """In-memory span recorder; every method is a no-op when disabled."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name_ids: list[int] = []
        self._starts: list[int] = []
        self._ends: list[int] = []
        self._parents: list[int] = []
        self._stack: list[int] = []
        #: counts taken at the same boundaries as the spans
        self.counters: dict[str, int] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        return name_id

    @contextmanager
    def span(self, name: str):
        """A span around harness-side code (the calls into a layer)."""
        if not self.enabled:
            yield
            return
        stack = self._stack
        index = len(self._starts)
        self._name_ids.append(self._name_id(name))
        self._parents.append(stack[-1] if stack else -1)
        self._ends.append(0)
        self._starts.append(time.perf_counter_ns())
        stack.append(index)
        try:
            yield
        finally:
            self._ends[index] = time.perf_counter_ns()
            stack.pop()

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(counters, args, result)`` runs once the call returned,
        outside the span, to take a count at the same boundary.
        """
        fn = getattr(owner, attr)
        name_id = self._name_id(name)
        name_ids, starts, ends = self._name_ids, self._starts, self._ends
        parents, stack, counters = self._parents, self._stack, self.counters
        now = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            starts.append(now())
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = now()
                stack.pop()
            if after is not None:
                after(counters, args, result)
            return result

        wrapper.__wrapped__ = fn
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every wrapped attribute back."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @property
    def spans(self) -> list[tuple[int, int, int, int]]:
        """Every span recorded so far, in start order."""
        return list(
            zip(self._name_ids, self._starts, self._ends, self._parents)
        )

    def write(self, path: Path, workload: str, repeat: int) -> None:
        """Dump the spans: ``[name_id, start_ns, end_ns, parent]`` rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {
                    "workload": workload,
                    "repeat": repeat,
                    "names": self.names,
                    "fields": ["name_id", "start_ns", "end_ns", "parent"],
                    "spans": self.spans,
                },
                handle,
                separators=(",", ":"),
            )


def _count(key: str, amount):
    """An ``after`` hook adding ``amount(args, result)`` to a counter."""

    def after(counters, args, result):
        counters[key] = counters.get(key, 0) + amount(args, result)

    return after


def install_wrappers(tracer: Tracer) -> None:
    """Wrap each layer's public entry points (see README, layer table).

    Module-level functions are patched where the calling layer looks
    them up (``from x import f`` binds a copy), classes are patched in
    place.  Must run before the workload builds its objects: collectors
    bind the reader's snapshot methods at construction.
    """
    import repro.collect.collectors as collectors
    import repro.core.detect as core_detect
    import repro.core.monitor as core_monitor
    from repro.collect.engine import CollectionEngine
    from repro.collect.journal import JournalWriter
    from repro.collect.reader import RealProc
    from repro.collect.store import SampleStore
    from repro.detect import OnlineDetector
    from repro.kernel.scheduler import SimKernel
    from repro.procfs.filesystem import ProcFS

    wrap = tracer.wrap
    wrap(SimKernel, "run", "kernel.run")
    for attr in ("read", "listdir"):
        wrap(ProcFS, attr, "procfs.read")
    for attr in ("read_tasks_raw", "read_cpu_times_raw"):
        wrap(ProcFS, attr, "procfs.snapshot")
    wrap(RealProc, "read", "collect.reader.read",
         _count("collect.reader.bytes", lambda args, text: len(text)))
    wrap(RealProc, "listdir", "collect.reader.read")
    for module, attrs in (
        (collectors, ("parse_pid_stat", "parse_pid_status", "parse_proc_stat",
                      "parse_meminfo", "parse_pid_io")),
        (core_detect, ("parse_pid_status", "parse_meminfo")),
    ):
        for attr in attrs:
            wrap(module, attr, "procfs.parsers.parse")
    rows = "collect.collectors.rows"
    wrap(collectors.LwpCollector, "collect", "collect.collectors.lwp",
         _count(rows, lambda args, snapshots: len(snapshots)))
    wrap(collectors.HwtCollector, "collect", "collect.collectors.hwt",
         _count(rows, lambda args, _: len(args[0].cpus)))
    wrap(collectors.MemoryCollector, "collect", "collect.collectors.mem",
         _count(rows, lambda args, _: 1))
    wrap(collectors.GpuCollector, "collect", "collect.collectors.gpu",
         _count(rows, lambda args, _: args[0].smi.num_devices()))
    wrap(CollectionEngine, "sample", "collect.engine.sample")
    wrap(CollectionEngine, "commit", "collect.engine.commit")
    wrap(SampleStore, "commit", "collect.store.commit")
    wrap(OnlineDetector, "observe", "detect.observe")
    for attr in ("open", "record_period", "alert", "checkpoint", "close"):
        wrap(JournalWriter, attr, "collect.journal.write")
    wrap(core_monitor.ZeroSum, "__init__", "core.monitor.attach")
    wrap(core_monitor.ZeroSum, "take_sample", "core.monitor.take_sample")
    wrap(core_monitor.ZeroSum, "finalize", "core.monitor.finalize")
    wrap(core_monitor, "detect_configuration", "core.detect.configure")
    wrap(core_detect, "render_lstopo", "topology.lstopo")
