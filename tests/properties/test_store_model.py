"""Model-based test of ``SampleStore``: retention, brackets, rollback.

A hypothesis state machine drives one store per retention mode through
``begin`` / ``add_*_row`` / ``rollback`` / ``release`` / ``commit`` in
any order (``commit`` only between brackets, where a period closes)
and compares it, after every step, with a plain-list model
that keeps each series' whole history and derives what the retention
policy must have kept.  What a store shows *inside* an open bracket is
not part of its contract (rows may be applied or merely staged), so the
comparison runs whenever no bracket is open — in particular right after
every ``rollback``, which must leave the store exactly as ``begin``
found it.
"""

import copy

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.collect import SampleStore
from repro.core.records import (
    GPU_COLUMNS,
    HWT_COLUMNS,
    LWP_COLUMNS,
    MEM_COLUMNS,
)
from repro.errors import MonitorError
from repro.topology import CpuSet

MODES = (
    {"keep_series": True},
    {"max_rows": 3},
    {"keep_series": False, "summary_rows": 1},
    {"keep_series": False, "summary_rows": 2},
)
WIDTH = {
    "lwp": len(LWP_COLUMNS),
    "hwt": len(HWT_COLUMNS),
    "gpu": len(GPU_COLUMNS),
    "mem": len(MEM_COLUMNS),
}
values = st.floats(-1e6, 1e6, allow_nan=False)


class StoreMachine(RuleBasedStateMachine):
    @initialize(mode=st.sampled_from(MODES))
    def setup(self, mode):
        self.mode = mode
        self.store = SampleStore(**mode)
        #: (family, key) -> every row ever kept by a release / direct add
        self.history = {}
        self.names = {}
        self.affinity = {}
        #: (history, names, affinity) as of begin(); None outside a bracket
        self.saved = None
        #: entries added inside the open bracket / applied since the last
        #: commit / sealed by it
        self.bracketed = []
        self.pending = []
        self.sealed = []
        self.tick = 0.0

    # -- the model -------------------------------------------------------
    def _kept(self, rows):
        """(retained rows, appended, dropped) under this store's mode."""
        n = len(rows)
        if self.mode.get("keep_series", True):
            cap = self.mode.get("max_rows")
            kept = rows if cap is None else rows[-cap:]
            return kept, n, n - len(kept)
        k = self.mode["summary_rows"]
        if n <= k:
            return rows, n, 0
        return rows[: k - 1] + rows[-1:], k, 0

    def _add(self, family, key, value, name=None, affinity=None):
        self.tick += 1.0
        row = (self.tick,) + (value,) * (WIDTH[family] - 1)
        self.history.setdefault((family, key), []).append(row)
        if name is not None:
            self.names[key] = name
        if affinity is not None:
            self.affinity[key] = affinity
        entry = (family, key, row, name, affinity)
        if self.saved is None:
            self.pending.append(entry)
        else:
            self.bracketed.append(entry)
        return row

    # -- rules -----------------------------------------------------------
    @rule()
    def begin(self):
        if self.saved is not None:
            with pytest.raises(MonitorError):
                self.store.begin()
            return
        self.store.begin()
        self.saved = copy.deepcopy((self.history, self.names, self.affinity))
        self.bracketed = []

    @rule()
    def release(self):
        if self.saved is None:
            with pytest.raises(MonitorError):
                self.store.release()
            return
        self.store.release()
        self.saved = None
        self.pending.extend(self.bracketed)

    @rule()
    def rollback(self):
        if self.saved is None:
            with pytest.raises(MonitorError):
                self.store.rollback()
            return
        assert self.store.rollback() == len(self.bracketed)
        self.history, self.names, self.affinity = self.saved
        self.saved = None

    @precondition(lambda self: self.saved is None)  # a period closes
    @rule()                                         # between collectors
    def commit(self):
        self.store.commit(self.tick, [])
        assert self.store.prev_tick == self.tick
        self.sealed, self.pending = self.pending, []

    @rule(
        tid=st.integers(1, 4),
        value=values,
        name=st.none() | st.sampled_from(["main", "worker", "omp"]),
        cpus=st.none() | st.frozensets(st.integers(0, 7), min_size=1),
    )
    def add_lwp(self, tid, value, name, cpus):
        affinity = None if cpus is None else CpuSet(cpus)
        row = self._add("lwp", tid, value, name, affinity)
        self.store.add_lwp_row(tid, row, name=name, affinity=affinity)

    @rule(cpu=st.integers(0, 2), value=values)
    def add_hwt(self, cpu, value):
        self.store.add_hwt_row(cpu, self._add("hwt", cpu, value))

    @rule(index=st.integers(0, 1), value=values)
    def add_gpu(self, index, value):
        self.store.add_gpu_row(index, self._add("gpu", index, value))

    @rule(value=values)
    def add_mem(self, value):
        self.store.add_mem_row(self._add("mem", 0, value))

    # -- the comparison --------------------------------------------------
    @invariant()
    def store_matches_model(self):
        if not hasattr(self, "store") or self.saved is not None:
            return
        store = self.store
        series = {("mem", 0): store.mem_series}
        for family in ("lwp", "hwt", "gpu"):
            for key, buf in getattr(store, family + "_series").items():
                series[(family, key)] = buf
        expected = dict(self.history)
        expected.setdefault(("mem", 0), [])
        assert set(series) == set(expected)
        for ident, rows in expected.items():
            kept, appended, dropped = self._kept(rows)
            buf = series[ident]
            assert buf.array.tolist() == [list(r) for r in kept], ident
            assert (buf.appended, buf.dropped) == (appended, dropped), ident
        assert store.lwp_names == self.names
        assert store.lwp_affinity == self.affinity

    @invariant()
    def period_is_what_was_released_since_the_last_commit(self):
        if not hasattr(self, "store"):
            return
        for family in ("lwp", "hwt", "gpu", "mem"):
            block = getattr(self.store.period, family)
            got = list(zip(block.keys, block.rows, block.names,
                           block.affinities))
            want = [e[1:] for e in self.sealed if e[0] == family]
            assert got == want, family


StoreMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestStoreModel = StoreMachine.TestCase
