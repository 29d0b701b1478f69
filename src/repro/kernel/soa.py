"""Vectorized per-tick accounting for steadily computing CPUs.

The scheduler's slow path spends ~10 Python attribute operations per
busy CPU per tick (LWP user/system jiffies, the per-CPU jiffy
histogram, HWT user/system counters, directive countdown, timeslice
decrement).  On a saturated node that bookkeeping — not the scheduling
decisions — dominates the tick.  This module batches it: CPUs whose
occupant is mid-``Compute`` with an empty runqueue are *enrolled* into
per-node structure-of-arrays columns, and the whole cohort advances one
tick in a handful of element-wise array operations.

Bit-identity contract
---------------------

The batch path must be indistinguishable from the slow path, counter
for counter, because the determinism suites (fast-forward, sharded
bit-identity, journal recovery) pin exact float equality.  Two rules
make that hold:

* **per-tick element-wise adds, never deferred multiplies** — the
  vector op applies exactly the IEEE-754 additions the slow path would
  (``utime += user_frac`` each tick), so every element's value is
  bit-equal after any number of ticks.  Accumulating ``k`` ticks and
  flushing ``k * user_frac`` would round differently and diverge.
* **flush is pure assignment** — enrolling copies the object fields
  into the arrays, evicting copies them back; no arithmetic happens at
  the boundary.

The object model stays the source of truth for everything else:
reading an enrolled counter through its property (``LWP.utime``,
``HWTState.user``) evicts the member first, so collectors and reports
never observe a stale view.  Any scheduling interaction — a wakeup
enqueued on the CPU, a kill or affinity move clearing ``current`` —
also evicts, via hooks in :class:`~repro.kernel.hwt.HWTState`.

Evictions that happen *during* the scheduling pass replicate the
ascending-CPU visit order of the slow path: a CPU at or behind the
pass cursor already "had its turn" this tick, so the eviction applies
the one pure accounting tick the batch op would have delivered; a CPU
ahead of the cursor is flushed untouched and pushed onto the node's
activation watch heap so the pass schedules it at its usual position.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

import numpy as _np

if TYPE_CHECKING:
    from repro.kernel.directives import Compute
    from repro.kernel.hwt import HWTState
    from repro.kernel.lwp import LWP
    from repro.kernel.node import SimNode

__all__ = ["NodeAccounting"]

#: float64 columns, one slot per enrolled CPU
_F64_COLUMNS = (
    "_uf",   # directive.user_frac (constant per enrollment)
    "_sf",   # 1.0 - user_frac, as the slow path computes it each tick
    "_rem",  # directive.remaining
    "_lut",  # lwp.utime
    "_lst",  # lwp.stime
    "_cpj",  # lwp.cpu_jiffies[cpu]
    "_hus",  # hwt.user
    "_hsy",  # hwt.system
)


class NodeAccounting:
    """Batched jiffy accounting for one node's enrolled CPUs."""

    __slots__ = (
        "node",
        "exhaust_below",
        "n",
        "_cap",
        "_lwps",
        "_hwts",
        "_dirs",
        "pending",
        "_slc",
    ) + _F64_COLUMNS

    def __init__(self, node: "SimNode", exhaust_below: float):
        self.node = node
        #: members whose remaining work drops to this bound leave the
        #: batch path — the final partial/boundary tick needs the slow
        #: path's advance/block handling
        self.exhaust_below = exhaust_below
        self.n = 0
        self._cap = 0
        self._lwps: list = []
        self._hwts: list = []
        self._dirs: list = []
        #: (hwt, lwp, directive) candidates recorded by the scheduling
        #: pass, enrolled after the batch tick so a member never takes
        #: both the slow-path and the batched tick in the same jiffy
        self.pending: list = []
        for name in _F64_COLUMNS:
            setattr(self, name, None)
        self._slc = None  # timeslice countdown (integer jiffies)
        self._grow(16)

    # -- storage --------------------------------------------------------
    def _grow(self, cap: int) -> None:
        n = self.n
        for name in _F64_COLUMNS:
            old = getattr(self, name)
            arr = _np.zeros(cap, dtype=_np.float64)
            if old is not None and n:
                arr[:n] = old[:n]
            setattr(self, name, arr)
        old = self._slc
        slc = _np.zeros(cap, dtype=_np.int64)
        if old is not None and n:
            slc[:n] = old[:n]
        self._slc = slc
        self._lwps.extend([None] * (cap - len(self._lwps)))
        self._hwts.extend([None] * (cap - len(self._hwts)))
        self._dirs.extend([None] * (cap - len(self._dirs)))
        self._cap = cap

    # -- membership -----------------------------------------------------
    def enroll(self, hwt: "HWTState", lwp: "LWP", directive: "Compute") -> None:
        """Copy a (CPU, thread, directive) triple into the arrays."""
        i = self.n
        if i == self._cap:
            self._grow(self._cap * 2)
        uf = directive.user_frac
        self._uf[i] = uf
        self._sf[i] = 1.0 - uf
        self._rem[i] = directive.remaining
        self._lut[i] = lwp._utime
        self._lst[i] = lwp._stime
        cpu = hwt.os_index
        self._cpj[i] = lwp._cpu_jiffies.get(cpu, 0.0)
        self._hus[i] = hwt._user
        self._hsy[i] = hwt._system
        self._slc[i] = lwp.slice_left
        self._lwps[i] = lwp
        self._hwts[i] = hwt
        self._dirs[i] = directive
        lwp._acct = self
        lwp._acct_slot = i
        hwt._acct = self
        hwt._acct_slot = i
        self.n = i + 1
        self.node.scan_cpus.discard(cpu)

    def process_pending(self) -> None:
        """Enroll this tick's candidates, re-validating eligibility.

        A candidate recorded early in the pass may have been woken
        onto, killed, or re-directed since; anything no longer in the
        steady state simply stays on the slow path.
        """
        for hwt, lwp, directive in self.pending:
            if (
                hwt._acct is None
                and hwt._current is lwp
                and not hwt.runqueue
                and not hwt.preempt_pending
                and lwp.current_directive is directive
                and directive.remaining > self.exhaust_below
            ):
                self.enroll(hwt, lwp, directive)
        self.pending.clear()

    # -- the batched tick -----------------------------------------------
    def tick(self) -> None:
        """Advance every enrolled CPU by one pure accounting tick."""
        n = self.n
        if not n:
            return
        uf = self._uf[:n]
        sf = self._sf[:n]
        self._lut[:n] += uf
        self._lst[:n] += sf
        self._hus[:n] += uf
        self._hsy[:n] += sf
        self._cpj[:n] += 1.0
        rem = self._rem[:n]
        rem -= 1.0
        self._slc[:n] -= 1
        done = rem <= self.exhaust_below
        if done.any():
            for i in _np.nonzero(done)[0][::-1].tolist():
                self.evict_slot(int(i))

    # -- eviction -------------------------------------------------------
    def evict_hwt(self, hwt: "HWTState") -> None:
        """External interaction with an enrolled CPU: flush it out."""
        self._evict_external(hwt._acct_slot)

    def evict_lwp(self, lwp: "LWP") -> None:
        """External read/write of an enrolled thread: flush it out."""
        self._evict_external(lwp._acct_slot)

    def _evict_external(self, i: int) -> None:
        # replicate the slow path's ascending visit order: at or behind
        # the pass cursor, this CPU's pure tick already "happened"
        cursor = self.node._pass_cursor
        extra = cursor is not None and self._hwts[i].os_index <= cursor
        self.evict_slot(i, extra_tick=extra)

    def evict_slot(self, i: int, extra_tick: bool = False) -> None:
        """Copy slot ``i`` back to its objects and swap-remove it."""
        lwp = self._lwps[i]
        hwt = self._hwts[i]
        directive = self._dirs[i]
        lut = self._lut[i]
        lst = self._lst[i]
        cpj = self._cpj[i]
        hus = self._hus[i]
        hsy = self._hsy[i]
        rem = self._rem[i]
        slc = self._slc[i]
        if extra_tick:
            # the identical additions tick() would have applied
            uf = self._uf[i]
            sf = self._sf[i]
            lut = lut + uf
            lst = lst + sf
            cpj = cpj + 1.0
            hus = hus + uf
            hsy = hsy + sf
            rem = rem - 1.0
            slc = slc - 1
        cpu = hwt.os_index
        lwp._utime = float(lut)
        lwp._stime = float(lst)
        lwp._cpu_jiffies[cpu] = float(cpj)
        lwp.slice_left = int(slc)
        hwt._user = float(hus)
        hwt._system = float(hsy)
        directive.remaining = float(rem)
        lwp._acct = None
        hwt._acct = None

        last = self.n - 1
        if i != last:
            for name in _F64_COLUMNS:
                col = getattr(self, name)
                col[i] = col[last]
            self._slc[i] = self._slc[last]
            moved_lwp = self._lwps[last]
            moved_hwt = self._hwts[last]
            self._lwps[i] = moved_lwp
            self._hwts[i] = moved_hwt
            self._dirs[i] = self._dirs[last]
            moved_lwp._acct_slot = i
            moved_hwt._acct_slot = i
        self._lwps[last] = None
        self._hwts[last] = None
        self._dirs[last] = None
        self.n = last

        node = self.node
        node.scan_cpus.add(cpu)
        cursor = node._pass_cursor
        if cursor is not None and cpu > cursor:
            watch = node._activation_watch
            if watch is not None:
                heapq.heappush(watch, cpu)
