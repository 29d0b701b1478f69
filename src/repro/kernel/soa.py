"""Vectorized per-tick accounting for steadily computing CPUs.

The scheduler's slow path spends ~10 Python attribute operations per
busy CPU per tick (LWP user/system jiffies, the per-CPU jiffy
histogram, HWT user/system counters, directive countdown, timeslice
decrement).  On a saturated node that bookkeeping — not the scheduling
decisions — dominates the tick.  This module batches it: CPUs whose
occupant is mid-``Compute`` with an empty runqueue are *enrolled* into
per-node structure-of-arrays columns, and the whole cohort advances one
tick in one element-wise add over its accumulator matrix, or a whole
window of ticks (see ``SimKernel._window``) in one accumulate.

Bit-identity contract
---------------------

The batch path must be indistinguishable from the slow path, counter
for counter, because the determinism suites (window jump, sharded
bit-identity, journal recovery) pin exact float equality.  Two rules
make that hold:

* **k ticks = k sequential adds** — the vector op applies exactly the
  IEEE-754 additions the slow path would (``utime += user_frac`` each
  tick), so every element's value is bit-equal after any number of
  ticks.  A window of ``k`` ticks (:meth:`NodeAccounting.advance`)
  makes the same ``k`` additions in order with ``np.add.accumulate``;
  flushing one ``k * user_frac`` instead would round differently and
  diverge.
* **flush is pure assignment** — enrolling copies the object fields
  into the arrays, evicting copies them back; no arithmetic happens at
  the boundary.

Reads and writes cross the boundary differently:

* **a read goes through** — the ``utime``/``stime`` (``LWP``) and
  ``user``/``system`` (``HWTState``) getters of an enrolled member
  return its array value and leave it enrolled, so a monitor's sample
  never knocks a CPU off the batch path.  During the scheduling pass a
  CPU at or behind the pass cursor already "had its turn" this tick in
  the slow path's ascending visit order, so the read adds the one
  increment the batch op will deliver after the pass (see
  :meth:`NodeAccounting.read`); a CPU ahead of the cursor reads as is.
* **anything else evicts** — a counter write, the mutable
  ``LWP.cpu_jiffies`` dict, ``LWP.charge``, and every scheduling
  interaction (a wakeup enqueued on the CPU, a kill or affinity move
  clearing ``current``) flush the member back to its objects first,
  via hooks in :class:`~repro.kernel.hwt.HWTState` and
  :class:`~repro.kernel.lwp.LWP`.

Evictions that happen *during* the scheduling pass replicate the same
visit order: a CPU at or behind the cursor is flushed with the one pure
accounting tick the batch op would have delivered; a CPU ahead of the
cursor is flushed untouched and pushed onto the node's activation watch
heap so the pass schedules it at its usual position.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING

import numpy as _np

if TYPE_CHECKING:
    from repro.kernel.directives import Compute
    from repro.kernel.hwt import HWTState
    from repro.kernel.lwp import LWP
    from repro.kernel.node import SimNode

__all__ = ["NodeAccounting", "ticks_above"]

#: elements per accumulate block in :meth:`NodeAccounting.advance`:
#: bounds the buffer a long window needs (blocks chain, so the
#: additions stay sequential)
_BLOCK_ELEMENTS = 1 << 16


def ticks_above(rem: float, below: float) -> int:
    """The most ticks ``j`` after which ``rem - j`` still exceeds
    ``below`` (> 1), for ``rem`` above it.

    Each ``- 1.0`` of such a countdown is exact, so ``rem - j`` is the
    value ``j`` stepped ticks leave, and the bound is tested as such.
    """
    ticks = math.floor(rem - below)  # off by at most one either way
    if rem - (ticks + 1) > below:
        ticks += 1
    elif not rem - ticks > below:
        ticks -= 1
    return ticks


#: accumulator rows of ``_acc``, one column per enrolled CPU; each row
#: gains the same row of ``_inc`` per tick
_ACC_ROWS = (
    "_lut",  # lwp.utime        += user_frac
    "_lst",  # lwp.stime        += 1.0 - user_frac
    "_hus",  # hwt.user         += user_frac
    "_hsy",  # hwt.system       += 1.0 - user_frac
    "_cpj",  # lwp.cpu_jiffies[cpu] += 1.0
    "_rem",  # directive.remaining  -= 1.0
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
        "_acc",
        "_inc",
        "_uf",
        "_sf",
        "_slc",
    ) + _ACC_ROWS

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
        self._acc = None
        self._inc = None
        self._slc = None  # timeslice countdown (integer jiffies)
        self._grow(16)

    # -- storage --------------------------------------------------------
    def _grow(self, cap: int) -> None:
        n = self.n
        acc = _np.zeros((len(_ACC_ROWS), cap))
        # per-tick addends: user_frac and 1.0 - user_frac (as the slow
        # path computes it) per member, then the constant rows
        inc = _np.zeros((len(_ACC_ROWS), cap))
        inc[4] = 1.0
        inc[5] = -1.0  # x + (-1.0) is x - 1.0, bit for bit
        slc = _np.zeros(cap, dtype=_np.int64)
        if n:
            acc[:, :n] = self._acc[:, :n]
            inc[:, :n] = self._inc[:, :n]
            slc[:n] = self._slc[:n]
        self._acc, self._inc, self._slc = acc, inc, slc
        # named row views, for enrollment, eviction and read-through
        self._lut, self._lst, self._hus, self._hsy, self._cpj, self._rem = acc
        self._uf, self._sf = inc[0], inc[1]
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
        sf = 1.0 - uf
        inc = self._inc
        inc[0, i] = uf
        inc[1, i] = sf
        inc[2, i] = uf
        inc[3, i] = sf
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
        self._acc[:, :n] += self._inc[:, :n]
        self._slc[:n] -= 1
        done = self._rem[:n] <= self.exhaust_below
        if done.any():
            for i in _np.nonzero(done)[0][::-1].tolist():
                self.evict_slot(int(i))

    # -- windows --------------------------------------------------------
    def steady_ticks(self, limit: int) -> int:
        """Ticks (at most ``limit``) every member takes before the first
        one's remaining work reaches ``exhaust_below``; the tick that
        evicts it is not included.  The member with the least work
        binds (see :func:`ticks_above`).
        """
        if not self.n:
            return limit
        rem = float(self._rem[: self.n].min())
        return min(limit, ticks_above(rem, self.exhaust_below))

    def advance(self, ticks: int) -> None:
        """Advance every member by ``ticks`` pure accounting ticks, as
        ``ticks`` calls of :meth:`tick` would; callers stay within
        :meth:`steady_ticks`, so nobody is evicted.

        ``np.add.accumulate`` adds strictly left to right (unlike a
        pairwise ``sum``), so ``k`` rows of increments accumulated onto
        the state are bit-identical to ``k`` in-place ``+=``.
        """
        n = self.n
        if not n:
            return
        acc = self._acc[:, :n]
        inc = self._inc[:, :n]
        block = max(1, _BLOCK_ELEMENTS // acc.size)
        left = ticks
        while left > 0:
            m = min(left, block)
            buf = _np.empty((m + 1,) + acc.shape)
            buf[0] = acc
            buf[1:] = inc
            acc[...] = _np.add.accumulate(buf, axis=0)[m]
            left -= m
        self._slc[:n] -= ticks

    # -- read-through ---------------------------------------------------
    def read(self, column: "_np.ndarray", increment: "_np.ndarray", i: int) -> float:
        """Slot ``i`` of an accumulator column, as the slow path has it now.

        ``increment`` is the column's per-tick addend (``_uf`` for the
        user counters, ``_sf`` for the system ones).  At or behind the
        pass cursor the addition is the one :meth:`tick` will make after
        the pass — the same sum :meth:`_evict_external` would flush.
        """
        cursor = self.node._pass_cursor
        if cursor is not None and self._hwts[i].os_index <= cursor:
            return column.item(i) + increment.item(i)
        return column.item(i)

    # -- eviction -------------------------------------------------------
    def evict_hwt(self, hwt: "HWTState") -> None:
        """External interaction with an enrolled CPU: flush it out."""
        self._evict_external(hwt._acct_slot)

    def evict_lwp(self, lwp: "LWP") -> None:
        """External write (or histogram access) of an enrolled thread:
        flush it out."""
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
            self._acc[:, i] = self._acc[:, last]
            self._inc[:, i] = self._inc[:, last]
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
