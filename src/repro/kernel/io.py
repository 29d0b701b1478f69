"""Filesystem I/O: blocking transfers, iowait accounting, counters.

§2 lists increased/variable disk latency, data-transfer variability
and filesystem quotas among the failure causes users want visibility
into, and cites Darshan as the specialized tool for the subsystem.
This module gives the substrate a filesystem:

* an :class:`IoSubsystem` per node with bandwidth and base latency —
  contention emerges naturally because concurrent transfers share the
  bandwidth;
* threads issue :class:`IoRequest` transfers and block in ``D``
  state while they are serviced;
* the CPU a blocked thread last ran on accrues **iowait** (instead of
  idle) while it sits otherwise empty — matching the Linux definition
  that ZeroSum's HWT report reads from ``/proc/stat``;
* per-process read/write counters back a ``/proc/<pid>/io`` file.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import SchedulerError
from repro.kernel.events import Event

if TYPE_CHECKING:
    from repro.kernel.lwp import LWP
    from repro.kernel.scheduler import SimKernel

__all__ = ["IoRequest", "IoSubsystem"]


class IoRequest:
    """One outstanding file transfer."""

    __slots__ = (
        "nbytes", "write", "lwp", "_done", "_completed", "waiter",
        "remaining", "issued_tick",
    )

    def __init__(
        self,
        nbytes: int,
        write: bool,
        lwp: "LWP",
        done: Optional[Event] = None,
        issued_tick: int = 0,
    ):
        if nbytes <= 0:
            raise SchedulerError("I/O transfer must move at least one byte")
        self.nbytes = nbytes
        self.write = write
        self.lwp = lwp
        self._done = done
        self._completed = False
        #: single LWP woken directly on completion — the scheduler's
        #: blocking path uses this instead of a per-request Event
        self.waiter: Optional["LWP"] = None
        self.remaining = float(nbytes)
        self.issued_tick = issued_tick

    @property
    def done(self) -> Event:
        """Completion event, materialized on first use (the common
        FileIo path wakes its single waiter directly and never needs
        one)."""
        if self._done is None:
            self._done = Event("io-done")
            if self._completed:
                self._done._set = True
        return self._done

    def __repr__(self) -> str:
        kind = "write" if self.write else "read"
        return (
            f"IoRequest({kind} {self.nbytes}B lwp={self.lwp.tid} "
            f"remaining={self.remaining:g})"
        )


class IoSubsystem:
    """One node's filesystem connection (e.g. a Lustre client)."""

    def __init__(
        self,
        bandwidth_bytes_per_tick: float = 2.0e7,  # ~2 GB/s
        base_latency_ticks: int = 1,
    ):
        if bandwidth_bytes_per_tick <= 0:
            raise SchedulerError("I/O bandwidth must be positive")
        self.bandwidth = bandwidth_bytes_per_tick
        self.base_latency = max(0, base_latency_ticks)
        self.inflight: list[IoRequest] = []
        #: bumped whenever the in-flight set changes; part of the
        #: scheduler's iowait attribution cache key
        self.epoch = 0
        #: earliest-completion prediction, valid while ``epoch`` holds
        #: (the drain recurrence is deterministic, so an absolute
        #: completion tick computed once stays exact until the in-flight
        #: set changes)
        self._pred_epoch = -1
        self._pred_tick = 0
        #: cumulative bytes moved, for diagnostics
        self.total_read = 0
        self.total_written = 0

    def start(self, kernel: "SimKernel", request: IoRequest) -> None:
        """Start a transfer without materializing its completion event
        (the scheduler's blocking path registers a direct waiter)."""
        # base latency is enforced as a minimum service time in tick()
        request.issued_tick = kernel.now
        self.inflight.append(request)
        self.epoch += 1

    def submit(self, kernel: "SimKernel", request: IoRequest) -> Event:
        """Start a transfer; the returned event fires on completion."""
        self.start(kernel, request)
        return request.done

    def tick(self, kernel: "SimKernel") -> None:
        """Advance one jiffy: share bandwidth across in-flight requests."""
        if not self.inflight:
            return
        share = self.bandwidth / len(self.inflight)
        now = kernel.now
        if self._pred_epoch == self.epoch and now < self._pred_tick:
            # the earliest completion provably lies ahead: pure drain,
            # same subtraction, no per-request completion tests
            for request in self.inflight:
                request.remaining -= share
            return
        finished: list[IoRequest] = []
        still: list[IoRequest] = []
        min_age = self.base_latency
        for request in self.inflight:
            request.remaining -= share
            if request.remaining <= 0 and now - request.issued_tick >= min_age:
                finished.append(request)
            else:
                still.append(request)
        if not finished:
            return
        # one rebuild instead of an O(n) remove per completion;
        # relative order of the survivors is preserved
        self.inflight = still
        self.epoch += 1
        for request in finished:
            proc = request.lwp.process
            if request.write:
                proc.write_bytes += request.nbytes
                self.total_written += request.nbytes
            else:
                proc.read_bytes += request.nbytes
                self.total_read += request.nbytes
            request._completed = True
            waiter = request.waiter
            if waiter is not None:
                request.waiter = None
                kernel.wake(waiter)
            if request._done is not None:
                request._done.set(kernel)

    def ticks_until_completion(self, now: int, horizon: int) -> int:
        """Ticks until the earliest in-flight completion, assuming the
        in-flight set does not change before then.

        Replays the per-tick sequential ``remaining -= share``
        subtraction on locals, so the predicted tick is exactly the one
        stepping would produce (the recurrence is float-order
        sensitive and must not be collapsed into a division).  Returns
        ``horizon`` when nothing completes within it.

        An exact prediction is cached against the current epoch (both
        for repeat calls and for :meth:`tick`'s no-completion fast
        path); the deterministic recurrence keeps it valid until the
        in-flight set changes.
        """
        if self._pred_epoch == self.epoch:
            k = self._pred_tick - now + 1
            if k >= 1:
                return k if k < horizon else horizon
        share = self.bandwidth / len(self.inflight)
        best = horizon
        for request in self.inflight:
            r = request.remaining
            k = 0
            while r > 0 and k < best:
                r -= share
                k += 1
            if r > 0:
                continue  # not before the current best / horizon
            # completion additionally requires the base service latency:
            # the completing tick t must satisfy t - issued >= latency
            k = max(k, self.base_latency - (now - request.issued_tick) + 1, 1)
            if k < best:
                best = k
        if best < horizon:
            self._pred_epoch = self.epoch
            self._pred_tick = now + best - 1
        return best

    def drain(self, ticks: int) -> None:
        """Apply ``ticks`` jiffies of pure bandwidth drain.

        Only legal when :meth:`ticks_until_completion` guaranteed no
        request completes within the window: the same sequential
        subtractions a stepped tick performs, batched on locals.
        """
        share = self.bandwidth / len(self.inflight)
        for request in self.inflight:
            r = request.remaining
            for _ in range(ticks):
                r -= share
            request.remaining = r
