"""Wait objects: the blocking/waking primitives of the simulated kernel.

Threads block on these via the :class:`~repro.kernel.directives.Wait`
directive; anything may wake them (another thread, a timer, a GPU
completion, an arriving MPI message).  Waking marks the LWP runnable and
hands it back to the scheduler, which decides placement and preemption.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.errors import SchedulerError

if TYPE_CHECKING:
    from repro.kernel.lwp import LWP
    from repro.kernel.scheduler import SimKernel

__all__ = ["WaitObject", "Event", "Barrier", "MessageQueue"]


class WaitObject:
    """Base wait object with a FIFO waiter list."""

    def __init__(self, name: str = ""):
        self.name = name
        self._waiters: deque["LWP"] = deque()

    # -- scheduler interface ------------------------------------------------
    def add_waiter(self, lwp: "LWP") -> None:
        """Enqueue a blocked thread (scheduler use)."""
        self._waiters.append(lwp)

    @property
    def waiters(self) -> tuple["LWP", ...]:
        return tuple(self._waiters)

    def ready(self, lwp: "LWP") -> bool:
        """True if the LWP need not block at all (e.g. event already set)."""
        return False

    # -- waking ---------------------------------------------------------------
    def wake_all(self, kernel: "SimKernel") -> None:
        """Wake every waiter, FIFO order."""
        waiters = self._waiters
        while waiters:
            kernel.wake(waiters.popleft())

    def wake_one(self, kernel: "SimKernel") -> Optional["LWP"]:
        """Wake the oldest waiter, if any."""
        if not self._waiters:
            return None
        lwp = self._waiters.popleft()
        kernel.wake(lwp)
        return lwp

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r} waiters={len(self._waiters)}>"


class Event(WaitObject):
    """One-shot (or manually cleared) event, like a condition broadcast."""

    def __init__(self, name: str = ""):
        super().__init__(name)
        self._set = False

    def is_set(self) -> bool:
        """Whether the event has fired."""
        return self._set

    def ready(self, lwp: "LWP") -> bool:
        """A set event never blocks a waiter."""
        return self._set

    def set(self, kernel: "SimKernel") -> None:
        """Set the event and wake every waiter."""
        self._set = True
        self.wake_all(kernel)

    def clear(self) -> None:
        """Re-arm the event."""
        self._set = False


class Barrier(WaitObject):
    """Classic N-party barrier (OpenMP join, MPI_Barrier substrate).

    The last arriving party does not block; everyone else sleeps until
    the barrier releases, which resets it for reuse.
    """

    def __init__(self, parties: int, name: str = ""):
        super().__init__(name)
        if parties < 1:
            raise SchedulerError("barrier needs at least one party")
        self.parties = parties
        self._arrived = 0
        self.generation = 0

    @property
    def arrived(self) -> int:
        return self._arrived

    def arrive(self, kernel: "SimKernel", lwp: "LWP") -> bool:
        """Record arrival.  Returns True if the caller must block."""
        self._arrived += 1
        if self._arrived >= self.parties:
            self._arrived = 0
            self.generation += 1
            self.wake_all(kernel)
            return False
        return True


class MessageQueue(WaitObject):
    """FIFO of opaque messages with blocking receive (MPI substrate)."""

    def __init__(self, name: str = ""):
        super().__init__(name)
        self._messages: deque[object] = deque()

    def put(self, kernel: "SimKernel", message: object) -> None:
        """Enqueue a message and wake one receiver."""
        self._messages.append(message)
        self.wake_one(kernel)

    def ready(self, lwp: "LWP") -> bool:
        """A non-empty queue never blocks a receiver."""
        return bool(self._messages)

    def get_nowait(self) -> Optional[object]:
        """Pop the oldest message, or None."""
        if self._messages:
            return self._messages.popleft()
        return None

    def __len__(self) -> int:
        return len(self._messages)
