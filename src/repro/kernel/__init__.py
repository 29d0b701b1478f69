"""Discrete-time kernel/scheduler simulation substrate."""

from repro.kernel.clock import Clock
from repro.kernel.directives import (
    Alloc,
    Call,
    Compute,
    Directive,
    FileIo,
    Free,
    Sleep,
    Wait,
    YieldCpu,
)
from repro.kernel.io import IoRequest, IoSubsystem
from repro.kernel.events import Barrier, Event, MessageQueue, WaitObject
from repro.kernel.hwt import HWTState
from repro.kernel.lwp import LWP, Behavior, ThreadRole, ThreadState
from repro.kernel.memory import MemoryAccounting
from repro.kernel.node import SimNode
from repro.kernel.process import SimProcess
from repro.kernel.scheduler import SimKernel

__all__ = [
    "Clock",
    "Directive",
    "Compute",
    "Sleep",
    "Wait",
    "YieldCpu",
    "Alloc",
    "FileIo",
    "IoRequest",
    "IoSubsystem",
    "Free",
    "Call",
    "WaitObject",
    "Event",
    "Barrier",
    "MessageQueue",
    "HWTState",
    "LWP",
    "Behavior",
    "ThreadRole",
    "ThreadState",
    "MemoryAccounting",
    "SimNode",
    "SimProcess",
    "SimKernel",
]
