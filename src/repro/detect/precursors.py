"""Precursor detectors: trends that predict the terminal event.

Where :mod:`repro.detect.rules` streams the §3.5 *contention* rules,
these detectors look for the shapes that precede a run dying — the
"will I soon run out of a limited resource?" question of §2, answered
minutes ahead instead of in the post-mortem:

* **memory-leak slope** — RSS climbing while MemAvailable falls at a
  steady rate; the finding carries the projected OOM ETA;
* **GPU thermal-throttle onset** — device temperature trending toward
  the throttle point while the device is busy;
* **runqueue starvation** — a thread runnable nearly every sample yet
  accruing almost no CPU time: it wants a core and never gets one;
* **I/O stall** — a thread stuck in uninterruptible sleep for the
  whole window while the process's I/O counters stop advancing (the
  hung-filesystem shape; healthy I/O-bound phases keep the counters
  moving and never trip it).

All precursors read only the detector's bounded per-entity histories,
and most require a substantially filled window before judging — a
half-started history has no trend to project.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.records import STATE_CODES
from repro.detect.rules import Condition

if TYPE_CHECKING:
    from repro.detect.online import OnlineDetector

__all__ = [
    "precursor_memory_leak",
    "precursor_gpu_thermal",
    "precursor_runqueue_starvation",
    "precursor_io_stall",
    "PRECURSORS",
]

_STATE_R = float(STATE_CODES["R"])
_STATE_D = float(STATE_CODES["D"])


def _window_ready(history, window: int) -> bool:
    """Enough samples to trust a trend (at least half the window)."""
    return len(history) >= max(4, window // 2)


def precursor_memory_leak(det: "OnlineDetector") -> list[Condition]:
    """Sustained RSS growth projecting MemAvailable exhaustion."""
    mem = det.mem
    if not _window_ready(mem, det.window):
        return []
    rss_slope = mem.slope("rss_kib", det.hz)  # KiB/s
    avail_slope = mem.slope("mem_available_kib", det.hz)
    if rss_slope < det.thresholds.leak_min_slope_kib_s or avail_slope >= 0:
        return []
    avail = mem.last("mem_available_kib")
    eta_s = avail / -avail_slope
    if eta_s > det.thresholds.oom_horizon_s:
        return []
    return [
        Condition(
            code="mem-leak-oom",
            severity="critical",
            entity="mem",
            message=(
                f"RSS growing {rss_slope:.0f} KiB/s while MemAvailable "
                f"falls {-avail_slope:.0f} KiB/s "
                f"({avail:.0f} KiB left): projected OOM in {eta_s:.0f}s"
            ),
            eta_s=eta_s,
        )
    ]


def precursor_gpu_thermal(det: "OnlineDetector") -> list[Condition]:
    """Device temperature trending into the throttle point under load."""
    out = []
    throttle = det.thresholds.gpu_throttle_temp_c
    for visible, history in det.gpus.items():
        if not _window_ready(history, det.window):
            continue
        temp = history.last("temperature_c")
        busy = history.ewma("busy_percent")
        if busy <= 0.0:
            continue  # an idle device cools; no throttle ahead
        slope = history.slope("temperature_c", det.hz)
        if temp >= throttle:
            eta_s = 0.0
        elif slope >= det.thresholds.gpu_temp_min_slope:
            eta_s = (throttle - temp) / slope
            if eta_s > det.thresholds.gpu_temp_horizon_s:
                continue
        else:
            continue
        out.append(
            Condition(
                code="gpu-thermal-throttle",
                severity="warning",
                entity=f"gpu:{visible}",
                message=(
                    f"GPU {visible} at {temp:.1f}C rising "
                    f"{slope * 60:.2f}C/min under load: throttle point "
                    f"{throttle:.0f}C in ~{eta_s:.0f}s"
                ),
                eta_s=eta_s,
            )
        )
    return out


def precursor_runqueue_starvation(det: "OnlineDetector") -> list[Condition]:
    """Runnable nearly every sample, yet almost no CPU time accrues."""
    out = []
    min_frac = det.thresholds.starvation_runnable_frac
    max_busy = det.thresholds.starvation_busy_pct
    busy_all = det._busy_all
    # frac >= min_frac over a full window leaves at most
    # floor(window * (1 - min_frac)) off-state samples; when that is
    # < 2, one of the newest two samples must be runnable, so a deque
    # peek rules most threads out without counting the whole window
    peek = det.window * (1.0 - min_frac) < 2.0
    window, ignore = det.window, det.ignore_tids
    for tid, history in det.lwps.items():
        if tid in ignore or len(history.ticks) != window:
            continue
        busy = busy_all.get(tid)
        if busy is None:
            busy = history.busy_pct(det.hz)
        if busy > max_busy:
            continue
        states = history.metrics["state"]
        if peek and states[-1] != _STATE_R and states[-2] != _STATE_R:
            continue
        runnable = history.frac_eq("state", _STATE_R)
        if runnable < min_frac:
            continue
        out.append(
            Condition(
                code="runqueue-starvation",
                severity="warning",
                entity=f"lwp:{tid}",
                message=(
                    f"LWP {tid} was runnable in {100 * runnable:.0f}% of "
                    f"the last {len(history)} samples but ran only "
                    f"{busy:.2f}% of one CPU: starved on the runqueue"
                ),
            )
        )
    return out


def precursor_io_stall(det: "OnlineDetector") -> list[Condition]:
    """Uninterruptible sleep all window long with no I/O progress."""
    mem = det.mem
    if len(mem) >= 2:
        io_progress = (
            mem.delta("io_read_kib") + mem.delta("io_write_kib")
        ) > 0.0
    else:
        io_progress = False  # no I/O accounting: judge by state alone
    if io_progress:
        return []
    out = []
    min_frac = det.thresholds.io_stall_d_frac
    peek = det.window * (1.0 - min_frac) < 2.0  # see runqueue precursor
    window, ignore = det.window, det.ignore_tids
    for tid, history in det.lwps.items():
        if tid in ignore or len(history.ticks) != window:
            continue
        states = history.metrics["state"]
        if peek and states[-1] != _STATE_D and states[-2] != _STATE_D:
            continue
        stuck = history.frac_eq("state", _STATE_D)
        if stuck < min_frac:
            continue
        span_s = history.span_ticks / det.hz
        out.append(
            Condition(
                code="io-stall",
                severity="warning",
                entity=f"lwp:{tid}",
                message=(
                    f"LWP {tid} spent {100 * stuck:.0f}% of the last "
                    f"{span_s:.0f}s in uninterruptible sleep with no "
                    f"I/O progress: stalled storage or a hung mount"
                ),
            )
        )
    return out


#: the precursor catalog, in evaluation order
PRECURSORS = (
    precursor_memory_leak,
    precursor_gpu_thermal,
    precursor_runqueue_starvation,
    precursor_io_stall,
)
