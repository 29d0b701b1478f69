#!/usr/bin/env python3
"""CI smoke test: a journaled run must be recoverable, killed or not.

The whole point of the spill journal is surviving exactly the failure
no in-process test can stage honestly: SIGKILL, which runs no
handlers, no atexit, nothing.

Spawn a busy child that monitors itself with ``LiveZeroSum`` (journal
+ heartbeat on), let it commit a handful of periods, kill it with
``-9``, and assert that ``python -m repro.cli recover`` rebuilds a
complete utilization report from what hit disk.  The recovery also
writes the run's §3.6 log (``--log-dir``), and ``recover`` on that log
must print the same lines again: the offline workflow.  It runs twice
over the append-only journal: sealed every 5 periods, and sealed every
period (so the kill may land inside a seal's fsync too).  A third child
calls ``stop()`` and prints its report: ``recover`` of its journal, and
of the log that writes, must print that report byte for byte.

Exit status 0 = all three recoveries look right; anything else fails CI.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

CHILD_SOURCE = """
import sys, time
from repro.core import ZeroSumConfig
from repro.live import LiveZeroSum

monitor = LiveZeroSum(ZeroSumConfig(
    period_seconds=0.05,
    journal_path=sys.argv[1],
    journal_checkpoint_every=int(sys.argv[3]),
    heartbeat_path=sys.argv[2],
    heartbeat_every=1,
))
monitor.start()
print("started", flush=True)
x = 0
deadline = time.time() + 60.0
while time.time() < deadline:
    x += sum(i * i for i in range(2000))
"""


#: a journaled child that stops cleanly and prints its own report
STOPPED_CHILD_SOURCE = """
import sys, time
from repro.core import ZeroSumConfig
from repro.live import LiveZeroSum

monitor = LiveZeroSum(ZeroSumConfig(period_seconds=0.05, journal_path=sys.argv[1]))
monitor.start()
x = 0
deadline = time.time() + 0.5
while time.time() < deadline:
    x += sum(i * i for i in range(2000))
monitor.stop()
print(monitor.report().render())
"""


def _recover(env: dict, path: str, *options: str):
    """``python -m repro.cli recover PATH``; ``None`` when it failed."""
    result = subprocess.run(
        [sys.executable, "-m", "repro.cli", "recover", path, *options],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    print(result.stdout)
    print(result.stderr, file=sys.stderr)
    if result.returncode != 0:
        print(f"recover {path} exited non-zero", file=sys.stderr)
        return None
    return result


def _journal_case(env: dict, checkpoint_every: int) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        journal = os.path.join(tmp, "run.zsj")
        heartbeat = os.path.join(tmp, "heartbeat.log")
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_SOURCE, journal, heartbeat,
             str(checkpoint_every)],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            line = child.stdout.readline()
            if "started" not in line:
                print(f"child never started (got {line!r})", file=sys.stderr)
                return 1
            time.sleep(1.5)  # let a few checkpoints + deltas land
        finally:
            child.kill()  # SIGKILL: no handlers, no atexit, no mercy
            child.wait(timeout=30)
        if child.returncode != -signal.SIGKILL:
            print(
                f"child exited {child.returncode}, expected "
                f"-{int(signal.SIGKILL)}",
                file=sys.stderr,
            )
            return 1

        result = _recover_journal_and_log(env, journal, tmp)
        if result is None:
            return 1
        for needle in (
            "Duration of execution",
            "Process Summary:",
            "LWP (thread) Summary:",
            "Hardware Summary:",
        ):
            if needle not in result.stdout:
                print(f"recovered report missing {needle!r}", file=sys.stderr)
                return 1

        hb = Path(heartbeat).read_text()
        if "last_sample_age=" not in hb:
            print("heartbeat file missing last_sample_age field",
                  file=sys.stderr)
            return 1

    print(f"crash-recovery smoke: kill -9'd journaled run (checkpoint "
          f"every {checkpoint_every}) recovered cleanly.")
    return 0


def _recover_journal_and_log(env: dict, journal: str, tmp: str):
    """``recover`` the journal with ``--log-dir``, then the log it wrote,
    which must print the same lines; the journal's result, or ``None``."""
    log_dir = os.path.join(tmp, "logs")
    result = _recover(env, journal, "--log-dir", log_dir)
    if result is None:
        return None
    logs = list(Path(log_dir).glob("zerosum.live.*.log"))
    if len(logs) != 1:
        print(f"--log-dir wrote {logs}, expected one live log", file=sys.stderr)
        return None
    from_log = _recover(env, str(logs[0]))
    if from_log is None:
        return None
    if from_log.stdout != result.stdout:
        print("recover of the written log printed other report lines",
              file=sys.stderr)
        return None
    return result


def _stopped_case(env: dict) -> int:
    """A clean stop: the recovered report is the one the run printed."""
    with tempfile.TemporaryDirectory() as tmp:
        journal = os.path.join(tmp, "run.zsj")
        child = subprocess.run(
            [sys.executable, "-c", STOPPED_CHILD_SOURCE, journal],
            env=env, capture_output=True, text=True, timeout=60,
        )
        if child.returncode != 0 or not child.stdout:
            print(f"stopped child exited {child.returncode}:\n{child.stderr}",
                  file=sys.stderr)
            return 1
        result = _recover_journal_and_log(env, journal, tmp)
        if result is None:
            return 1
        if not result.stdout.startswith(child.stdout):
            print("recover of a stopped run's journal printed another report "
                  "than the run did", file=sys.stderr)
            return 1
    print("crash-recovery smoke: stopped journaled run recovered to the "
          "report it printed.")
    return 0


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    for checkpoint_every in (5, 1):
        rc = _journal_case(env, checkpoint_every)
        if rc != 0:
            return rc
    return _stopped_case(env)


if __name__ == "__main__":
    sys.exit(main())
