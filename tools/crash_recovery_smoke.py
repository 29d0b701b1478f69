#!/usr/bin/env python3
"""CI smoke test: a ``kill -9``'d journaled run must be recoverable.

The whole point of the spill journal is surviving exactly the failure
no in-process test can stage honestly: SIGKILL, which runs no
handlers, no atexit, nothing.

Spawn a busy child that monitors itself with ``LiveZeroSum`` (journal
+ heartbeat on), let it commit a handful of periods, kill it with
``-9``, and assert that ``python -m repro.cli recover`` rebuilds a
complete utilization report from what hit disk.  It runs twice: with
every row kept (the append-only journal, sealed every 5 periods) and
with an 8-row ring checkpointed every 3 periods (the compacting
journal: the kill may land in a rewrite too).

Exit status 0 = both recoveries look right; anything else fails CI.
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
    max_series_rows=int(sys.argv[3]) or None,
    journal_path=sys.argv[1],
    journal_checkpoint_every=int(sys.argv[4]),
    journal_fsync=False,
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


def _journal_case(env: dict, max_rows: int, checkpoint_every: int) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        journal = os.path.join(tmp, "run.zsj")
        heartbeat = os.path.join(tmp, "heartbeat.log")
        child = subprocess.Popen(
            [sys.executable, "-c", CHILD_SOURCE, journal, heartbeat,
             str(max_rows), str(checkpoint_every)],
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

        result = subprocess.run(
            [sys.executable, "-m", "repro.cli", "recover", journal],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        print(result.stdout)
        print(result.stderr, file=sys.stderr)
        if result.returncode != 0:
            print("recover exited non-zero", file=sys.stderr)
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

    print(f"crash-recovery smoke: kill -9'd journaled run (max rows "
          f"{max_rows or 'all'}, checkpoint every {checkpoint_every}) "
          "recovered cleanly.")
    return 0


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    for max_rows, checkpoint_every in ((0, 5), (8, 3)):
        rc = _journal_case(env, max_rows, checkpoint_every)
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())
