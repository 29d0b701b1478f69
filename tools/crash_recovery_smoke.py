#!/usr/bin/env python3
"""CI smoke test: ``kill -9`` survivors, in two flavors.

The whole point of the spill journal and the self-healing launcher is
surviving exactly the failure no in-process test can stage honestly:
SIGKILL, which runs no handlers, no atexit, nothing.

Case 1 (journal): spawn a busy child that monitors itself with
``LiveZeroSum`` (journal + heartbeat on), let it commit a handful of
periods, kill it with ``-9``, and assert that ``python -m repro.cli
recover`` rebuilds a complete utilization report from what hit disk.
It runs twice: with every row kept (the append-only journal, sealed
every 5 periods) and with an 8-row ring checkpointed every 3 periods
(the compacting journal: the kill may land in a rewrite too).

Case 2 (sharded): spawn a child running a sharded job with
self-healing on; the child prints its worker PIDs, this driver
SIGKILLs one of them from *outside* the process tree mid-run, and the
child must respawn the worker, ledger the recovery, and finish with
rank reports bit-identical to a serial run.

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


SHARDED_CHILD_SOURCE = """
import sys
from repro.apps import PicConfig, pic_app
from repro.core import ZeroSumConfig, zerosum_mpi
from repro.launch import (
    RecoveryPolicy, ShardedJobStep, SrunOptions, launch_job,
)
from repro.mpi import Fabric
from repro.topology import generic_node

PIC = PicConfig(steps=40, shift_distance=3, reduce_every=0)
POLICY = RecoveryPolicy(
    checkpoint_every=4,
    max_respawns=2,
    backoff_seconds=0.01,
    heartbeat_interval=0.05,
    hang_grace_seconds=5.0,
)


def _launch(workers):
    return launch_job(
        [generic_node(cores=4, name=f"node{i}") for i in range(2)],
        SrunOptions(ntasks=8, command="pic"),
        pic_app(PIC),
        monitor_factory=zerosum_mpi(ZeroSumConfig()),
        fabric=Fabric(remote_latency=8),
        workers=workers,
        recovery=POLICY,
    )


serial = _launch(1)
serial.run()
serial.finalize()
truth = [serial.report(r).render() for r in range(8)]

step = _launch(2)
assert isinstance(step, ShardedJobStep)
for shard, handle in enumerate(step._procs):
    print(f"worker {shard} {handle.pid}", flush=True)
print("running", flush=True)
step.run()
respawned = [e for e in step.degradations if e.action == "respawned"]
assert respawned, "external SIGKILL was never recovered"
assert not [e for e in step.degradations if e.action == "failure"], \\
    "recovery was ledgered as a failure"
assert [step.report(r).render() for r in range(8)] == truth, \\
    "recovered run diverged from the serial run"
step.close()
print("sharded-recovered", flush=True)
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


def _sharded_case(env: dict) -> int:
    child = subprocess.Popen(
        [sys.executable, "-c", SHARDED_CHILD_SOURCE],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    victim = None
    try:
        for line in child.stdout:
            line = line.strip()
            if line.startswith("worker 1 "):
                victim = int(line.split()[2])
            if line == "running":
                break
        if victim is None:
            print("child never reported a shard-1 worker pid",
                  file=sys.stderr)
            return 1
        time.sleep(0.1)  # let the epoch loop get under way
        try:
            os.kill(victim, signal.SIGKILL)
        except ProcessLookupError:
            print(f"worker {victim} was already gone before the kill",
                  file=sys.stderr)
            return 1
        out, _ = child.communicate(timeout=300)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)
    print(out)
    if child.returncode != 0:
        print(f"sharded child exited {child.returncode}", file=sys.stderr)
        return 1
    if "sharded-recovered" not in out:
        print("sharded child never printed its success marker",
              file=sys.stderr)
        return 1
    print("crash-recovery smoke: kill -9'd shard worker respawned, run "
          "stayed bit-identical.")
    return 0


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    for max_rows, checkpoint_every in ((0, 5), (8, 3)):
        rc = _journal_case(env, max_rows, checkpoint_every)
        if rc != 0:
            return rc
    return _sharded_case(env)


if __name__ == "__main__":
    sys.exit(main())
