"""Shared launch helpers for the test suite."""

from __future__ import annotations

import json
import zlib
from pathlib import Path

from repro.apps import MiniQmcConfig, miniqmc_app
from repro.core import ZeroSumConfig, zerosum_mpi
from repro.launch import SrunOptions, launch_job
from repro.topology import frontier_node, generic_node


def run_miniqmc(
    cmdline: str,
    blocks: int = 6,
    block_jiffies: float = 40.0,
    jitter: float = 0.0,
    seed: int = 0,
    offload: bool = False,
    monitor: bool = True,
    machine=None,
    zs_config: ZeroSumConfig | None = None,
):
    """Launch + run + finalize one monitored miniQMC job on Frontier."""
    opts = SrunOptions.parse(cmdline)
    app = miniqmc_app(
        MiniQmcConfig(
            blocks=blocks,
            block_jiffies=block_jiffies,
            jitter=jitter,
            seed=seed,
            offload=offload,
        )
    )
    step = launch_job(
        [machine if machine is not None else frontier_node()],
        opts,
        app,
        monitor_factory=zerosum_mpi(zs_config or ZeroSumConfig()) if monitor else None,
    )
    step.run(max_ticks=1_000_000)
    step.finalize()
    return step


def zsj1_frame(payload: dict) -> bytes:
    """One legacy journal frame: ``ZSJ1 <len> <crc32> <compact json>\\n``.

    No writer emits these any more, but recovery must keep reading the
    journals older writers left behind — so the tests build them here.
    """
    body = json.dumps(payload, separators=(",", ":")).encode()
    return b"ZSJ1 %d %08x " % (len(body), zlib.crc32(body)) + body + b"\n"


def rewrite_as_zsj1(path: str | Path) -> None:
    """Re-frame every record of a journal as ZSJ1, in place.

    Keeps the inode, so a writer holding the file open for append
    carries on behind the rewritten records (the upgraded-writer shape).
    """
    from repro.collect.journal import read_journal

    records, torn = read_journal(path)
    assert torn == 0
    Path(path).write_bytes(b"".join(zsj1_frame(r) for r in records))


def materialize_proc(fs, pid: int, root: Path, as_pid: int | None = None) -> None:
    """(Re)write the /proc files a monitor touches from the sim's state.

    ``as_pid`` files the simulated process under another pid — a
    ``LiveZeroSum(proc_root=root)`` looks for ``os.getpid()``.
    """
    as_pid = pid if as_pid is None else as_pid
    for name in ("stat", "meminfo", "uptime"):
        (root / name).write_text(fs.read(f"/proc/{name}"))
    piddir = root / str(as_pid)
    piddir.mkdir(exist_ok=True)
    for name in ("stat", "status", "io"):
        (piddir / name).write_text(fs.read(f"/proc/{pid}/{name}"))
    for tid in fs.listdir(f"/proc/{pid}/task"):
        taskdir = piddir / "task" / (str(as_pid) if int(tid) == pid else tid)
        taskdir.mkdir(parents=True, exist_ok=True)
        for name in ("stat", "status"):
            (taskdir / name).write_text(
                fs.read(f"/proc/{pid}/task/{tid}/{name}")
            )
