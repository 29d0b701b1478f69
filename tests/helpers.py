"""Shared launch helpers for the test suite."""

from __future__ import annotations

from pathlib import Path

from repro.apps import MiniQmcConfig, miniqmc_app
from repro.collect.journal import _parse_frame
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


#: the identity record the journal tests open their journals with
JOURNAL_META = {
    "driver": "test",
    "pid": 100,
    "rank": 0,
    "hostname": "node0",
    "hz": 100.0,
    "baseline": "zero",
    "start_tick": 0.0,
    "cpus_allowed": "0-3",
}


def frame_ends(data: bytes) -> list[int]:
    """Offset just past each frame of a journal (terminator included)."""
    ends, pos = [], 0
    while pos < len(data):
        _, pos = _parse_frame(data, pos)
        ends.append(pos)
    return ends


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
