"""Shared launch helpers for the test suite."""

from __future__ import annotations

import json
import zlib
from pathlib import Path

from repro.apps import MiniQmcConfig, miniqmc_app
from repro.collect.journal import JournalWriter, _identity_state
from repro.collect.store import KEYED_FAMILIES
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


class LegacyPeriodWriter(JournalWriter):
    """A journal writer emitting the pre-block, ``series``-shaped periods.

    The record PR 21 and earlier wrote between checkpoints: one entry
    per series holding the rows past a per-series ``appended`` cursor,
    or a full ``replace`` (summary mode; a ring that wrapped past the
    cursor), plus the whole identity maps and every tid's kind.  Like
    ZSJ1 frames, recovery must keep reading what those writers left.
    """

    def _checkpoint_locked(self, store, tick=None):
        super()._checkpoint_locked(store, tick=tick)
        self._cursors = {
            ident: series.appended for ident, series in self._all_series(store)
        }

    @staticmethod
    def _all_series(store):
        for family, (attr, _) in KEYED_FAMILIES.items():
            for key, series in getattr(store, attr).items():
                yield (family, key), series
        yield ("mem", 0), store.mem_series

    def _period_record(self, store, tick):
        record = super()._period_record(store, tick)
        del record["block"]
        series: dict = {}
        for (family, key), buf in self._all_series(store):
            new = buf.appended - self._cursors.get((family, key), 0)
            self._cursors[(family, key)] = buf.appended
            entry = {
                "columns": list(buf.columns),
                "rows": buf.array,
                "appended": buf.appended,
            }
            if not store.keep_series or new > len(buf):
                entry["replace"] = True
            elif new <= 0:
                continue
            else:
                entry["rows"] = buf.array[-new:]
            if family == "mem":
                series["mem"] = entry
            else:
                series.setdefault(family, {})[str(key)] = entry
        record["series"] = series
        record["kinds"] = self._kinds(store.lwp_series)
        record.update(
            _identity_state(store, store.lwp_names, store.lwp_affinity)
        )
        return record


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
