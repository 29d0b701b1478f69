"""Columnar time-series archive (the §6 ADIOS2 substitution).

The paper's last future-work item: "the log output from ZeroSum should
be refactored to utilize the time-series I/O staging library ADIOS2."
ADIOS2 stores named typed arrays per step in a self-describing
container; the closest dependency-free equivalent is a compressed
``.npz`` with a naming convention::

    rank{R}/lwp/{tid}      -> (n, len(LWP_COLUMNS)) float64
    rank{R}/hwt/{cpu}      -> (n, len(HWT_COLUMNS)) float64
    rank{R}/gpu/{visible}  -> (n, 1 + len(METRIC_ORDER)) float64
    rank{R}/mem            -> (n, len(MEM_COLUMNS)) float64
    rank{R}/p2p            -> (world, world) int64 bytes matrix

plus a JSON metadata blob (column names, duration, hostnames), so the
archive is loadable without this package: ``np.load`` gives every
array by name, and ``json.loads(data["__meta__"].tobytes())`` the
metadata.  :func:`write_archive` dumps any number of store-backed runs
(rank monitors, a live monitor, or a journal-recovered run — which is
what makes a ``kill -9``'d run archivable after the fact).
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path

import numpy as np

from repro.collect.report import StoreBackedRun
from repro.core.records import HWT_COLUMNS, LWP_COLUMNS, MEM_COLUMNS
from repro.errors import MonitorError
from repro.gpu.metrics import METRIC_ORDER

__all__ = ["write_archive"]


def _atomic_savez(path: str | Path | io.BytesIO, arrays: dict) -> None:
    """Write a compressed npz atomically: ``*.tmp`` + fsync + rename.

    An end-of-run archive is often the last thing a job writes before
    walltime kills it; a crash mid-write must leave either the
    previous archive or none — never a half-written one.  File-like
    targets (``BytesIO``) write directly, as before.
    """
    if not isinstance(path, (str, Path)):
        np.savez_compressed(path, **arrays)
        return
    final = Path(path)
    if not final.name.endswith(".npz"):
        # numpy appends .npz to plain string paths; mirror it so the
        # rename target is the file callers will read back
        final = final.with_name(final.name + ".npz")
    tmp = final.with_name(final.name + ".tmp")
    with open(tmp, "wb") as handle:
        np.savez_compressed(handle, **arrays)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, final)


def write_archive(
    runs: list[StoreBackedRun], path: str | Path | io.BytesIO
) -> None:
    """Dump store-backed runs into one compressed npz archive.

    Each run lands under its MPI rank (``-pid`` for a run without
    one).  Path targets are written atomically (tmp file, fsync,
    rename) so a crash can never leave a half-written archive behind.
    """
    if not runs:
        raise MonitorError("no monitors to archive")
    arrays: dict[str, np.ndarray] = {}
    meta: dict = {
        "columns": {
            "lwp": list(LWP_COLUMNS),
            "hwt": list(HWT_COLUMNS),
            "mem": list(MEM_COLUMNS),
            "gpu": ["tick", *METRIC_ORDER],
        },
        "ranks": {},
    }
    for run in runs:
        key = run.rank if run.rank is not None else -run.pid
        prefix = f"rank{key}"
        meta["ranks"][str(key)] = {
            "hostname": run.hostname,
            "duration_seconds": run.duration_seconds,
            "pid": run.pid,
        }
        for tid, series in run.lwp_series.items():
            arrays[f"{prefix}/lwp/{tid}"] = series.array.copy()
        for cpu, series in run.hwt_series.items():
            arrays[f"{prefix}/hwt/{cpu}"] = series.array.copy()
        for visible, series in run.gpu_series.items():
            arrays[f"{prefix}/gpu/{visible}"] = series.array.copy()
        if len(run.mem_series):
            arrays[f"{prefix}/mem"] = run.mem_series.array.copy()
        if run.recorder is not None:
            arrays[f"{prefix}/p2p"] = run.recorder.bytes
    arrays["__meta__"] = np.frombuffer(
        json.dumps(meta).encode(), dtype=np.uint8
    )
    _atomic_savez(path, arrays)
