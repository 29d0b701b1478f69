"""Archive round-trip (the §6 ADIOS2 substitution) + GPU findings.

The archive is read back with ``np.load`` and ``json`` only: the
"loadable without this package" contract of :mod:`repro.core.archive`.
"""

import io
import json

import numpy as np
import pytest

from tests.helpers import run_miniqmc
from repro.core import ZeroSumConfig, analyze, zerosum_mpi
from repro.core.archive import write_archive
from repro.errors import MonitorError

T3_CMD = ("OMP_NUM_THREADS=7 OMP_PROC_BIND=spread OMP_PLACES=cores "
          "srun -n8 -c7 zerosum-mpi miniqmc")
GPU_CMD = ("OMP_PROC_BIND=spread OMP_PLACES=cores OMP_NUM_THREADS=4 "
           "srun -n8 --gpus-per-task=1 --cpus-per-task=7 "
           "--gpu-bind=closest zerosum-mpi miniqmc")


def load(target):
    """(metadata, arrays by name) of an archive, as ``np.load`` reads it."""
    if isinstance(target, io.BytesIO):
        target.seek(0)
    with np.load(target) as npz:
        arrays = {name: npz[name] for name in npz.files}
    return json.loads(arrays.pop("__meta__").tobytes()), arrays


@pytest.fixture(scope="module")
def archived():
    step = run_miniqmc(T3_CMD, blocks=8, block_jiffies=60)
    buffer = io.BytesIO()
    write_archive(step.monitors, buffer)
    return (step, *load(buffer))


class TestRoundTrip:
    def test_all_ranks_restored(self, archived):
        _, meta, _ = archived
        assert sorted(map(int, meta["ranks"])) == list(range(8))

    def test_metadata(self, archived):
        step, meta, _ = archived
        rank0 = meta["ranks"]["0"]
        assert rank0["hostname"].startswith("frontier")
        assert rank0["duration_seconds"] == pytest.approx(
            step.duration_seconds, abs=0.01
        )
        assert meta["columns"]["lwp"][0] == "tick"

    def test_lwp_arrays_identical(self, archived):
        step, _, arrays = archived
        for tid, series in step.monitors[0].lwp_series.items():
            assert np.array_equal(arrays[f"rank0/lwp/{tid}"], series.array)

    def test_hwt_and_mem(self, archived):
        _, _, arrays = archived
        hwts = sorted(int(n.split("/")[2]) for n in arrays
                      if n.startswith("rank0/hwt/"))
        assert hwts == list(range(1, 8))
        assert len(arrays["rank0/mem"]) >= 1

    def test_p2p_matrix_stored(self, archived):
        _, _, arrays = archived
        assert arrays["rank0/p2p"].shape == (8, 8)

    def test_file_based_archive(self, archived, tmp_path):
        step = archived[0]
        path = tmp_path / "job.npz"
        write_archive(step.monitors, path)
        assert sorted(map(int, load(path)[0]["ranks"])) == list(range(8))

    def test_gpu_arrays(self):
        step = run_miniqmc(GPU_CMD, blocks=5, offload=True)
        buffer = io.BytesIO()
        write_archive(step.monitors, buffer)
        meta, arrays = load(buffer)
        busy_col = meta["columns"]["gpu"].index("busy_percent")
        assert arrays["rank0/gpu/0"][:, busy_col].max() > 0

    def test_empty_monitors_rejected(self):
        with pytest.raises(MonitorError):
            write_archive([], io.BytesIO())


class TestGpuMemoryPressure:
    def test_flagged_when_vram_nearly_full(self):
        from repro.apps import MiniQmcConfig, miniqmc_app
        from repro.launch import SrunOptions, launch_job
        from repro.topology import frontier_node

        # 4 walkers x 14.5 GiB on a 64 GiB GCD ~ 91 % peak
        step = launch_job(
            [frontier_node()],
            SrunOptions.parse(GPU_CMD),
            miniqmc_app(MiniQmcConfig(
                blocks=4, offload=True,
                vram_per_walker=int(14.5 * 1024**3),
            )),
            monitor_factory=zerosum_mpi(ZeroSumConfig()),
        )
        step.run()
        step.finalize()
        findings = analyze(step.monitors[0]).by_code("gpu-memory-pressure")
        assert findings
        assert "VRAM" in findings[0].message

    def test_not_flagged_at_normal_usage(self):
        step = run_miniqmc(GPU_CMD, blocks=4, offload=True)
        assert not analyze(step.monitors[0]).by_code("gpu-memory-pressure")


class TestAtomicWrite:
    """A crash mid-archive must leave the old file or none — never half."""

    def test_no_tmp_file_left_behind(self, tmp_path):
        step = run_miniqmc(T3_CMD, blocks=2)
        target = tmp_path / "job.npz"
        write_archive(step.monitors, target)
        assert target.exists()
        leftovers = [p for p in tmp_path.iterdir() if p.name != "job.npz"]
        assert leftovers == []

    def test_extensionless_path_matches_numpy_convention(self, tmp_path):
        step = run_miniqmc(T3_CMD, blocks=2)
        write_archive(step.monitors, tmp_path / "job")
        # numpy appends .npz to plain paths; the atomic path must too
        assert (tmp_path / "job.npz").exists()
        assert len(load(tmp_path / "job.npz")[0]["ranks"]) == 8

    def test_overwrite_replaces_previous_archive(self, tmp_path):
        step = run_miniqmc(T3_CMD, blocks=2)
        target = tmp_path / "job.npz"
        write_archive(step.monitors, target)
        first = target.read_bytes()
        write_archive(step.monitors[:1], target)
        assert target.read_bytes() != first
        assert len(load(target)[0]["ranks"]) == 1


class TestStoreArchive:
    """write_archive on a journal-recovered run (any store-backed run)."""

    def test_recovered_run_round_trips(self, tmp_path):
        from repro.collect.journal import recover_journal

        step = run_miniqmc(
            "OMP_NUM_THREADS=7 srun -n1 -c7 miniqmc",
            blocks=4,
            zs_config=ZeroSumConfig(
                journal_path=str(tmp_path / "r.zsj"), journal_fsync=False
            ),
        )
        monitor = step.monitors[0]
        recovered = recover_journal(tmp_path / "r.zsj")
        write_archive([recovered], tmp_path / "rec.npz")
        meta, arrays = load(tmp_path / "rec.npz")
        assert meta["ranks"]["0"]["duration_seconds"] == pytest.approx(
            recovered.duration_seconds
        )
        for tid, buf in monitor.lwp_series.items():
            np.testing.assert_array_equal(arrays[f"rank0/lwp/{tid}"], buf.array)
        for cpu, buf in monitor.hwt_series.items():
            np.testing.assert_array_equal(arrays[f"rank0/hwt/{cpu}"], buf.array)
        np.testing.assert_array_equal(arrays["rank0/mem"], monitor.mem_series.array)
        assert "rank0/p2p" not in arrays  # the matrix lives in the recorder
