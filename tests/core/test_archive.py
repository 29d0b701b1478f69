"""Archive round-trip (the §6 ADIOS2 substitution) + GPU findings."""

import io

import numpy as np
import pytest

from tests.helpers import run_miniqmc
from repro.core import ZeroSumConfig, analyze, zerosum_mpi
from repro.core.archive import read_archive, write_archive
from repro.errors import MonitorError

T3_CMD = ("OMP_NUM_THREADS=7 OMP_PROC_BIND=spread OMP_PLACES=cores "
          "srun -n8 -c7 zerosum-mpi miniqmc")
GPU_CMD = ("OMP_PROC_BIND=spread OMP_PLACES=cores OMP_NUM_THREADS=4 "
           "srun -n8 --gpus-per-task=1 --cpus-per-task=7 "
           "--gpu-bind=closest zerosum-mpi miniqmc")


@pytest.fixture(scope="module")
def archived():
    step = run_miniqmc(T3_CMD, blocks=8, block_jiffies=60)
    buffer = io.BytesIO()
    write_archive(step.monitors, buffer)
    buffer.seek(0)
    return step, read_archive(buffer)


class TestRoundTrip:
    def test_all_ranks_restored(self, archived):
        step, data = archived
        assert sorted(data.ranks) == list(range(8))

    def test_metadata(self, archived):
        step, data = archived
        rank0 = data.rank(0)
        assert rank0.hostname.startswith("frontier")
        assert rank0.duration_seconds == pytest.approx(
            step.duration_seconds, abs=0.01
        )
        assert data.columns["lwp"][0] == "tick"

    def test_lwp_arrays_identical(self, archived):
        step, data = archived
        monitor = step.monitors[0]
        for tid, series in monitor.lwp_series.items():
            assert np.array_equal(data.rank(0).lwp[tid], series.array)

    def test_hwt_and_mem(self, archived):
        step, data = archived
        rank0 = data.rank(0)
        assert sorted(rank0.hwt) == list(range(1, 8))
        assert rank0.mem is not None and len(rank0.mem) >= 1

    def test_p2p_matrix_stored(self, archived):
        step, data = archived
        assert data.rank(0).p2p is not None
        assert data.rank(0).p2p.shape == (8, 8)

    def test_file_based_archive(self, archived, tmp_path):
        step, _ = archived
        path = tmp_path / "job.npz"
        write_archive(step.monitors, path)
        restored = read_archive(path)
        assert sorted(restored.ranks) == list(range(8))

    def test_gpu_arrays(self):
        step = run_miniqmc(GPU_CMD, blocks=5, offload=True)
        buffer = io.BytesIO()
        write_archive(step.monitors, buffer)
        buffer.seek(0)
        data = read_archive(buffer)
        assert 0 in data.rank(0).gpu
        busy_col = data.columns["gpu"].index("busy_percent")
        assert data.rank(0).gpu[0][:, busy_col].max() > 0

    def test_unknown_rank_rejected(self, archived):
        _, data = archived
        with pytest.raises(MonitorError):
            data.rank(99)

    def test_empty_monitors_rejected(self):
        with pytest.raises(MonitorError):
            write_archive([], io.BytesIO())

    def test_non_archive_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, x=np.zeros(3))
        with pytest.raises(MonitorError):
            read_archive(path)


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
        assert len(read_archive(tmp_path / "job.npz").ranks) == 8

    def test_overwrite_replaces_previous_archive(self, tmp_path):
        step = run_miniqmc(T3_CMD, blocks=2)
        target = tmp_path / "job.npz"
        write_archive(step.monitors, target)
        first = target.read_bytes()
        write_archive(step.monitors[:1], target)
        assert target.read_bytes() != first
        assert len(read_archive(target).ranks) == 1


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
        data = read_archive(tmp_path / "rec.npz")
        series = data.rank(0)
        assert series.duration_seconds == pytest.approx(
            recovered.duration_seconds
        )
        for tid, buf in monitor.lwp_series.items():
            np.testing.assert_array_equal(series.lwp[tid], buf.array)
        for cpu, buf in monitor.hwt_series.items():
            np.testing.assert_array_equal(series.hwt[cpu], buf.array)
        np.testing.assert_array_equal(series.mem, monitor.mem_series.array)
        assert series.p2p is None  # the matrix lives in the recorder
