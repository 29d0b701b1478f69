"""CLI smoke tests (zerosum-sim)."""

import numpy as np
import pytest

from repro.cli import main
from repro.core import render_log
from tests.helpers import run_miniqmc


class TestTopologyCommand:
    def test_testnode(self, capsys):
        assert main(["topology", "testnode"]) == 0
        out = capsys.readouterr().out
        assert "PU L#1 P#4" in out

    def test_frontier_with_gpus(self, capsys):
        assert main(["topology", "frontier", "--gpus"]) == 0
        out = capsys.readouterr().out
        assert "GPU P#0 NUMA#3" in out

    def test_unknown_machine(self, capsys):
        with pytest.raises(SystemExit):
            main(["topology", "notamachine"])


#: a log as rendered before it carried a run-record section
_LOG_WITHOUT_RECORD = b"""ZeroSum attached to PID 7 on nid001
CPUs allowed: [0-1]

Duration of execution: 1.000 s

Process Summary:
PID 7 - Node nid001 - CPUs allowed: [0-1]

LWP (thread) Summary:
LWP 7: Main - stime:   0.00, utime: 100.00, nv_ctx: 0, ctx: 1, CPUs: [0-1]

== LWP samples (CSV) ==
tid,tick,state,utime,stime,nv_ctx,ctx,minflt,majflt,processor
7,100,0,100,0,0,1,0,0,0
"""


class TestMisuse:
    def test_zero_tasks_is_one_error_line_not_a_traceback(self, capsys):
        assert main(["run", "srun -n0 zerosum-mpi miniqmc"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "zerosum-sim: error: ntasks must be >= 1"
        ]
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("workers", ["0", "-5"])
    def test_non_positive_workers_is_one_error_line(self, capsys, workers):
        assert main(["heatmap", "--ranks", "8", "--workers", workers]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "zerosum-sim: error: workers must be >= 1"
        ]

    def test_a_bug_is_not_dressed_up_as_misuse(self, monkeypatch):
        """Only the package's own ReproError is misuse; the rest propagates."""
        import repro.cli as cli

        def boom(*args, **kwargs):
            raise RuntimeError("bug")

        monkeypatch.setattr(cli, "launch_job", boom)
        with pytest.raises(RuntimeError, match="bug"):
            main(["run", "srun -n1 miniqmc"])

    @pytest.mark.parametrize("seconds", ["-1", "0", "nan", "inf"])
    def test_seconds_not_positive_and_finite_is_one_error_line(
        self, capsys, seconds
    ):
        """A run too short to sample twice reported 3900 % utime."""
        assert main(["live", "--seconds", seconds]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"zerosum-sim: error: --seconds must be positive and finite, "
            f"not {float(seconds):g}"
        ]

    @pytest.mark.parametrize("content, reason", [
        (b"", "log carries no run record"),
        (b"node0042\n", "log carries no run record"),
        (b"\xff\xfe\x00\x81", "log carries no run record"),
        (b"Duration of execution: 1.0 s\n== LWP samples (CSV) ==\n"
         b"tid,tick\n1,x\n", "malformed CSV row: could not convert "
                             "string to float: 'x'"),
        (_LOG_WITHOUT_RECORD, "log carries no run record"),
        (b"== run record (JSON) ==\n{\"record\": \n== LWP samples (CSV) ==\n",
         "malformed run record: Expecting value: line 1 column 12 (char 11)"),
    ], ids=["empty", "hostname", "binary", "malformed-log", "no-record",
            "bad-record-json"])
    def test_neither_journal_nor_log_is_one_error_line(
        self, capsys, tmp_path, content, reason
    ):
        path = tmp_path / "input"
        path.write_bytes(content)
        assert main(["recover", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            f"zerosum-sim: error: {path}: neither a spill journal nor a "
            f"ZeroSum log ({reason})"
        ]

    @pytest.fixture
    def journal(self, tmp_path):
        path = tmp_path / "run.zsj"
        assert main(["live", "--seconds", "0.2", "--period", "0.05",
                     "--journal", str(path)]) == 0
        return str(path)

    @pytest.mark.parametrize("argv, path", [
        (["live", "--seconds", "0.1", "--journal", "/no/such/dir/x.zsj"],
         "/no/such/dir/x.zsj"),
        (["live", "--seconds", "0.1", "--heartbeat", "/no/such/dir/hb"],
         "/no/such/dir/hb"),
        (["recover", "JOURNAL", "--log-dir", "/proc/nope/x"],
         "/proc/nope/x"),
        (["recover", "JOURNAL", "--archive", "/no/such/dir/a.npz"],
         "/no/such/dir/a.npz"),
    ])
    def test_unwritable_output_path_is_one_error_line(
        self, capsys, journal, argv, path
    ):
        argv = [journal if arg == "JOURNAL" else arg for arg in argv]
        capsys.readouterr()  # drop the fixture run's report
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"zerosum-sim: error: cannot write {path}: ")
        assert "Traceback" not in err[0]

    def test_a_malformed_journal_record_is_one_error_line(
        self, capsys, tmp_path
    ):
        """Well framed (valid CRC), yet nothing a writer produces."""
        from repro.collect.journal import _frame

        path = tmp_path / "crafted.zsj"
        path.write_bytes(_frame({"kind": "snapshot"}))  # no "store"
        assert main(["recover", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith(f"zerosum-sim: error: {path}: ")

    def test_an_os_error_elsewhere_is_not_dressed_up_as_misuse(
        self, monkeypatch
    ):
        """Only the user-supplied output paths are mapped."""
        import repro.live as live

        def boom(self):
            raise OSError(5, "Input/output error")

        monkeypatch.setattr(live.LiveZeroSum, "start", boom)
        with pytest.raises(OSError):
            main(["live", "--seconds", "0.1"])


class TestRecoverLog:
    """``recover PATH`` rebuilds a finished run's report from its §3.6
    log as well as from a journal: the offline workflow (a live log:
    ``tests/live/test_live.py::TestLiveReplayRoundTrip``)."""

    @pytest.fixture(scope="class")
    def sim_rank(self):
        step = run_miniqmc("OMP_NUM_THREADS=3 srun -n2 zerosum-mpi miniqmc",
                           blocks=4)
        return step.monitor(1)

    @staticmethod
    def _recover(capsys, path, *options):
        assert main(["recover", str(path), *options]) == 0
        return capsys.readouterr().out

    def test_sim_rank_log(self, capsys, tmp_path, sim_rank):
        name, text = render_log(sim_rank)
        (tmp_path / name).write_text(text)
        out = self._recover(capsys, tmp_path / name)
        assert out.startswith(sim_rank.report().render() + "\n")
        assert "Contention report (rank 1)" in out

    def test_log_dir_and_archive_work_on_a_log(self, capsys, tmp_path,
                                               sim_rank):
        name, text = render_log(sim_rank)
        (tmp_path / name).write_text(text)
        out_dir, archive = tmp_path / "out", tmp_path / "run.npz"
        self._recover(capsys, tmp_path / name, "--log-dir", str(out_dir),
                      "--archive", str(archive))
        # the rewritten log recovers to the same report again
        out = self._recover(capsys, out_dir / name)
        assert out.startswith(sim_rank.report().render() + "\n")
        with np.load(archive) as npz:
            assert f"rank1/lwp/{sim_rank.pid}" in npz.files


class TestRunCommand:
    def test_table3_run(self, capsys):
        rc = main([
            "run",
            "OMP_NUM_THREADS=7 OMP_PROC_BIND=spread OMP_PLACES=cores "
            "srun -n8 -c7 zerosum-mpi miniqmc",
            "--blocks", "3", "--block-jiffies", "30",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Duration of execution" in out
        assert "LWP (thread) Summary:" in out
        assert "Contention report" in out

    def test_default_config_reports_contention_and_advice(self, capsys):
        rc = main([
            "run", "OMP_NUM_THREADS=7 srun -n8 zerosum-mpi miniqmc",
            "--blocks", "4", "--block-jiffies", "50",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "oversubscription" in out
        assert "Configuration advice:" in out
        assert "-c7" in out

    def test_top_flag_prints_allocation_view(self, capsys):
        rc = main([
            "run",
            "OMP_NUM_THREADS=7 OMP_PROC_BIND=spread OMP_PLACES=cores "
            "srun -n8 -c7 zerosum-mpi miniqmc",
            "--blocks", "3", "--top",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Allocation overview:" in out
        assert "load imbalance" in out


class TestHeatmapCommand:
    def test_heatmap(self, capsys):
        rc = main(["heatmap", "--ranks", "16", "--steps", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "heatmap (16 ranks" in out
        assert "diagonal dominance" in out


class TestLiveCommand:
    def test_live(self, capsys):
        rc = main(["live", "--seconds", "0.4", "--period", "0.1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "LWP (thread) Summary:" in out
        # the §3.5 reading follows the utilization report, as in `run`
        assert out.index("Contention report") > out.index("LWP (thread)")
