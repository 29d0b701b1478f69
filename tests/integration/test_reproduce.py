"""The paper's experiments as one checked table (`zerosum-sim reproduce`)."""

import os
import re
import subprocess
import sys
from itertools import count
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import reproduce
from repro.cli import main
from repro.reproduce import TABLE

REPO = Path(__file__).resolve().parents[2]
COMMITTED = REPO / "EXPERIMENTS.generated.md"
#: every row but the two sweeps (F8: 40 jobs, A1: 36), which CI checks
FAST = [rid for rid in TABLE if rid not in ("F8", "A1")]


def _design_index():
    """id -> its line of DESIGN.md's experiment index."""
    lines = (REPO / "DESIGN.md").read_text().splitlines()
    index = {}
    for line in lines:
        found = re.match(r"\| ([A-Z]\d|RT) \|", line)
        if found:
            index[found.group(1)] = line
    return index


class TestTable:
    def test_ids_are_designs_thirteen(self):
        index = _design_index()
        assert list(TABLE) == list(index) and len(index) == 13
        for rid, line in index.items():
            assert TABLE[rid].id == rid
            assert f"`zerosum-sim reproduce {rid}`" in line

    @pytest.mark.parametrize("rid", list(TABLE))
    def test_row_is_complete(self, rid):
        row = TABLE[rid]
        assert row.claims, "a row with nothing to claim reproduces nothing"
        assert all(callable(holds) for holds in row.claims.values())
        assert callable(row.measure)

    def test_shared_jobs_are_equal_by_value(self):
        assert TABLE["T1"].jobs["default"] == TABLE["RT"].jobs["default"]
        assert TABLE["F6"].jobs == TABLE["F7"].jobs
        assert TABLE["T1"].jobs["default"] != TABLE["T2"].jobs["cores7"]

    @pytest.mark.parametrize("rid", ["F8", "A1"])
    def test_the_sweeps_measure_and_claim_over_stubbed_jobs(
        self, rid, monkeypatch
    ):
        """The two rows tier-1 does not simulate: their extractors and
        claims still have to agree on the quantity names."""
        pytest.importorskip("scipy")

        runs = count()

        def stub(job):
            # a monitored run is a little slower and took some samples
            period = job.config.period_seconds if job.config else 0.0
            seconds = 4.0 + 0.001 * (next(runs) % 7) + 0.002 * bool(period)
            return SimpleNamespace(
                duration_seconds=seconds,
                monitors=[SimpleNamespace(samples_taken=int(4 / period))]
                if period else [],
            )

        monkeypatch.setattr(reproduce.Job, "run", stub)
        (result,) = reproduce.run_rows([rid])
        assert len(result.cells) >= 5
        assert all(text.strip() for cell in result.cells for text in cell)
        # every claim was evaluated (a misspelt quantity is a KeyError)
        assert set(result.failed) <= set(TABLE[rid].claims)


class TestCommittedRecord:
    @pytest.fixture(scope="class")
    def check(self):
        """``reproduce --check`` of the eleven rows, in a process of its own:
        it is the command CI runs, and the heap their 8- to 512-rank jobs
        leave behind stays out of the pytest process, whose later tests
        fork sharded workers from it."""
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", "reproduce", *FAST,
             "--check", str(COMMITTED)],
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            capture_output=True, text=True, timeout=300,
        )

    def test_no_value_has_drifted_and_every_claim_holds(self, check):
        assert check.stderr == ""
        assert check.returncode == 0

    def test_a_paper_value_for_every_measured_quantity(self, check):
        sections = check.stdout.split("\n## ")[1:]
        assert [text.split(" — ")[0] for text in sections] == FAST
        for text in sections:
            cells = [line.strip("|").split("|") for line in text.splitlines()
                     if line.startswith("| ")][1:]
            names = [name for name, _, _ in cells]
            assert names and len(set(names)) == len(names)
            assert all(cell.strip() for row in cells for cell in row)
            assert "\n- [x] " in text and "- [ ]" not in text

    def test_the_record_covers_all_thirteen_rows(self):
        headings = re.findall(r"^## (\S+) — ", COMMITTED.read_text(), re.M)
        assert headings == list(TABLE)


class TestCommand:
    def test_check_of_a_clean_tree_exits_zero(self, capsys):
        assert main(["reproduce", "L1", "T3", "--check", str(COMMITTED)]) == 0
        captured = capsys.readouterr()
        assert "| nv_ctx on core 7 (shared with ZeroSum) | 208 | " in captured.out
        assert captured.err == ""

    def test_an_edited_committed_value_names_row_and_quantity(
        self, capsys, tmp_path
    ):
        text = COMMITTED.read_text()
        assert text.count("| 838–857 |") == 1
        edited = tmp_path / "edited.md"
        edited.write_text(text.replace("| 838–857 |", "| 400–420 |"))
        assert main(["reproduce", "T1", "--check", str(edited)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "zerosum-sim: reproduce: T1: "
            "committed `| OpenMP nv_ctx | 92 528–394 014 | 400–420 |`, "
            "measured `| OpenMP nv_ctx | 92 528–394 014 | 838–857 |`"
        ]

    def test_a_row_missing_from_the_record_fails_the_check(
        self, capsys, tmp_path
    ):
        partial = tmp_path / "partial.md"
        assert main(["reproduce", "L1"]) == 0
        partial.write_text(capsys.readouterr().out)
        assert main(["reproduce", "L1", "T3", "--check", str(partial)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "zerosum-sim: reproduce: T3: not in the committed record"
        ]

    def test_a_failing_claim_exits_one(self, capsys, monkeypatch):
        claim = "interleaved PU indexing (logical 1 is OS 4)"
        monkeypatch.setitem(TABLE["L1"].claims, claim, lambda measured: False)
        assert main(["reproduce", "L1"]) == 1
        captured = capsys.readouterr()
        assert f"- [ ] {claim}" in captured.out
        assert captured.err.splitlines() == [
            f"zerosum-sim: reproduce: L1: claim does not hold: {claim}"
        ]

    def test_stdout_is_the_record_and_deterministic(self, capsys, tmp_path):
        assert main(["reproduce", "L1", "T3"]) == 0
        first = capsys.readouterr()
        assert main(["reproduce", "L1", "T3"]) == 0
        assert capsys.readouterr().out == first.out
        assert first.err == ""
        # `zerosum-sim reproduce > FILE` is how the record is regenerated
        saved = tmp_path / "saved.md"
        saved.write_text(first.out)
        assert main(["reproduce", "T3", "--check", str(saved)]) == 0

    @pytest.mark.parametrize("argv, message", [
        (["reproduce", "T9", "L1"],
         "zerosum-sim: error: unknown experiment id T9; choose from "
         "L1 L2 T1 T2 T3 RT F5 F6 F7 F8 A1 A2 A3"),
        (["reproduce", "L1", "--check", "/no/such/dir/x.md"],
         "zerosum-sim: error: cannot read /no/such/dir/x.md: "
         "No such file or directory"),
    ])
    def test_misuse_is_one_error_line(self, capsys, argv, message):
        assert main(argv) == 2
        assert capsys.readouterr().err.splitlines() == [message]

    def test_the_cli_does_not_import_the_table(self):
        script = (
            "import sys, repro, repro.cli\n"
            "assert 'repro.reproduce' not in sys.modules\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
