"""Overhead statistics machinery (Figure 8)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.analysis import DistributionSummary, compare_distributions
from repro.collect import SampleStore
from repro.collect.journal import JournalWriter
from repro.errors import MonitorError, ReproError


class TestDistributionSummary:
    def test_from_samples(self):
        s = DistributionSummary.from_samples("x", [1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.n == 3
        assert s.minimum == 1.0 and s.maximum == 3.0

    def test_needs_two(self):
        with pytest.raises(MonitorError):
            DistributionSummary.from_samples("x", [1.0])

    def test_render(self):
        s = DistributionSummary.from_samples("base", [1.0, 1.0])
        assert "base:" in s.render()


class TestCompare:
    def test_identical_distributions_not_significant(self):
        rng = np.random.default_rng(0)
        a = rng.normal(27.33, 0.04, size=10)
        b = rng.normal(27.33, 0.04, size=10)
        result = compare_distributions(a, b)
        assert not result.significant
        assert abs(result.mean_overhead_percent) < 0.5

    def test_shifted_distribution_detected(self):
        """The paper's 2-threads-per-core case: ~0.5 % mean shift with
        tight spreads is statistically visible."""
        rng = np.random.default_rng(1)
        base = rng.normal(57.0657, 0.0486, size=10)
        treated = rng.normal(57.3409, 0.1823, size=10)
        result = compare_distributions(base, treated)
        assert result.significant
        assert 0.2 < result.mean_overhead_percent < 1.0

    def test_welch_vs_student(self):
        rng = np.random.default_rng(2)
        a = rng.normal(10, 0.1, 10)
        b = rng.normal(10.5, 0.5, 10)
        welch = compare_distributions(a, b, equal_var=False)
        student = compare_distributions(a, b, equal_var=True)
        assert welch.p_value != student.p_value
        assert welch.significant and student.significant

    def test_render_mentions_verdict(self):
        rng = np.random.default_rng(3)
        a = rng.normal(1, 0.01, 10)
        result = compare_distributions(a, a + 1.0)
        text = result.render()
        assert "overhead detected" in text
        assert "t-test" in text

    def test_labels(self):
        result = compare_distributions([1, 2, 3], [1, 2, 3],
                                       labels=("before", "after"))
        assert result.baseline.label == "before"
        assert result.treated.label == "after"


class TestDependencyDiet:
    def test_missing_scipy_names_the_extra(self, monkeypatch):
        """scipy is an optional extra: without it, a one-line error."""
        monkeypatch.setitem(sys.modules, "scipy", None)  # import -> not found
        with pytest.raises(ReproError, match=r"pip install repro\[analysis\]"):
            compare_distributions([1.0, 2.0], [1.0, 2.5])

    def test_cli_recover_loads_neither_scipy_nor_networkx(self, tmp_path):
        """scipy serves one t-test: `zerosum-sim` must not import it."""
        journal = tmp_path / "run.zsj"
        store = SampleStore()
        writer = JournalWriter(journal, fsync=False)
        writer.open(store, {"pid": 1, "hostname": "node0"})
        store.add_lwp_row(1, (1.0,) + (0.0,) * 8, name="main")
        store.commit(1.0, [])
        writer.record_period(store, 1.0)
        writer.close(store)
        script = (
            "import sys, repro.cli\n"
            f"assert repro.cli.main(['recover', {str(journal)!r}]) == 0\n"
            "loaded = {m.split('.')[0] for m in sys.modules}\n"
            "assert not loaded & {'scipy', 'networkx'}, loaded\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "LWP (thread) Summary:" in done.stdout
