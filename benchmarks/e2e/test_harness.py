"""Self-test of the e2e benchmark harness (`python -m pytest benchmarks/e2e -q`).

Not part of the tier-1 suite (``testpaths`` is ``tests``): the smoke run
below starts some twenty subprocesses and takes about 20 s.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

HERE = Path(__file__).resolve().parent
SPEC = run.load_spec()
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _names(section: str) -> list[str]:
    return [entry["name"] for entry in SPEC[section]]


def test_spec_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = _names("workloads") + _names("end_to_end") + _names("per_layer")
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    assert tuple(_names("workloads")) == run.WORKLOADS


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One traced smoke run of the whole suite."""
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    return json.loads(out.read_text())


def test_smoke_output_and_spec_declare_the_same_names(smoke):
    workloads = smoke["workloads"]
    assert list(workloads) == _names("workloads")
    for result in workloads.values():
        assert result["failed"] == 0, result["failures"]
        assert result["attempted"] >= 1
        # every end-to-end metric, on every workload, and never 0
        assert sorted(result["e2e"]) == sorted(_names("end_to_end"))
        assert all(s["median"] > 0 for s in result["e2e"].values())
    produced = {name for r in workloads.values() for name in r["layers"]}
    assert produced == set(_names("per_layer"))


def test_smoke_layers_add_up_and_stay_in_their_lane(smoke):
    self_time = set(workloads.SELF_TIME_METRICS.values())
    for name, result in smoke["workloads"].items():
        layers = {k: s["median"] for k, s in result["layers"].items()}
        traced_wall = sum(v for k, v in layers.items() if k in self_time)
        untraced = layers["trace.untraced_s"]
        assert untraced <= 0.10 * traced_wall, (name, untraced, traced_wall)
    live = smoke["workloads"]["live_proc"]["layers"]
    assert live["collect.reader.read_s"]["median"] > 0
    for simulator_layer in ("kernel.run_self_s", "procfs.read_s",
                            "procfs.snapshot_s", "core.monitor.attach_s"):
        assert live[simulator_layer]["median"] == 0
    assert smoke["workloads"]["sim_bound"]["layers"][
        "collect.journal.write_s"]["median"] == 0
    assert smoke["workloads"]["sim_sampling"]["layers"][
        "collect.journal.write_s"]["median"] > 0


def test_self_time_is_duration_minus_child_cover():
    names = ["root", "a", "b"]
    spans = [
        (0, 0, 100, -1),   # root 0..100
        (1, 10, 50, 0),    #   a 10..50
        (2, 20, 30, 1),    #     b 20..30
        (1, 60, 90, 0),    #   a 60..90
        (1, 70, 80, 3),    #     a inside a 70..80
    ]
    own = tracing.self_times(spans, names)
    assert own == {"root": 30e-9, "a": 60e-9, "b": 10e-9}
    assert sum(own.values()) == pytest.approx(100e-9)
    inclusive = tracing.inclusive_times(spans, names)
    assert inclusive == {"root": 100e-9, "a": 70e-9, "b": 10e-9}


def test_wrappers_are_restored():
    class Layer:
        def work(self):
            return 7

    original = Layer.__dict__["work"]
    tracer = tracing.Tracer(enabled=True)
    tracer.wrap(Layer, "work", "layer.work")
    with tracer.span("root"):
        assert Layer().work() == 7
    tracer.restore()
    assert Layer.__dict__["work"] is original
    assert [(tracer.names[n], p) for n, _, _, p in tracer.spans] == [
        ("root", -1), ("layer.work", 0)
    ]


def _repeat(failed: int, ticks: int = 10) -> dict:
    return {
        "workload": "sim_bound", "seed": 1, "traced": False,
        "e2e": {"setup_s": 0.3, "wall_s": 1.0, "cpu_s": 1.0, "peak_rss_mb": 40.0},
        "attempted": 5, "failed": failed,
        "failures": ["zero_sum: cpu3"] * failed,
        "counts": {"kernel.ticks": ticks}, "extra": {},
    }


def test_a_failing_check_flips_the_exit_code(monkeypatch, capsys):
    argv = ["--workload", "sim_bound", "--seconds", "0"]
    monkeypatch.setattr(run, "spawn", lambda *a: _repeat(failed=0))
    assert run.main(argv) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["correct"] is True
    monkeypatch.setattr(run, "spawn", lambda *a: _repeat(failed=1))
    assert run.main(argv) == 1
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (False, 1)


def test_repeats_of_one_seed_must_agree():
    result = run.aggregate(
        "sim_bound", [_repeat(0, ticks=10), _repeat(0, ticks=11)], []
    )
    assert result["failed"] == 1
    assert "kernel.ticks" in result["failures"][0]


def test_compare_verdicts():
    a = run.summarize([1.00, 1.01, 1.02])
    assert run.verdict(a, run.summarize([1.02, 1.03, 1.04]), 0.10, "lower")[1] == "ok"
    assert run.verdict(a, run.summarize([1.30, 1.31, 1.32]), 0.10, "lower")[1] == "regressed"
    noisy = run.summarize([0.8, 1.0, 1.4])
    assert run.verdict(a, noisy, 0.10, "lower")[1] == "unresolved"


def test_contract_line_carries_every_declared_metric():
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "live_proc",
             "--seed", "2", "--seconds", "0", "--trace", str(trace), "--smoke"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]
        line = json.loads(proc.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == _names(section)
        units = {m["name"]: m["unit"] for m in SPEC[section]}
        assert all(v["unit"] == units[k] for k, v in line["metrics"].items())


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(run.REPO / "BENCHMARK.json", tmp_path)
    bench = tmp_path / "benchmarks" / "e2e"
    bench.mkdir(parents=True)
    for source in HERE.glob("*.py"):
        shutil.copy(source, bench)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sim_bound",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
