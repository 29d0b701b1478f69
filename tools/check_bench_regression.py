#!/usr/bin/env python3
"""Fail CI when a fresh benchmark run regresses against its baseline.

The ``bench_*.py`` guards write machine-readable results to
``BENCH_*.json`` at the repository root; committed reference copies
live in ``benchmarks/baselines/``.  This tool compares the two, one
metric at a time:

* **in-file floors are hard gates** — a ``floor_<metric>`` (or bare
  ``floor``) field inside a scenario states the absolute minimum the
  matching metric may read, whatever machine ran the bench.  ``null``
  floors are skipped (the bench decided the host could not enforce
  one, e.g. too few cores for a speedup floor).
* **baseline ratios are lenient** — throughput-like metrics
  (``*_per_sec``, ``speedup*``, ``*_over_*``) must stay above
  ``(1 - tolerance)`` × baseline and time-like metrics
  (``*_seconds``) below ``(1 + tolerance)`` × baseline.  The default
  tolerance is wide because baselines and CI run on different
  hardware; the floors, not the ratios, carry the contract.
* ``bit_identical: false`` in a fresh result is always a failure —
  correctness is never a tolerance question.
* **tracked bench files must exist** — every file in ``REQUIRED``
  (the benches CI runs unconditionally) must be present among the
  fresh results; a missing one means the bench silently did not run,
  which is a failure, not a warning.

Exit status 1 on any violation, listing every one; missing baselines
are warnings (new benches land before their first committed numbers).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DEFAULT_BASELINE_DIR = REPO / "benchmarks" / "baselines"

#: bench result files CI must always produce; absence is a violation
REQUIRED = (
    "BENCH_scheduler.json",
    "BENCH_sampling.json",
    "BENCH_recovery.json",
)

#: metric name fragments that mean "higher is better"
_HIGHER = ("_per_sec", "speedup", "_over_")
#: metric name fragments that mean "lower is better"
_LOWER = ("_seconds",)
#: scenario fields that are context, not performance metrics
_METADATA = (
    "host_cores",
    "busy_lwps",
    "ticks",
    "samples",
    "lwp_rows",
    "rounds",
)


def _direction(metric: str) -> int:
    """+1 higher-is-better, -1 lower-is-better, 0 not comparable."""
    if any(frag in metric for frag in _HIGHER):
        return 1
    if any(frag in metric for frag in _LOWER):
        return -1
    return 0


def _floor_target(floor_key: str) -> str:
    """The metric a ``floor_*`` field constrains (``floor`` → implicit)."""
    return floor_key[len("floor_"):] if floor_key != "floor" else ""


def check_scenario(
    bench: str,
    scenario: str,
    fresh: dict,
    baseline: dict | None,
    tolerance: float,
) -> list[str]:
    """All violations of one scenario, formatted for the CI log."""
    where = f"{bench}[{scenario}]"
    problems: list[str] = []

    if fresh.get("bit_identical") is False:
        problems.append(f"{where}: bit_identical is false")

    for key, floor in fresh.items():
        if not key.startswith("floor") or floor is None:
            continue
        target = _floor_target(key)
        if target:
            candidates = [target]
        else:  # bare "floor": applies to every comparable metric
            candidates = [
                m for m in fresh
                if _direction(m) > 0 and not m.startswith("floor")
            ]
        for metric in candidates:
            value = fresh.get(metric)
            if isinstance(value, (int, float)) and value < floor:
                problems.append(
                    f"{where}: {metric} = {value:g} below its hard "
                    f"floor {floor:g}"
                )

    if baseline is None:
        return problems
    for metric, value in fresh.items():
        direction = _direction(metric)
        if (
            direction == 0
            or metric.startswith("floor")
            or metric in _METADATA
            or not isinstance(value, (int, float))
        ):
            continue
        ref = baseline.get(metric)
        if not isinstance(ref, (int, float)) or ref <= 0:
            continue
        if direction > 0 and value < ref * (1.0 - tolerance):
            problems.append(
                f"{where}: {metric} = {value:g} fell more than "
                f"{tolerance:.0%} below baseline {ref:g}"
            )
        elif direction < 0 and value > ref * (1.0 + tolerance):
            problems.append(
                f"{where}: {metric} = {value:g} rose more than "
                f"{tolerance:.0%} above baseline {ref:g}"
            )
    return problems


def check_file(fresh_path: Path, baseline_dir: Path, tolerance: float) -> tuple[list[str], list[str]]:
    """(violations, warnings) for one fresh BENCH_*.json."""
    fresh = json.loads(fresh_path.read_text())
    baseline_path = baseline_dir / fresh_path.name
    baseline: dict = {}
    warnings: list[str] = []
    if baseline_path.exists():
        baseline = json.loads(baseline_path.read_text())
    else:
        warnings.append(
            f"{fresh_path.name}: no committed baseline at {baseline_path}"
        )
    problems: list[str] = []
    for scenario, payload in sorted(fresh.items()):
        if not isinstance(payload, dict):
            continue
        problems.extend(
            check_scenario(
                fresh_path.name,
                scenario,
                payload,
                baseline.get(scenario),
                tolerance,
            )
        )
    return problems, warnings


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "fresh",
        nargs="*",
        type=Path,
        help="fresh BENCH_*.json files (default: all at the repo root)",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=DEFAULT_BASELINE_DIR,
        help=f"committed baselines (default: {DEFAULT_BASELINE_DIR})",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.5,
        help="allowed relative drift against the baseline (default 0.5)",
    )
    args = parser.parse_args(argv)

    fresh_files = args.fresh or sorted(REPO.glob("BENCH_*.json"))
    if not fresh_files:
        print("check_bench_regression: no BENCH_*.json files to check")
        return 1

    all_problems: list[str] = []
    if not args.fresh:
        # default (CI) mode: every tracked bench must have produced its
        # results file; an explicit file list is a local debugging flow
        present = {path.name for path in fresh_files if path.exists()}
        for name in REQUIRED:
            if name not in present:
                all_problems.append(
                    f"{name}: tracked bench result missing — its bench "
                    "did not run"
                )
    for path in fresh_files:
        if not path.exists():
            all_problems.append(f"{path}: fresh results file missing")
            continue
        problems, warnings = check_file(path, args.baseline_dir, args.tolerance)
        for warning in warnings:
            print(f"WARNING: {warning}")
        status = "FAIL" if problems else "ok"
        print(f"{path.name}: {status}")
        all_problems.extend(problems)

    if all_problems:
        print()
        for problem in all_problems:
            print(f"REGRESSION: {problem}")
        return 1
    print("all benchmark results within floors and baseline tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
