"""End-to-end + per-layer benchmark of the ZeroSum reproduction.

Two ways to run it, from the repository root:

* one workload for a fixed time, the form ``BENCHMARK.json`` declares::

      python3 benchmarks/e2e/run.py --workload sim_bound --seed 1 \\
          --seconds 12 --trace 0

  starts fresh-subprocess repeats of the workload until ``--seconds``
  have passed, checks their outputs, prints every metric (median,
  quartiles, sample count) and, as the last line, one JSON object with
  ``correct``/``attempted``/``failed``/``metrics``.  ``--trace 0``
  reports the end-to-end metrics, ``--trace 1`` the per-layer ones.

* the whole suite, repeats interleaved round-robin across workloads so
  machine drift spreads evenly::

      python3 benchmarks/e2e/run.py [--seed N] [--repeats R] [--trace] [--smoke]

  writes ``benchmarks/e2e/out/result.json`` (``--out`` to move it), and
  ``run.py --compare A.json B.json`` sets two such files side by side.

Exit status is non-zero when any output check fails.  See README.md in
this directory for the metric glossary and the layer table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads
from workloads import HERE, OUT, REPO

WORKLOADS = tuple(workloads.WORKLOADS)
#: a workload whose output is checked against (and whose sharded ratios
#: are taken over) a serial twin of the same seed
SERIAL_TWIN = {"pic_512_w2": "pic_512"}
#: a repeat that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 150


def load_spec() -> dict:
    with open(REPO / "BENCHMARK.json") as handle:
        return json.load(handle)


# -- one repeat = one fresh subprocess -----------------------------------------


def spawn(workload: str, seed: int, traced: bool, smoke: bool, repeat: int) -> dict:
    """Run one repeat; a crash or timeout comes back as a failed result."""
    cmd = [
        sys.executable, str(HERE / "workloads.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(traced)), "--repeat", str(repeat),
        "--spawned-at", repr(time.monotonic()),
    ]
    if smoke:
        cmd.append("--smoke")
    # own session: a timed-out sharded repeat takes its workers with it
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        stdout, stderr = proc.communicate()
        stderr += f"\nkilled after {CHILD_TIMEOUT_S} s"
    lines = stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        return json.loads(lines[-1])
    return {
        "workload": workload, "seed": seed, "traced": traced, "crashed": True,
        "attempted": 1, "failed": 1,
        "failures": [
            f"repeat {repeat} exited {proc.returncode}: "
            + " | ".join(stderr.strip().splitlines()[-3:])
        ],
    }


# -- statistics ------------------------------------------------------------------


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count, the way every metric prints."""
    if len(values) >= 2:
        p25, _, p75 = statistics.quantiles(values, n=4)
    else:
        p25 = p75 = values[0]
    return {
        "median": statistics.median(values), "p25": p25, "p75": p75,
        "n": len(values), "values": values,
    }


def aggregate(workload: str, repeats: list[dict], twins: list[dict]) -> dict:
    """Fold the repeats of one workload into its metrics and checks.

    End-to-end numbers come from the untraced repeats only; traced
    repeats give the per-layer numbers; ``twins`` are untraced repeats
    of the workload's serial twin (empty when it has none).
    """
    alive = [r for r in repeats if not r.get("crashed")]
    untraced = [r for r in alive if not r["traced"]]
    traced = [r for r in alive if r["traced"]]
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    failures = [f for r in repeats for f in r["failures"]]

    def check(name: str, ok: bool, detail: str) -> None:
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            failures.append(f"{name}: {detail}")

    counts = alive[0]["counts"] if alive else {}
    # a deterministic simulator with a fixed seed repeats exactly
    check(
        "same_seed_identical",
        all(r["counts"] == counts for r in alive),
        "repeats of one seed disagree on: " + ", ".join(sorted(
            key for r in alive for key in counts
            if r["counts"].get(key) != counts[key]
        )),
    )
    twins = [t for t in twins if not t.get("crashed") and not t["traced"]]
    if workload in SERIAL_TWIN:
        check(
            "matches_serial_twin",
            bool(twins and alive) and all(
                t["counts"]["matrix_digest"] == counts["matrix_digest"]
                for t in twins
            ),
            f"comm matrix differs from {SERIAL_TWIN[workload]}'s "
            "(or the twin did not run)",
        )

    e2e = {
        metric: summarize([r["e2e"][metric] for r in untraced])
        for metric in (untraced[0]["e2e"] if untraced else ())
    }
    layers: dict[str, dict] = {}
    if traced and untraced:
        layers = _layer_summaries(counts, e2e, untraced, traced, twins)
    return {
        "workload": workload,
        "e2e": e2e,
        "layers": layers,
        "counts": counts,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }


def _layer_summaries(counts, e2e, untraced, traced, twins) -> dict[str, dict]:
    """Per-layer metrics: span self times and span counts from the traced
    repeats, exact counts from any repeat, latencies and rates from the
    untraced ones (tracing would inflate them)."""
    series: dict[str, list[float]] = {}
    for key, value in counts.items():
        if isinstance(value, (int, float)):
            series[key] = [value]
    for source, field in ((untraced, "extra"), (traced, "layers")):
        for key in source[0][field]:
            series[key] = [r[field][key] for r in source]
    layers = {key: summarize(values) for key, values in series.items()}

    wall = e2e["wall_s"]["median"]
    traced_wall = statistics.median(r["e2e"]["wall_s"] for r in traced)
    derived = {"trace.overhead_pct": (traced_wall - wall) / wall * 100.0}
    if "kernel.ticks" in counts:
        derived["kernel.ticks_per_s"] = counts["kernel.ticks"] / wall
    if "mpi.messages" in counts:
        derived["mpi.msgs_per_s"] = counts["mpi.messages"] / wall
    if twins:
        twin_wall = statistics.median(t["e2e"]["wall_s"] for t in twins)
        twin_cpu = statistics.median(t["e2e"]["cpu_s"] for t in twins)
        derived["launch.sharded.speedup_vs_serial"] = twin_wall / wall
        derived["launch.sharded.cpu_over_serial"] = (
            e2e["cpu_s"]["median"] / twin_cpu
        )
    for key, value in derived.items():
        layers[key] = summarize([value])
    return layers


# -- output ----------------------------------------------------------------------


def print_summary(result: dict, units: dict[str, str]) -> None:
    name = result["workload"]
    for section in ("e2e", "layers"):
        for metric, s in result[section].items():
            print(
                f"{name:13s} {metric:36s} {units.get(metric, '?'):>7s} "
                f"median {s['median']:<14.6g} p25 {s['p25']:<14.6g} "
                f"p75 {s['p75']:<14.6g} n {s['n']}"
            )
    if name == "pic_512_w2" and result["layers"]:
        print(f"{name:13s} (orchestrator-side spans only: worker-internal "
              "layers read 0 until the in-program telemetry issue)")
    print(f"{name:13s} attempted {result['attempted']} failed {result['failed']}")
    for failure in result["failures"]:
        print(f"{name:13s} FAILED {failure}")


def contract_line(result: dict, spec: dict, trace: bool) -> str:
    """The one JSON object the benchmark driver reads."""
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["layers"] if trace else result["e2e"]
    metrics = {
        m["name"]: {
            # a layer this workload never enters reads 0
            "value": values[m["name"]]["median"] if m["name"] in values else 0.0,
            "unit": m["unit"],
        }
        for m in declared
    }
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": max(1, result["attempted"]),
            "failed": result["failed"],
            "metrics": metrics,
        }
    )


# -- the two run modes ---------------------------------------------------------


def run_one(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Repeat one workload until ``seconds`` have passed."""
    twin = SERIAL_TWIN.get(workload)
    twins = [spawn(twin, seed, False, smoke, 0)] if twin else []
    repeats: list[dict] = []
    deadline = time.monotonic() + seconds
    while True:
        # a traced run alternates traced and untraced repeats: their
        # difference is the tracing overhead
        traced = trace and len(repeats) % 2 == 0
        repeats.append(spawn(workload, seed, traced, smoke, len(repeats)))
        if time.monotonic() >= deadline and len(repeats) >= (2 if trace else 1):
            break
    return aggregate(workload, repeats, twins)


def run_suite(seed: int, rounds: int, trace: bool, smoke: bool) -> dict:
    """Every workload ``rounds`` times, interleaved round-robin."""
    repeats: dict[str, list[dict]] = {name: [] for name in WORKLOADS}
    host = host_facts()
    for index in range(rounds):
        for name in WORKLOADS:
            repeats[name].append(spawn(name, seed, False, smoke, index))
    if trace:
        for name in WORKLOADS:
            repeats[name].append(spawn(name, seed, True, smoke, rounds))
    host["loadavg_end"] = _loadavg()
    return {
        "seed": seed,
        "smoke": smoke,
        "host": host,
        "workloads": {
            name: aggregate(
                name, repeats[name], repeats.get(SERIAL_TWIN.get(name), [])
            )
            for name in WORKLOADS
        },
    }


def _loadavg() -> str:
    return Path("/proc/loadavg").read_text().strip()


def host_facts() -> dict:
    """What a reader needs to judge whether two result files compare."""
    import numpy

    model = next(
        (line.split(":", 1)[1].strip()
         for line in Path("/proc/cpuinfo").read_text().splitlines()
         if line.startswith("model name")),
        platform.processor() or "unknown",
    )
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True, text=True
    )
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else "unknown",
        "loadavg_start": _loadavg(),
    }


# -- comparing two result files --------------------------------------------------


def verdict(a: dict, b: dict, bound: float, better: str) -> tuple[float, str]:
    """Relative change of B's median against A's, and what it means.

    ``unresolved``: the run-to-run spread (quartile distance over the
    median, either side) is wider than the bound and the two sides' runs
    overlap, so the change can be called neither a regression nor none.
    """
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((s["p75"] - s["p25"]) / s["median"] for s in (a, b))
    overlap = (
        min(a["values"]) <= max(b["values"])
        and min(b["values"]) <= max(a["values"])
    )
    if spread > bound and overlap:
        return worse_by, "unresolved"
    return worse_by, "regressed" if worse_by > bound else "ok"


def compare(path_a: str, path_b: str, spec: dict) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    print(f"A: {path_a}  seed {a['seed']}  {a['host']}")
    print(f"B: {path_b}  seed {b['seed']}  {b['host']}")
    regressed = 0
    for metric in spec["end_to_end"]:
        for name in WORKLOADS:
            sa = a["workloads"][name]["e2e"][metric["name"]]
            sb = b["workloads"][name]["e2e"][metric["name"]]
            change, status = verdict(sa, sb, metric["bound"], metric["better"])
            regressed += status == "regressed"
            print(
                f"{metric['name']:12s} {name:13s} A {sa['median']:<12.6g} "
                f"B {sb['median']:<12.6g} worse by {change * 100:+7.2f} % "
                f"(bound {metric['bound'] * 100:.0f} %)  {status}"
            )
    for name in WORKLOADS:
        ca, cb = a["workloads"][name]["counts"], b["workloads"][name]["counts"]
        same = ca == cb
        regressed += not same
        print(f"counts       {name:13s} {'identical' if same else 'DIFFER'}")
    return 1 if regressed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run this one workload for --seconds")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="with --workload: how long to keep repeating "
                             "(default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="report the per-layer metrics")
    parser.add_argument("--repeats", type=int, default=5,
                        help="suite mode: untraced repeats per workload")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one repeat: a < 30 s self-test")
    parser.add_argument("--out", default=str(OUT / "result.json"),
                        help="suite mode: where the result file goes")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if not (REPO / "src" / "repro").is_dir():
        print(f"no program to benchmark: {REPO / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if args.workload:
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        result = run_one(
            args.workload, args.seed, seconds, bool(args.trace), args.smoke
        )
        print_summary(result, units)
        if not result["layers" if args.trace else "e2e"]:
            return 1  # every repeat crashed: there is nothing to report
        print(contract_line(result, spec, bool(args.trace)))
        return 0 if result["failed"] == 0 else 1

    suite = run_suite(
        args.seed, 1 if args.smoke else args.repeats, bool(args.trace), args.smoke
    )
    for result in suite["workloads"].values():
        print_summary(result, units)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:
        json.dump(suite, handle, indent=1)
    print(f"result written: {out}")
    return 0 if all(r["failed"] == 0 for r in suite["workloads"].values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
