"""``zerosum-sim``: run the paper's experiments from the command line.

Subcommands:

* ``topology <machine>`` — print the lstopo-style tree (Listing 1);
* ``run "<srun command line>"`` — simulate a monitored miniQMC job
  and print rank 0's utilization report (Listing 2 / Tables 1-3);
* ``heatmap --ranks N`` — run the PIC proxy and print the Figure 5
  heatmap;
* ``live --seconds S`` — monitor this very process via the real /proc
  (``--journal PATH`` makes the run crash-durable);
* ``recover <journal>`` — post-mortem: rebuild the utilization +
  degradation report (and optional log/archive exports) from the
  spill journal of a run that was killed mid-flight;
* ``reproduce [ID ...]`` — run the paper's experiments (DESIGN.md ids
  ``L1 L2 T1 T2 T3 RT F5 F6 F7 F8 A1 A2 A3``) and print the
  paper-vs-measured record on stdout; ``--check FILE`` fails when a
  value committed in FILE has drifted.

``live`` and ``recover`` end, like ``run``, with the §3.5 contention
report of what was sampled.
"""

from __future__ import annotations

import argparse
import sys
import time
from contextlib import contextmanager

from repro.analysis import build_cluster_view
from repro.apps import MiniQmcConfig, PicConfig, miniqmc_app, pic_app
from repro.core import ZeroSumConfig, analyze, zerosum_mpi
from repro.errors import ReproError
from repro.launch import SrunOptions, launch_job
from repro.topology import MACHINE_FACTORIES, frontier_node, render_lstopo

__all__ = ["main"]


@contextmanager
def _writing(path):
    """An ``OSError`` while writing where the user pointed us is misuse."""
    try:
        yield
    except OSError as exc:
        if path is None:  # nothing was supplied: not the user's error
            raise
        raise ReproError(f"cannot write {path}: {exc.strerror}") from exc


def _cmd_topology(args: argparse.Namespace) -> int:
    factory = MACHINE_FACTORIES.get(args.machine)
    if factory is None:
        print(f"unknown machine {args.machine!r}; choose from "
              f"{sorted(MACHINE_FACTORIES)}", file=sys.stderr)
        return 2
    print(render_lstopo(factory(), show_gpus=args.gpus))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    opts = SrunOptions.parse(args.cmdline)
    app = miniqmc_app(
        MiniQmcConfig(
            blocks=args.blocks,
            block_jiffies=args.block_jiffies,
            jitter=0.01,
            seed=args.seed,
            offload=args.offload,
        )
    )
    factory = MACHINE_FACTORIES[args.machine]
    machines = [
        factory(name=f"{args.machine}{i:05d}") for i in range(args.nodes)
    ]
    step = launch_job(
        machines,
        opts,
        app,
        monitor_factory=zerosum_mpi(
            ZeroSumConfig(detect_online=args.detect)
        ),
        workers=args.workers,
    )
    t0 = time.time()
    step.run()
    step.finalize()
    # the accessor surface is shared by the serial and sharded steps
    print(step.report(0).render())
    print(step.findings(0).render())
    print(step.advice(0).render())
    if step.degradations:
        # a degraded sharded run must say so out loud
        print("Worker degradation events:")
        for event in step.degradations:
            print(f"  [{event.action}] {event.reason}")
    if args.top:
        print(build_cluster_view(step.monitors).render())
    print(f"(simulated {step.duration_seconds:.2f} s "
          f"in {time.time() - t0:.2f} s of wall time)")
    return 0


def _cmd_heatmap(args: argparse.Namespace) -> int:
    from repro.mpi import Fabric

    nodes_needed = max(1, (args.ranks + 55) // 56)
    nodes = [frontier_node(name=f"frontier{i:05d}") for i in range(nodes_needed)]
    opts = SrunOptions(ntasks=args.ranks, cpus_per_task=1, command="pic")
    step = launch_job(
        nodes,
        opts,
        pic_app(PicConfig(steps=args.steps)),
        monitor_factory=zerosum_mpi(
            ZeroSumConfig(collect_hwt=False, collect_gpu=False)
        ),
        # byte totals are latency-invariant; a longer lookahead keeps
        # sharded epochs (--workers) long and barriers cheap
        fabric=Fabric(remote_latency=8),
        workers=args.workers,
    )
    step.run()
    step.finalize()
    matrix = step.comm_matrix()
    print(matrix.render(bins=min(64, args.ranks)))
    print(f"diagonal dominance (band 1): "
          f"{matrix.diagonal_dominance(1) * 100:.1f} %")
    return 0


def _cmd_live(args: argparse.Namespace) -> int:
    from repro.live import LiveZeroSum

    with _writing(args.heartbeat):
        monitor = LiveZeroSum(
            ZeroSumConfig(
                period_seconds=args.period,
                journal_path=args.journal,
                journal_checkpoint_every=args.checkpoint_every,
                heartbeat_path=args.heartbeat,
                heartbeat_every=1 if args.heartbeat else 0,
                detect_online=args.detect,
            )
        )
    with _writing(args.journal):
        monitor.start()
    deadline = time.time() + args.seconds
    x = 0
    while time.time() < deadline:  # generate some load to observe
        x += sum(i * i for i in range(2000))
    monitor.stop()
    print(monitor.report().render())
    print(analyze(monitor).render())
    return 0


def _cmd_recover(args: argparse.Namespace) -> int:
    from repro.collect.journal import recover_journal
    from repro.core.archive import write_archive
    from repro.core.export import FileSink, write_log
    from repro.errors import JournalError

    try:
        recovered = recover_journal(args.journal)
    except OSError as exc:
        raise JournalError(f"cannot recover {args.journal}: {exc}") from exc
    print(recovered.report().render())
    print(analyze(recovered).render())
    if recovered.torn_records:
        print(
            f"(discarded {recovered.torn_records} torn trailing journal "
            f"record(s) — the run died mid-write)",
            file=sys.stderr,
        )
    if args.log_dir:
        with _writing(args.log_dir):
            name = write_log(recovered, FileSink(args.log_dir))
        print(f"log written: {args.log_dir}/{name}", file=sys.stderr)
    if args.archive:
        with _writing(args.archive):
            write_archive([recovered], args.archive)
        print(f"archive written: {args.archive}", file=sys.stderr)
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro import reproduce

    committed = None
    if args.check:  # a missing file should not cost the simulation first
        try:
            with open(args.check, encoding="utf-8") as fh:
                committed = fh.read()
        except OSError as exc:
            raise ReproError(
                f"cannot read {args.check}: {exc.strerror}") from exc
    results = reproduce.run_rows(args.ids)
    # the record and nothing else on stdout: `> EXPERIMENTS.generated.md`
    print(reproduce.render(results), end="")
    problems = [
        f"{r.row.id}: claim does not hold: {claim}"
        for r in results for claim in r.failed
    ]
    if committed is not None:
        problems += reproduce.drift(results, committed)
    for problem in problems:
        print(f"zerosum-sim: reproduce: {problem}", file=sys.stderr)
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="zerosum-sim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topology", help="print a machine's topology")
    p.add_argument("machine", choices=sorted(MACHINE_FACTORIES))
    p.add_argument("--gpus", action="store_true", help="include GPU section")
    p.set_defaults(fn=_cmd_topology)

    p = sub.add_parser("run", help="simulate a monitored miniQMC job")
    p.add_argument("cmdline", help='e.g. "OMP_NUM_THREADS=7 srun -n8 -c7 miniqmc"')
    p.add_argument("--blocks", type=int, default=10)
    p.add_argument("--block-jiffies", type=float, default=50.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--offload", action="store_true")
    p.add_argument("--top", action="store_true",
                   help="print the allocation-wide htop-style view")
    p.add_argument("--machine", choices=sorted(MACHINE_FACTORIES),
                   default="frontier")
    p.add_argument("--nodes", type=int, default=1,
                   help="number of simulated nodes (default 1)")
    p.add_argument("--workers", type=int, default=1,
                   help="kernel worker processes for multi-node jobs "
                        "(1 = serial; see repro.launch.sharded)")
    p.add_argument("--detect", action="store_true",
                   help="online contention/precursor detection: raise "
                        "typed alerts during the run, not post mortem")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("heatmap", help="PIC proxy communication heatmap")
    p.add_argument("--ranks", type=int, default=64)
    p.add_argument("--steps", type=int, default=6)
    p.add_argument("--workers", type=int, default=1,
                   help="kernel worker processes for multi-node jobs "
                        "(1 = serial; see repro.launch.sharded)")
    p.set_defaults(fn=_cmd_heatmap)

    p = sub.add_parser("live", help="monitor this process via real /proc")
    p.add_argument("--seconds", type=float, default=2.0)
    p.add_argument("--period", type=float, default=0.25)
    p.add_argument("--journal", default=None, metavar="PATH",
                   help="spill a crash-durable journal to PATH")
    p.add_argument("--checkpoint-every", type=int, default=10,
                   help="journal checkpoint period, in samples: the fsync "
                        "(seal) cadence; also the compaction cadence of a "
                        "bounded store")
    p.add_argument("--heartbeat", default=None, metavar="PATH",
                   help="append heartbeat lines to PATH")
    p.add_argument("--detect", action="store_true",
                   help="online contention/precursor detection over "
                        "the live samples")
    p.set_defaults(fn=_cmd_live)

    p = sub.add_parser(
        "recover", help="rebuild the report from a crashed run's journal"
    )
    p.add_argument("journal", help="spill journal path written by --journal")
    p.add_argument("--log-dir", default=None, metavar="DIR",
                   help="also write the run's zerosum.*.log text dump to DIR")
    p.add_argument("--archive", default=None, metavar="PATH",
                   help="also write a columnar npz archive to PATH")
    p.set_defaults(fn=_cmd_recover)

    p = sub.add_parser(
        "reproduce", help="run the paper's experiments, paper vs. measured"
    )
    p.add_argument("ids", nargs="*", metavar="ID",
                   help="DESIGN.md experiment ids (default: all 13)")
    p.add_argument("--check", default=None, metavar="FILE",
                   help="exit 1 where FILE's committed values differ "
                        "from this run at their printed precision")
    p.set_defaults(fn=_cmd_reproduce)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        # misuse the package diagnosed itself (bad srun options, unknown
        # topology, ...): one line, not a traceback; real bugs propagate
        print(f"zerosum-sim: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
