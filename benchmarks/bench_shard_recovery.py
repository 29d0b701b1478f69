"""Self-healing launcher guard: checkpoint overhead + recovery latency.

Not a paper artefact — the regression guard for the checkpoint-restart
path of the sharded launcher.  One point-to-point PIC job over two
nodes is run four ways: serially (the truth), sharded with recovery
disabled, sharded with the default self-healing policy, and sharded
with a mid-run injected worker kill.  The guard asserts:

* **correctness** — both the fault-free self-healing run and the
  killed-and-recovered run produce rank reports bit-identical to the
  serial run;
* **overhead** — heartbeats + hot-spare forks + checkpoint marshalling
  may cost at most ~10% of fault-free wall time:
  ``fault_free_over_recovery`` (no-recovery wall / recovery wall) must
  stay >= ``OVERHEAD_FLOOR``.  The floor is enforced only with >= 2
  host cores (on fewer the workers time-share one core and the ratio
  measures the scheduler, not the checkpoints);
* **latency** — the recovery latency (killed-run wall minus fault-free
  wall) is printed; it carries no floor because it is dominated by the
  injected fault's position.
"""

import os
import time

from common import banner
from repro.apps import PicConfig, pic_app
from repro.core import ZeroSumConfig, zerosum_mpi
from repro.launch import (
    ChaosEvent,
    ChaosPlan,
    RecoveryPolicy,
    ShardedJobStep,
    SrunOptions,
    launch_job,
)
from repro.mpi import Fabric
from repro.topology import generic_node

WORLD = 32
NODES = 2
#: recovery wall time may be at most ~1/0.90 of the bare wall time
OVERHEAD_FLOOR = 0.90

#: point-to-point only: the bit-identical regime the healer guarantees
PIC = PicConfig(steps=60, shift_distance=4, reduce_every=0,
                step_jiffies=60.0)

#: checkpoint often (relative to the run's epoch count) so the bench
#: actually measures checkpoint cost, not its absence
POLICY = RecoveryPolicy(
    checkpoint_every=4,
    max_respawns=2,
    backoff_seconds=0.01,
    heartbeat_interval=0.1,
    hang_grace_seconds=5.0,
)


def _run(workers, recovery=None, chaos=None):
    """One end-to-end run; returns (seconds, renders, step)."""
    machines = [
        generic_node(cores=16, name=f"node{i:02d}") for i in range(NODES)
    ]
    kwargs = {"recovery": recovery} if workers > 1 else {}
    start = time.perf_counter()
    step = launch_job(
        machines,
        SrunOptions(ntasks=WORLD, command="pic"),
        pic_app(PIC),
        monitor_factory=zerosum_mpi(
            ZeroSumConfig(collect_hwt=False, collect_gpu=False)
        ),
        fabric=Fabric(remote_latency=64),
        workers=workers,
        chaos=chaos,
        **kwargs,
    )
    if workers > 1:
        assert isinstance(step, ShardedJobStep)
    step.run(max_ticks=5_000_000)
    step.finalize()
    renders = [step.report(rank).render() for rank in range(WORLD)]
    seconds = time.perf_counter() - start
    return seconds, renders, step


def test_recovery_overhead_and_latency():
    cores = os.cpu_count() or 1
    _, serial_renders, _ = _run(workers=1)

    bare_s, bare_renders, _ = _run(workers=2, recovery=None)
    assert bare_renders == serial_renders

    heal_s, heal_renders, heal_step = _run(workers=2, recovery=POLICY)
    assert heal_renders == serial_renders, (
        "fault-free self-healing run diverged from serial"
    )
    assert heal_step.degradations == []
    # the policy really checkpointed (otherwise the ratio is a lie)
    assert heal_step.epochs_run > POLICY.checkpoint_every

    kill_at = heal_step.epochs_run // 2
    chaos = ChaosPlan(events=[ChaosEvent("kill", epoch=kill_at, shard=1)])
    killed_s, killed_renders, killed_step = _run(
        workers=2, recovery=POLICY, chaos=chaos
    )
    assert killed_renders == serial_renders, (
        "killed-and-recovered run diverged from serial"
    )
    respawned = [
        e for e in killed_step.degradations if e.action == "respawned"
    ]
    assert respawned, "the injected kill was never recovered"

    overhead_ratio = bare_s / heal_s
    latency = killed_s - heal_s
    enforced = cores >= 2
    banner(
        f"Self-healing sharded launcher ({WORLD} ranks, {NODES} nodes, "
        f"{cores} host cores)",
        "checkpoint-restart regression guard, not a paper artefact",
    )
    print(f"sharded, no recovery   {bare_s:7.2f} s")
    print(f"sharded, self-healing  {heal_s:7.2f} s  "
          f"(bare/healing = {overhead_ratio:4.2f})")
    print(f"sharded, killed+healed {killed_s:7.2f} s  "
          f"(recovery latency ~ {latency:5.2f} s)")
    print("recovered reports bit-identical to serial: yes")

    if enforced:
        assert overhead_ratio >= OVERHEAD_FLOOR, (
            f"self-healing overhead ratio {overhead_ratio:.2f} below the "
            f"{OVERHEAD_FLOOR} floor on a {cores}-core host"
        )
