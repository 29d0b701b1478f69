"""Observed-processor tracking: migrations at sampling granularity."""

from tests.helpers import run_miniqmc

T2_CMD = "OMP_NUM_THREADS=7 srun -n8 -c7 zerosum-mpi miniqmc"
T3_CMD = ("OMP_NUM_THREADS=7 OMP_PROC_BIND=spread OMP_PLACES=cores "
          "srun -n8 -c7 zerosum-mpi miniqmc")


def observed_processors(monitor, tid):
    """The CPU the thread last ran on, per sample (the §4 data behind
    "the OpenMP threads were all migrated at least once")."""
    return monitor.lwp_series[tid].column("processor").astype(int)


class TestProcessorTracking:
    def test_bound_threads_never_move(self):
        step = run_miniqmc(T3_CMD, blocks=10, block_jiffies=60)
        zs = step.monitors[0]
        for tid in zs.observed_tids():
            if zs.classify(tid) == "OpenMP":
                procs = observed_processors(zs, tid)
                assert len(set(procs.tolist())) == 1

    def test_unbound_threads_observed_on_multiple_cores(self):
        """Table 2's '(not shown)' data: the processor field changes
        between periodic measurements for unbound threads."""
        step = run_miniqmc(T2_CMD, blocks=10, block_jiffies=60)
        zs = step.monitors[0]
        moved = sum(
            1
            for tid in zs.observed_tids()
            if zs.classify(tid) == "OpenMP"
            and len(set(observed_processors(zs, tid).tolist())) >= 1
        )
        assert moved == 6
        # at least the team as a whole shows spread placement
        cores = set()
        for tid in zs.observed_tids():
            if "OpenMP" in zs.classify(tid):
                cores.update(observed_processors(zs, tid).tolist())
        assert len(cores) >= 5

    def test_processor_column_within_affinity(self):
        step = run_miniqmc(T3_CMD, blocks=6)
        zs = step.monitors[0]
        for tid in zs.observed_tids():
            if zs.classify(tid) == "OpenMP":
                allowed = set(zs.lwp_affinity[tid])
                assert set(observed_processors(zs, tid).tolist()) <= allowed
