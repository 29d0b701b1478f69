"""GPU sharing: two ranks driving the same device queue-contend."""

from repro.apps import MiniQmcConfig, miniqmc_app
from repro.core import ZeroSumConfig, build_report, zerosum_mpi
from repro.launch import SrunOptions, launch_job
from repro.topology import frontier_node


def run_shared(share: bool, blocks=6):
    """Two ranks; optionally force both onto GCD 4."""
    step = launch_job(
        [frontier_node()],
        SrunOptions.parse(
            "OMP_NUM_THREADS=4 OMP_PROC_BIND=spread OMP_PLACES=cores "
            "srun -n2 -c7 --gpus-per-task=1 --gpu-bind=closest "
            "zerosum-mpi miniqmc"
        ),
        miniqmc_app(MiniQmcConfig(
            blocks=blocks, offload=True, host_jiffies=40,
            gpu_kernel_jiffies=10, vram_per_walker=64 * 1024**2,
        )),
        monitor_factory=zerosum_mpi(ZeroSumConfig()),
    )
    if share:
        # both ranks handed the same device (a classic misconfiguration:
        # forgetting *_VISIBLE_DEVICES isolation)
        shared = step.contexts[0].gpus[0]
        step.contexts[1].gpus[0] = shared
    step.run()
    step.finalize()
    return step


class TestGpuSharing:
    def test_sharing_slows_the_job(self):
        private = run_shared(False)
        shared = run_shared(True)
        assert shared.duration_seconds > 1.2 * private.duration_seconds

    def test_shared_device_shows_double_duty(self):
        private = run_shared(False)
        shared = run_shared(True)

        def busy_avg(step):
            report = build_report(step.monitors[0])
            busy = [s for s in report.gpu_stats[0]
                    if s.label == "Device Busy %"][0]
            return busy.average

        assert busy_avg(shared) > 1.15 * busy_avg(private)

    def test_kernel_counts_conserved(self):
        shared = run_shared(True)
        dev = shared.contexts[0].gpus[0]
        # both ranks' walkers (2 ranks x 4 walkers x blocks) all ran here
        assert dev.kernels_completed == 2 * 4 * 6
