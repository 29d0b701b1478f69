"""Configuration advisor: the automated §4 narrative."""

from tests.helpers import run_miniqmc
from repro.core import advise
from repro.launch import SrunOptions

T1_CMD = "OMP_NUM_THREADS=7 srun -n8 zerosum-mpi miniqmc"
T2_CMD = "OMP_NUM_THREADS=7 srun -n8 -c7 zerosum-mpi miniqmc"
T3_CMD = ("OMP_NUM_THREADS=7 OMP_PROC_BIND=spread OMP_PLACES=cores "
          "srun -n8 -c7 zerosum-mpi miniqmc")
GPU_UNBOUND_CMD = ("OMP_PROC_BIND=spread OMP_PLACES=cores OMP_NUM_THREADS=4 "
                   "srun -n8 --gpus-per-task=1 --cpus-per-task=7 "
                   "zerosum-mpi miniqmc")


class TestTableProgression:
    def test_table1_suggests_more_cpus(self):
        step = run_miniqmc(T1_CMD, blocks=8, block_jiffies=60)
        advice = advise(step.monitors[0], step.options)
        assert advice.by_code("request-more-cpus")
        assert advice.suggested.cpus_per_task == 7
        assert "-c7" in advice.command_line()

    def test_table2_suggests_binding(self):
        step = run_miniqmc(T2_CMD, blocks=8, block_jiffies=60)
        advice = advise(step.monitors[0], step.options)
        assert advice.by_code("bind-threads")
        assert advice.suggested.env["OMP_PROC_BIND"] == "spread"
        assert advice.suggested.env["OMP_PLACES"] == "cores"
        cmdline = advice.command_line()
        assert "OMP_PROC_BIND=spread" in cmdline

    def test_table3_is_clean(self):
        step = run_miniqmc(T3_CMD, blocks=8, block_jiffies=60)
        advice = advise(step.monitors[0], step.options)
        assert advice.is_clean
        assert "looks good" in advice.render()

    def test_suggested_command_parses_back(self):
        """The corrected line must itself be a valid srun command."""
        step = run_miniqmc(T1_CMD, blocks=6, block_jiffies=50)
        advice = advise(step.monitors[0], step.options)
        reparsed = SrunOptions.parse(advice.command_line())
        assert reparsed.cpus_per_task == advice.suggested.cpus_per_task
        assert reparsed.env == advice.suggested.env

    def test_following_advice_converges(self):
        """Apply advice twice starting from Table 1: the result is a
        clean configuration (the paper's own progression)."""
        step = run_miniqmc(T1_CMD, blocks=6, block_jiffies=50)
        advice = advise(step.monitors[0], step.options)
        current = advice.command_line().replace("miniqmc", "zerosum-mpi miniqmc") \
            if "zerosum-mpi" not in advice.command_line() else advice.command_line()
        for _ in range(3):
            step = run_miniqmc(current, blocks=6, block_jiffies=50)
            advice = advise(step.monitors[0], step.options)
            if advice.is_clean:
                break
            current = advice.command_line()
        assert advice.is_clean


class TestGpuAdvice:
    def test_missing_gpu_bind_suggested(self):
        step = run_miniqmc(GPU_UNBOUND_CMD, blocks=4, offload=True)
        advice = advise(step.monitors[0], step.options)
        assert advice.by_code("gpu-bind-closest")
        assert advice.suggested.gpu_bind == "closest"
        assert "--gpu-bind=closest" in advice.command_line()

    def test_undersubscription_noted(self):
        step = run_miniqmc(GPU_UNBOUND_CMD, blocks=4, offload=True)
        advice = advise(step.monitors[0], step.options)
        assert advice.by_code("trim-allocation")

    def test_closest_binding_not_flagged(self):
        cmd = GPU_UNBOUND_CMD.replace(
            "--cpus-per-task=7", "--cpus-per-task=7 --gpu-bind=closest")
        step = run_miniqmc(cmd, blocks=4, offload=True)
        advice = advise(step.monitors[0], step.options)
        assert not advice.by_code("gpu-bind-closest")


class TestRender:
    def test_render_lists_suggestions(self):
        step = run_miniqmc(T1_CMD, blocks=6, block_jiffies=50)
        text = advise(step.monitors[0], step.options).render()
        assert "suggested launch:" in text
        assert "-c7" in text
