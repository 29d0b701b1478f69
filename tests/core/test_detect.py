"""Initial configuration detection (§3.1 phase 1)."""

from repro.core import detect_configuration
from repro.kernel import Compute, SimKernel
from repro.procfs import ProcFS
from repro.topology import CpuSet, frontier_node, generic_node


def make_world(machine=None, cpus="0-1", rank=None):
    kernel = SimKernel(machine or generic_node(cores=4))

    def gen():
        yield Compute(5)

    proc = kernel.spawn_process(
        kernel.nodes[0], CpuSet.from_list(cpus), gen(),
        command="/opt/app/miniqmc", rank=rank,
    )
    if rank is not None:
        proc.world_size = 8
    fs = ProcFS(kernel, kernel.nodes[0], self_pid=proc.pid)
    return kernel, proc, fs


class TestDetection:
    def test_cpus_allowed_from_status(self):
        kernel, proc, fs = make_world(cpus="0-1")
        config = detect_configuration(fs, proc.pid)
        assert config.cpus_allowed == CpuSet([0, 1])

    def test_memory_from_meminfo(self):
        kernel, proc, fs = make_world()
        config = detect_configuration(fs, proc.pid)
        node = kernel.nodes[0]
        assert config.mem_total_kib == node.machine.memory_bytes // 1024
        assert 0 < config.mem_available_kib <= config.mem_total_kib

    def test_mpi_identity(self):
        kernel, proc, fs = make_world(rank=3)
        config = detect_configuration(fs, proc.pid)
        assert config.mpi_initialized
        assert config.mpi_rank == 3
        assert config.mpi_size == 8

    def test_no_mpi(self):
        kernel, proc, fs = make_world()
        config = detect_configuration(fs, proc.pid)
        assert not config.mpi_initialized

    def test_topology_text_included(self):
        kernel, proc, fs = make_world(machine=frontier_node(), cpus="1-7")
        config = detect_configuration(fs, proc.pid)
        assert "HWLOC Node topology:" in config.topology_text
        assert "NUMANode" in config.topology_text

    def test_topology_optional(self):
        kernel, proc, fs = make_world()
        config = detect_configuration(fs, proc.pid, include_topology=False)
        assert config.topology_text == ""

    def test_gpu_visibility(self):
        kernel, proc, fs = make_world(machine=frontier_node(), cpus="1-7")
        kernel.nodes[0].gpus[4].info.visible_index = 0
        config = detect_configuration(fs, proc.pid)
        assert config.gpu_visible == (4,)

    def test_summary_lines(self):
        kernel, proc, fs = make_world(rank=0)
        lines = detect_configuration(fs, proc.pid).summary_lines()
        text = "\n".join(lines)
        assert f"PID {proc.pid}" in text
        assert "CPUs allowed: [0-1]" in text
        assert "MPI rank 0 of 8" in text

    def test_command_recorded(self):
        kernel, proc, fs = make_world()
        config = detect_configuration(fs, proc.pid)
        assert config.command == "/opt/app/miniqmc"

    def test_hostname(self):
        kernel, proc, fs = make_world(machine=frontier_node(), cpus="1-7")
        config = detect_configuration(fs, proc.pid)
        assert config.hostname.startswith("frontier")
