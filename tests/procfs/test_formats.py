"""Renderer tests: simulated /proc content has real kernel shapes."""

from repro.kernel import Compute, SimKernel
from repro.procfs.formats import (
    render_meminfo,
    render_pid_stat,
    render_pid_status,
    render_proc_stat,
    render_uptime,
)
from repro.topology import CpuSet, generic_node


def make_world(compute=20.0):
    kernel = SimKernel(generic_node(cores=2))

    def gen():
        yield Compute(compute, user_frac=0.8)

    proc = kernel.spawn_process(kernel.nodes[0], CpuSet([0, 1]), gen(), command="app")
    return kernel, proc


class TestPidStat:
    def test_field_count(self):
        kernel, proc = make_world()
        kernel.run()
        line = render_pid_stat(proc.main_thread, kernel.now)
        assert len(line.split()) == 52

    def test_comm_parenthesized(self):
        kernel, proc = make_world()
        assert "(app)" in render_pid_stat(proc.main_thread, 0)

    def test_utime_stime_positions(self):
        kernel, proc = make_world()
        kernel.run()
        fields = render_pid_stat(proc.main_thread, kernel.now).split()
        assert int(fields[13]) == int(proc.main_thread.utime)  # field 14
        assert int(fields[14]) == int(proc.main_thread.stime)  # field 15

    def test_processor_field(self):
        kernel, proc = make_world()
        kernel.run()
        fields = render_pid_stat(proc.main_thread, kernel.now).split()
        assert int(fields[38]) == proc.main_thread.last_cpu  # field 39

    def test_command_basename_truncated(self):
        kernel = SimKernel(generic_node(cores=1))

        def gen():
            yield Compute(1)

        proc = kernel.spawn_process(
            kernel.nodes[0], CpuSet([0]), gen(),
            command="/usr/bin/averylongexecutablename",
        )
        line = render_pid_stat(proc.main_thread, 0)
        comm = line.split("(")[1].split(")")[0]
        assert comm == "averylongexecut"  # 15 chars, basename only


class TestPidStatus:
    def test_core_fields_present(self):
        kernel, proc = make_world()
        text = render_pid_status(proc.main_thread)
        for key in ("Name:", "State:", "Tgid:", "Pid:", "Threads:",
                    "Cpus_allowed:", "Cpus_allowed_list:",
                    "voluntary_ctxt_switches:", "nonvoluntary_ctxt_switches:"):
            assert key in text

    def test_affinity_list_rendered(self):
        kernel, proc = make_world()
        assert "Cpus_allowed_list:\t0-1" in render_pid_status(proc.main_thread)

    def test_state_description(self):
        kernel, proc = make_world()
        assert "R (running)" in render_pid_status(proc.main_thread)


class TestProcStat:
    def test_aggregate_line_first(self):
        kernel, proc = make_world()
        kernel.run()
        text = render_proc_stat(kernel.nodes[0], kernel.now)
        assert text.splitlines()[0].startswith("cpu  ")

    def test_per_cpu_lines(self):
        kernel, proc = make_world()
        text = render_proc_stat(kernel.nodes[0], kernel.now)
        assert "cpu0 " in text and "cpu1 " in text

    def test_jiffy_conservation(self):
        """user + system + idle == elapsed ticks on every CPU."""
        kernel, proc = make_world()
        kernel.run()
        text = render_proc_stat(kernel.nodes[0], kernel.now)
        for line in text.splitlines():
            if line.startswith("cpu") and not line.startswith("cpu "):
                vals = [int(v) for v in line.split()[1:]]
                total = sum(vals)
                assert abs(total - kernel.now) <= 2  # int truncation slack


class TestMeminfo:
    def test_fields_and_units(self):
        kernel, proc = make_world()
        text = render_meminfo(kernel.nodes[0])
        assert "MemTotal:" in text
        assert text.strip().endswith("kB")

    def test_memtotal_matches_machine(self):
        kernel, proc = make_world()
        node = kernel.nodes[0]
        line = [l for l in render_meminfo(node).splitlines() if "MemTotal" in l][0]
        assert int(line.split()[1]) == node.machine.memory_bytes // 1024


class TestUptime:
    def test_format(self):
        assert render_uptime(250, 100.0) == "2.50 1.00\n"
