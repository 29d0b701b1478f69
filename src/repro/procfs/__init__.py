"""Simulated /proc filesystem: renderers, parsers, and the facade."""

from repro.procfs.filesystem import ProcFS
from repro.procfs.formats import (
    render_meminfo,
    render_pid_io,
    render_pid_stat,
    render_pid_status,
    render_proc_stat,
    render_uptime,
)
from repro.procfs.parsers import (
    CpuTimes,
    TaskIo,
    parse_pid_io,
    TaskStat,
    TaskStatus,
    parse_meminfo,
    parse_pid_stat,
    parse_pid_status,
    parse_proc_stat,
)

__all__ = [
    "ProcFS",
    "render_proc_stat",
    "render_meminfo",
    "render_uptime",
    "render_pid_stat",
    "render_pid_io",
    "render_pid_status",
    "CpuTimes",
    "TaskStat",
    "TaskStatus",
    "parse_pid_stat",
    "parse_pid_io",
    "TaskIo",
    "parse_pid_status",
    "parse_proc_stat",
    "parse_meminfo",
]
