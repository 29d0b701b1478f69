"""Render a topology tree in the text format of Listing 1.

ZeroSum prints the node topology at startup "similar to the output from
the hwloc ``lstopo`` command" so users who never ran lstopo can see how
cores are distributed among NUMA domains, which caches are shared, and
how HWTs are indexed.  This module reproduces that exact output shape::

    HWLOC Node topology:
    Machine L#0
      Package L#0
        L3Cache L#0 12MB
          L2Cache L#0 1280KB
            L1Cache L#0 48KB
              Core L#0
                PU L#0 P#0
                PU L#1 P#4
"""

from __future__ import annotations

from repro.topology.objects import Machine, ObjType, TopoObject

__all__ = ["render_lstopo", "format_cache_size"]

_CACHE_TYPES = (ObjType.L3, ObjType.L2, ObjType.L1)


def format_cache_size(size_bytes: int) -> str:
    """Format a cache size the way lstopo does (12MB, 1280KB, 48KB)."""
    if size_bytes % (1024 * 1024) == 0:
        return f"{size_bytes // (1024 * 1024)}MB"
    if size_bytes % 1024 == 0:
        return f"{size_bytes // 1024}KB"
    return f"{size_bytes}B"


def render_lstopo(
    machine: Machine,
    header: str = "HWLOC Node topology:",
    show_numa: bool | None = None,
    show_gpus: bool = False,
) -> str:
    """Render the machine tree as lstopo-like indented text.

    ``show_numa=None`` (the default) hides single-NUMA-domain levels the
    way lstopo collapses trivial levels — this makes the i7 test node
    output match Listing 1 character for character.

    The tree text is rendered once per machine and argument set (a
    Machine's tree is frozen); the ``show_gpus`` section is not cached,
    since a job launch sets each GPU's ``visible_index`` afterwards.
    """
    key = (header, show_numa)
    text = machine._lstopo_text.get(key)
    if text is None:
        text = machine._lstopo_text[key] = _render_tree(machine, header, show_numa)
    if not (show_gpus and machine.gpus):
        return text
    lines = [text, "GPUs:"]
    for gpu in machine.gpus:
        visible = (
            f" (visible #{gpu.visible_index})" if gpu.visible_index is not None else ""
        )
        lines.append(
            f"  GPU P#{gpu.physical_index} NUMA#{gpu.numa} {gpu.name}{visible}"
        )
    return "\n".join(lines)


def _render_tree(machine: Machine, header: str, show_numa: bool | None) -> str:
    if show_numa is None:
        show_numa = len(machine.numa_domains()) > 1

    lines: list[str] = [header]

    def render(obj: TopoObject, depth: int) -> None:
        skip = obj.type is ObjType.NUMA and not show_numa
        if not skip:
            _render_one(obj, depth, lines)
            depth += 1
        for child in obj.children:
            render(child, depth)

    def _render_one(obj: TopoObject, depth: int, out: list[str]) -> None:
        indent = "  " * depth
        label = f"{obj.type.value} L#{obj.logical_index}"
        if obj.type is ObjType.PU and obj.os_index is not None:
            label += f" P#{obj.os_index}"
        elif obj.type in _CACHE_TYPES and "size" in obj.attrs:
            label += f" {format_cache_size(obj.attrs['size'])}"
        elif obj.type is ObjType.NUMA and obj.os_index is not None:
            label += f" P#{obj.os_index}"
        out.append(indent + label)

    render(machine.root, 0)
    return "\n".join(lines)
