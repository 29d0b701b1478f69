#!/usr/bin/env python3
"""Fail CI when a public def in ``src/`` is named only by ``tests/``.

Code that only tests call is behaviour nobody uses: it costs a reader
as much as live code and proves nothing about the program.  This scan
indexes every name the repository uses outside ``tests/`` and lists
each public module- or class-level def in ``src/`` that none of them
names.

What counts as a use: every ``Name``, every ``Attribute`` and every
imported alias, except the aliases of a package ``__init__`` (a
re-export is not a caller).  A def's own name and ``__all__`` entries
are not uses.  String constants count only in ``benchmarks/``,
``tools/`` and ``examples/``, where ``wrap(cls, "attr")`` names a seam
by string; in ``src/`` a string such as ``_collective("allgather")``
says nothing about a def called ``allgather``.

``ALLOWED`` exempts names on purpose, one reason each.  Run from
anywhere: ``python tools/check_test_only.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

#: test oracles and typing-only names kept although only tests call them
ALLOWED = {
    "Machine.numa_cpuset": "oracle: the cpuset a NUMA node's cores span",
    "Machine.gpu_by_physical": "oracle: a GPU by its physical index",
    "Event.is_set": "oracle: the event state a wait resumed on",
    "MemoryAccounting.grow_system": "oracle: drives system-wide pressure",
    "cpu_gpu_distance": "oracle: the slow way closest_gpu must agree with",
    "FaultyProc": "the fault-injection fake the fault suites wrap a proc in",
    "SnapshotProcReader": "a typing Protocol: its readers never name it",
}

#: the code outside tests/; string constants count as uses in all but src
CALLER_DIRS = ("src", "benchmarks", "tools", "examples")


def used_names(root: Path) -> set[str]:
    """Every name the code outside ``tests/`` uses."""
    used: set[str] = set()
    for path in (p for d in CALLER_DIRS for p in (root / d).rglob("*.py")):
        strings = path.relative_to(root).parts[0] != "src"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias) and path.name != "__init__.py":
                used.add(node.name.rpartition(".")[2])
            elif (strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                used.add(node.value)
    return used


def public_defs(path: Path):
    """(line, qualified name) of each public module- or class-level def."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, defs) and not node.name.startswith("_"):
            yield node.lineno, node.name
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, defs) and not sub.name.startswith("_"):
                    yield sub.lineno, f"{node.name}.{sub.name}"


def find_test_only(root: Path) -> list[str]:
    """``path:line: name`` of each public def in ``src/`` only tests use."""
    used = used_names(root)
    return [
        f"{path.relative_to(root)}:{line}: {qual}"
        for path in sorted((root / "src").rglob("*.py"))
        for line, qual in public_defs(path)
        if qual.rpartition(".")[2] not in used and qual not in ALLOWED
    ]


def main() -> int:
    root = Path(__file__).resolve().parent.parent
    bad = find_test_only(root)
    for entry in bad:
        print(f"{entry} is named only by tests/ — delete it with its "
              f"tests, give it a caller, or allow-list it with a reason")
    if bad:
        print(f"\n{len(bad)} public def(s) only tests call.")
        return 1
    print("src/: every public def has a caller outside tests/.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
