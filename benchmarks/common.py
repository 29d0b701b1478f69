"""Shared by the micro-guards in this directory.

The paper's tables and figures are not regenerated here: they are the
rows of ``zerosum-sim reproduce`` (``src/repro/reproduce.py``).
"""


def banner(title: str, paper: str) -> None:
    print()
    print("=" * 72)
    print(title)
    print(f"paper reference: {paper}")
    print("=" * 72)
