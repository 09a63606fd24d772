"""GSwitch-style BFS baseline (Meng et al., PPoPP '19).

GSwitch is a *pattern-based algorithmic autotuner*: at every iteration
it extracts features of the current frontier (size, average degree,
fraction of the graph visited), consults a decision model, and picks
one of several execution patterns (push/pull x vertex-/edge-centric x
queue/bitmap frontier).  The decision machinery is what makes GSwitch
adaptive — and also what this model charges it for: a sampling kernel
plus host-side decision per iteration, and a warm-up autotuning phase
on the first iterations where candidate patterns are probed.

That overhead profile reproduces the paper's observations: GSwitch is
competitive on big graphs (good pattern choices) but loses dramatically
on small matrices where per-iteration overhead dominates (TileBFS wins
by up to ~1000x there, Fig. 7) — while still beating TileBFS on some
high-tile-count road networks (paper §4.5, 'roadNet-TX').
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.tilebfs import BFSResult, IterationRecord
from ..errors import ShapeError
from ..gpusim import Device, KernelCounters
from ..runtime import ScopedOperator
from ._bfs_common import build_adjacency, expand_pull, expand_push

__all__ = ["GSwitchBFS"]

#: Iterations during which the autotuner probes alternative patterns.
WARMUP_ITERATIONS = 3


class GSwitchBFS(ScopedOperator):
    """Prepared GSwitch-style adaptive BFS operator."""

    operator = "gswitch"

    def __init__(self, matrix, device: Optional[Device] = None):
        super().__init__(device)
        self.csr, self.csc = build_adjacency(matrix)
        self.n = self.csr.shape[0]
        self.nnz = self.csr.nnz

    # ------------------------------------------------------------------
    def run(self, source: int, max_depth: Optional[int] = None) -> BFSResult:
        """Traverse from ``source``."""
        if not (0 <= source < self.n):
            raise ShapeError(f"source {source} out of range for n={self.n}")
        levels = np.full(self.n, -1, dtype=np.int64)
        levels[source] = 0
        visited = np.zeros(self.n, dtype=bool)
        visited[source] = True
        frontier = np.array([source], dtype=np.int64)
        result = BFSResult(levels=levels)
        depth = 0
        out_degrees = self.csc.col_degrees()

        while len(frontier):
            if max_depth is not None and depth >= max_depth:
                break
            depth += 1
            ms = self._account_decision(depth, len(frontier))

            frontier_edges = int(out_degrees[frontier].sum())
            unvisited = self.n - int(visited.sum())
            use_pull = self._choose_pull(frontier_edges, unvisited)
            if use_pull:
                frontier_mask = np.zeros(self.n, dtype=bool)
                frontier_mask[frontier] = True
                new, work = expand_pull(self.csr, visited, frontier_mask)
                ms += self._account_pull(len(frontier), work, len(new))
                kernel = "gswitch_pull"
            else:
                new, work = expand_push(self.csc, frontier, visited)
                ms += self._account_push(len(frontier), work, len(new))
                kernel = "gswitch_push"

            result.iterations.append(IterationRecord(
                depth=depth, kernel=kernel, frontier_size=len(frontier),
                new_vertices=len(new), simulated_ms=ms))
            result.simulated_ms += ms
            if len(new) == 0:
                break
            levels[new] = depth
            visited[new] = True
            frontier = new
        return result

    # ------------------------------------------------------------------
    def _choose_pull(self, frontier_edges: int, unvisited: int) -> bool:
        """GSwitch's learned decision approximated by the frontier-work
        ratio its features encode."""
        return frontier_edges > max(1, unvisited) * 2

    def _account_decision(self, depth: int, frontier_size: int) -> float:
        """Feature sampling + host decision (+ warm-up probing)."""
        c = KernelCounters(launches=1)
        c.coalesced_read_bytes += min(frontier_size, 1024) * 8.0  # sample
        c.word_ops += 512.0                                       # features
        c.warps = 4.0
        ms = self.ctx.launch("gswitch_sample", c, phase="decision")
        if depth <= WARMUP_ITERATIONS:
            # autotuner probes an alternative pattern and discards it
            probe = KernelCounters(launches=1)
            probe.coalesced_read_bytes += min(frontier_size, 4096) * 8.0
            probe.word_ops += 2048.0
            probe.warps = 8.0
            ms += self.ctx.launch("gswitch_probe", probe,
                                  phase="decision")
        return ms

    def _account_push(self, frontier_size: int, edges: int,
                      n_new: int) -> float:
        c = KernelCounters(launches=1)
        c.coalesced_read_bytes += frontier_size * 4.0 + edges * 4.0
        c.l2_read_bytes += frontier_size * 8.0
        c.random_read_count += float(edges)          # status probes
        c.atomic_ops += float(edges)                 # claims
        c.coalesced_write_bytes += n_new * 4.0
        c.warps = max(1.0, edges / 32.0)
        return self.ctx.launch("gswitch_push", c, phase="iteration")

    def _account_pull(self, frontier_size: int, scanned: int,
                      n_new: int) -> float:
        c = KernelCounters(launches=1)
        c.coalesced_write_bytes += self.n / 8.0      # frontier bitmap
        c.coalesced_read_bytes += frontier_size * 4.0 + scanned * 4.0
        c.l2_read_bytes += self.n * 8.0
        c.random_read_count += float(scanned)
        c.coalesced_write_bytes += n_new * 4.0
        c.warps = max(1.0, self.n / 32.0)
        return self.ctx.launch("gswitch_pull", c, phase="iteration")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<GSwitchBFS n={self.n} nnz={self.nnz}>"
