"""Gunrock-style BFS baseline (Wang et al., PPoPP '16).

Gunrock structures each BFS iteration as an **advance** kernel (expand
the frontier over CSR with per-edge load balancing) followed by a
**filter** kernel (compact the output queue, dropping visited and
duplicate vertices) — two launches per iteration, operating on an
explicit vertex queue and a 4-byte-per-vertex label array.  With the
``direction_optimized`` flag (the paper enables "all the optimizations
... including push-pull"), it switches to a pull (bottom-up) advance
when the frontier grows past Beamer's alpha threshold.

Against TileBFS the structural handicaps this model captures are:
4-byte labels instead of 1-bit masks (32x the status traffic), per-edge
scattered label probes and atomic claims instead of word-wide tile
merges, and two kernel launches per iteration.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.tilebfs import BFSResult, IterationRecord
from ..errors import ShapeError
from ..gpusim import Device, KernelCounters
from ..runtime import ScopedOperator
from ._bfs_common import build_adjacency, expand_pull, expand_push

__all__ = ["GunrockBFS"]


class GunrockBFS(ScopedOperator):
    """Prepared Gunrock-style BFS operator.

    Parameters
    ----------
    matrix:
        Square adjacency pattern.
    direction_optimized:
        Enable push/pull switching (on by default, as in the paper's
        comparison).
    alpha, beta:
        Beamer's switching parameters: go bottom-up when
        ``frontier_edges > remaining_edges / alpha``; return top-down
        when ``frontier_size < n / beta``.
    device:
        Optional simulated GPU.
    """

    operator = "gunrock"

    def __init__(self, matrix, direction_optimized: bool = True,
                 alpha: float = 14.0, beta: float = 24.0,
                 device: Optional[Device] = None):
        super().__init__(device)
        self.csr, self.csc = build_adjacency(matrix)
        self.n = self.csr.shape[0]
        self.nnz = self.csr.nnz
        self.direction_optimized = direction_optimized
        self.alpha = alpha
        self.beta = beta

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
        remaining_edges = self.nnz
        pulling = False

        while len(frontier):
            if max_depth is not None and depth >= max_depth:
                break
            depth += 1
            frontier_edges = int(out_degrees[frontier].sum())
            if self.direction_optimized:
                if not pulling and frontier_edges > remaining_edges / self.alpha:
                    pulling = True
                elif pulling and len(frontier) < self.n / self.beta:
                    pulling = False
            if pulling:
                frontier_mask = np.zeros(self.n, dtype=bool)
                frontier_mask[frontier] = True
                new, work = expand_pull(self.csr, visited, frontier_mask)
                ms = self._account_pull(len(frontier), work, len(new))
                kernel = "gunrock_pull"
            else:
                new, work = expand_push(self.csc, frontier, visited)
                ms = self._account_push(len(frontier), work, len(new))
                kernel = "gunrock_push"

            result.iterations.append(IterationRecord(
                depth=depth, kernel=kernel, frontier_size=len(frontier),
                new_vertices=len(new), simulated_ms=ms))
            result.simulated_ms += ms
            if len(new) == 0:
                break
            levels[new] = depth
            visited[new] = True
            remaining_edges -= frontier_edges
            frontier = new
        return result

    # ------------------------------------------------------------------
    def _account_push(self, frontier_size: int, edges: int,
                      n_new: int) -> float:
        """Advance + filter kernel pair of a top-down iteration."""
        adv = KernelCounters(launches=1)
        adv.coalesced_read_bytes += frontier_size * 4.0      # input queue
        adv.l2_read_bytes += frontier_size * 8.0             # row offsets
        adv.coalesced_read_bytes += edges * 4.0              # neighbour ids
        adv.random_read_count += float(edges)                # label probes
        adv.atomic_ops += float(edges)                       # atomicCAS claims
        adv.coalesced_write_bytes += edges * 4.0             # output queue
        adv.warps = max(1.0, edges / 32.0)
        adv.divergence = _frontier_divergence(
            self.csc.col_degrees(), frontier_size, edges)
        t1 = self.ctx.launch("gunrock_advance", adv, phase="iteration")

        flt = KernelCounters(launches=1)
        flt.coalesced_read_bytes += edges * 4.0              # raw queue
        flt.random_read_count += float(edges)                # visited test
        flt.coalesced_write_bytes += n_new * 4.0             # compacted
        flt.word_ops += float(edges)
        flt.warps = max(1.0, edges / 32.0)
        t2 = self.ctx.launch("gunrock_filter", flt, phase="iteration")
        return t1 + t2

    def _account_pull(self, frontier_size: int, scanned: int,
                      n_new: int) -> float:
        """Bottom-up advance + filter pair."""
        adv = KernelCounters(launches=1)
        # build the frontier bitmap first (Gunrock converts queue->bitmap)
        adv.coalesced_write_bytes += self.n / 8.0
        adv.coalesced_read_bytes += frontier_size * 4.0
        adv.l2_read_bytes += self.n * 8.0                    # row offsets
        adv.coalesced_read_bytes += scanned * 4.0            # in-neighbours
        adv.random_read_count += float(scanned)              # bitmap probes
        adv.coalesced_write_bytes += n_new * 4.0
        adv.warps = max(1.0, self.n / 32.0)
        t1 = self.ctx.launch("gunrock_advance_pull", adv, phase="iteration")

        flt = KernelCounters(launches=1)
        flt.coalesced_read_bytes += n_new * 4.0
        flt.coalesced_write_bytes += n_new * 4.0
        flt.warps = max(1.0, n_new / 32.0)
        t2 = self.ctx.launch("gunrock_filter", flt, phase="iteration")
        return t1 + t2

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<GunrockBFS n={self.n} nnz={self.nnz}>"


def _frontier_divergence(degrees: np.ndarray, frontier_size: int,
                         edges: int) -> float:
    """Lane utilisation of per-vertex expansion: skewed degrees leave
    warps ragged despite Gunrock's load balancing."""
    if frontier_size == 0 or edges == 0:
        return 1.0
    mean_deg = edges / frontier_size
    util = min(1.0, mean_deg / 32.0)
    return float(max(util, 1.0 / 32.0))
