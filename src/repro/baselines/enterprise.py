"""Enterprise-style BFS baseline (Liu & Huang, SC '15).

Enterprise's contribution — which the paper credits as "the first BFS
algorithm that performs different load balancing for different
out-degrees of the frontiers" (§4.7) — is a *classified* frontier:
each iteration scans the frontier once to split it into small / middle
/ large / hub queues by out-degree, then launches one expansion kernel
per non-empty class with a thread/warp/block/grid mapping matched to
the degree range, plus a hub-vertex cache in shared memory.

The model charges it the classification pass and the per-class
launches, but rewards it with near-perfect lane utilisation (that is
the whole point of the classification) and a status-array push without
atomics (Enterprise exploits BFS's benign races).  Figure 12's modest
average gap (TileBFS 1.39x geomean, up to 2.31x) reflects that this is
the strongest BFS baseline.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.tilebfs import BFSResult, IterationRecord
from ..errors import ShapeError
from ..gpusim import Device, KernelCounters
from ..runtime import ScopedOperator
from ._bfs_common import build_adjacency, expand_push

__all__ = ["EnterpriseBFS"]

#: Out-degree boundaries of the four frontier classes (SC '15 §3).
CLASS_BOUNDS = (32, 256, 65536)


class EnterpriseBFS(ScopedOperator):
    """Prepared Enterprise-style BFS operator."""

    operator = "enterprise"

    def __init__(self, matrix, device: Optional[Device] = None):
        super().__init__(device)
        self.csr, self.csc = build_adjacency(matrix)
        self.n = self.csr.shape[0]
        self.nnz = self.csr.nnz
        self._out_degrees = self.csc.col_degrees()

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

        while len(frontier):
            if max_depth is not None and depth >= max_depth:
                break
            depth += 1
            new, edges = expand_push(self.csc, frontier, visited)
            ms = self._account_iteration(frontier, edges, len(new))
            result.iterations.append(IterationRecord(
                depth=depth, kernel="enterprise_push",
                frontier_size=len(frontier),
                new_vertices=len(new), simulated_ms=ms))
            result.simulated_ms += ms
            if len(new) == 0:
                break
            levels[new] = depth
            visited[new] = True
            frontier = new
        return result

    # ------------------------------------------------------------------
    def _account_iteration(self, frontier: np.ndarray, edges: int,
                           n_new: int) -> float:
        degs = self._out_degrees[frontier]
        classes = np.searchsorted(CLASS_BOUNDS, degs, side="right")
        n_classes = len(np.unique(classes)) if len(classes) else 0

        # classification scan: read frontier + degrees, write 4 queues
        cls = KernelCounters(launches=1)
        cls.coalesced_read_bytes += len(frontier) * 8.0
        cls.coalesced_write_bytes += len(frontier) * 4.0
        cls.word_ops += float(len(frontier))
        cls.warps = max(1.0, len(frontier) / 32.0)
        ms = self.ctx.launch("enterprise_classify", cls, phase="iteration")

        # one expansion launch per non-empty class; work split among
        # them but each pays a launch.  Load balancing keeps lanes full.
        exp = KernelCounters(launches=max(1, n_classes))
        exp.coalesced_read_bytes += len(frontier) * 4.0 + edges * 4.0
        exp.l2_read_bytes += len(frontier) * 8.0        # row offsets
        exp.random_read_count += float(edges)           # status probes
        # status-array writes ride benign races: plain scattered stores,
        # no atomics (SC '15 §4)
        exp.random_write_count += float(n_new)
        exp.coalesced_write_bytes += n_new * 4.0        # next queue
        exp.warps = max(1.0, edges / 32.0)
        exp.divergence = 1.0                            # classified mapping
        ms += self.ctx.launch("enterprise_expand", exp, phase="iteration")
        return ms

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<EnterpriseBFS n={self.n} nnz={self.nnz}>"
