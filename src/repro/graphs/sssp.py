"""Single-source shortest paths via (min, +) SpMSpV relaxation.

Bellman-Ford in its algebraic form: each round relaxes
``dist' = dist (min.+) A x`` where ``x`` carries only the vertices
whose distance improved last round — the sparse-frontier pattern
TileSpMSpV accelerates (and the one the MIN_PLUS semiring plumbing
exists for).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.spmspv import TileSpMSpV
from ..errors import ShapeError
from ..formats.convert import to_coo
from ..gpusim import Device
from ..semiring import MIN_PLUS
from ..vectors.sparse_vector import SparseVector

__all__ = ["sssp"]


def sssp(matrix, source: int, nt: int = 16,
         device: Optional[Device] = None,
         max_rounds: Optional[int] = None) -> np.ndarray:
    """Shortest-path distances from ``source``.

    Parameters
    ----------
    matrix:
        Square weighted adjacency: ``A[i, j]`` is the weight of edge
        ``j -> i``; weights must be non-negative (Bellman-Ford with
        negative edges terminates but the round cap then matters).
    source:
        Start vertex.
    nt, device:
        Forwarded to the TileSpMSpV operator.
    max_rounds:
        Cap on relaxation rounds (default n-1, the Bellman-Ford bound).

    Returns
    -------
    ``float64[n]`` distances; unreachable vertices hold ``inf``.
    """
    coo = to_coo(matrix)
    if coo.shape[0] != coo.shape[1]:
        raise ShapeError(f"sssp requires a square matrix, got {coo.shape}")
    n = coo.shape[0]
    if not (0 <= source < n):
        raise ShapeError(f"source {source} out of range for n={n}")

    op = TileSpMSpV(coo, nt=nt, semiring=MIN_PLUS, device=device)
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    frontier = SparseVector(n, np.array([source]), np.array([0.0]))
    cap = max_rounds if max_rounds is not None else max(1, n - 1)
    for _ in range(cap):
        y = op.multiply(frontier)
        # exact strict improvement: an absolute slack would make
        # convergence scale-dependent (legitimately small improvements
        # on large-weight graphs would be dropped); termination is
        # still guaranteed because each vertex's distance can only
        # strictly decrease, and the round cap bounds the loop anyway
        improved = y.indices[y.values < dist[y.indices]]
        if len(improved) == 0:
            break
        new_dist = y.to_dense()[improved]
        dist[improved] = new_dist
        frontier = SparseVector(n, improved, new_dist)
    return dist
