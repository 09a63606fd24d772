"""Reference CPU BFS — the independent correctness oracle.

A plain level-synchronous BFS over CSR with no tiling, no bitmasks and
no cost model.  Every BFS implementation in the library (TileBFS and
the three baselines) is tested against this and against networkx.
"""

from __future__ import annotations

import numpy as np

from ..errors import ShapeError
from ..formats.convert import to_csc
from ..formats.csc import CSCMatrix

__all__ = ["bfs_levels"]


def bfs_levels(matrix, source: int) -> np.ndarray:
    """BFS depths from ``source``; ``-1`` marks unreachable vertices.

    Follows the SpMSpV edge convention ``y = A x``: an entry
    ``A[i, j]`` is the edge ``j -> i``, so the out-neighbours of ``j``
    are column ``j``.
    """
    csc = to_csc(matrix)
    if csc.shape[0] != csc.shape[1]:
        raise ShapeError(f"BFS requires a square matrix, got {csc.shape}")
    n = csc.shape[0]
    if not (0 <= source < n):
        raise ShapeError(f"source {source} out of range for n={n}")

    levels = np.full(n, -1, dtype=np.int64)
    levels[source] = 0
    frontier = np.array([source], dtype=np.int64)
    depth = 0
    while len(frontier):
        depth += 1
        rows, _, _ = csc.gather_columns(frontier)
        new = np.unique(rows)
        new = new[levels[new] < 0]
        if len(new) == 0:
            break
        levels[new] = depth
        frontier = new
    return levels


def _validate_csc(csc: CSCMatrix) -> None:  # pragma: no cover - helper
    csc.validate()
