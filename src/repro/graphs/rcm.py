"""Reverse Cuthill-McKee ordering built on TileBFS levels.

RCM is the third application the paper's §1 motivates ("reverse
Cuthill-McKee (RCM) ordering can be accelerated by fast SpMSpV",
citing Azad et al., IPDPS '17).  The algorithm is BFS-shaped: pick a
pseudo-peripheral start vertex (two BFS sweeps), then emit vertices
level by level in increasing-degree order and reverse the result —
so the level structure comes straight from :class:`~repro.core.TileBFS`
and RCM doubles as an integration test of it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.tilebfs import TileBFS
from ..errors import ShapeError
from ..formats.convert import to_coo
from ..gpusim import Device

__all__ = ["rcm_ordering", "bandwidth"]


def rcm_ordering(matrix, start: Optional[int] = None,
                 nt: Optional[int] = None,
                 device: Optional[Device] = None) -> np.ndarray:
    """Reverse Cuthill-McKee permutation of a symmetric pattern.

    Returns ``perm`` such that ``A[perm][:, perm]`` has (typically)
    much smaller bandwidth.  Disconnected components are ordered one
    after another, each from its own pseudo-peripheral vertex.

    Parameters
    ----------
    matrix:
        Square symmetric sparse pattern.
    start:
        Optional start vertex; ``None`` picks a pseudo-peripheral one
        per component via the standard double-BFS heuristic.
    nt, device:
        Forwarded to the underlying :class:`TileBFS`.
    """
    bfs = TileBFS(matrix, nt=nt, device=device)
    n = bfs.n
    degrees = _degrees(matrix, n)

    visited = np.zeros(n, dtype=bool)
    order = np.zeros(n, dtype=np.int64)
    pos = 0
    forced = start
    while pos < n:
        remaining = np.flatnonzero(~visited)
        if forced is not None:
            if not (0 <= forced < n):
                raise ShapeError(f"start {forced} out of range for n={n}")
            s = forced
            forced = None
        else:
            # lowest-degree unvisited vertex, then one BFS hop to a
            # far vertex = pseudo-peripheral pick
            s = int(remaining[np.argmin(degrees[remaining])])
            far = bfs.run(s)
            reach = np.flatnonzero(far.levels >= 0)
            deepest = reach[far.levels[reach] == far.levels[reach].max()]
            s = int(deepest[np.argmin(degrees[deepest])])
        res = bfs.run(s)
        comp = np.flatnonzero(res.levels >= 0)
        comp = comp[~visited[comp]]
        # emit level by level, increasing degree inside a level
        key = res.levels[comp] * (degrees.max() + 1) + degrees[comp]
        comp_sorted = comp[np.argsort(key, kind="stable")]
        order[pos: pos + len(comp_sorted)] = comp_sorted
        visited[comp_sorted] = True
        pos += len(comp_sorted)
    return order[::-1].copy()


def bandwidth(matrix, perm: Optional[np.ndarray] = None) -> int:
    """Matrix bandwidth ``max |i - j|`` over nonzeros, optionally under
    a permutation — the quantity RCM minimises."""
    coo = to_coo(matrix)
    if coo.nnz == 0:
        return 0
    if perm is not None:
        inv = np.empty(len(perm), dtype=np.int64)
        inv[perm] = np.arange(len(perm))
        rows, cols = inv[coo.row], inv[coo.col]
    else:
        rows, cols = coo.row, coo.col
    return int(np.abs(rows - cols).max())


def _degrees(matrix, n: int) -> np.ndarray:
    coo = to_coo(matrix)
    return np.bincount(coo.row, minlength=n).astype(np.int64)
