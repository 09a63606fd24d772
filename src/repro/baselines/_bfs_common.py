"""Shared functional machinery for the BFS baselines.

Gunrock, GSwitch and Enterprise all perform level-synchronous BFS over
CSR/CSC adjacency with an integer/boolean status array (unlike TileBFS,
whose state is bitmask words).  The *functional* expansion steps live
here; each baseline differs in its kernel structure, launch counts and
counter profile, which stay in the individual modules.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..errors import ShapeError
from ..formats.convert import to_coo
from ..formats.csc import CSCMatrix
from ..formats.csr import CSRMatrix

__all__ = ["build_adjacency", "expand_push", "expand_pull"]


def build_adjacency(matrix) -> Tuple[CSRMatrix, CSCMatrix]:
    """Normalise any matrix-like input into (CSR, CSC) pattern pair."""
    coo = to_coo(matrix)
    if coo.shape[0] != coo.shape[1]:
        raise ShapeError(f"BFS requires a square matrix, got {coo.shape}")
    return coo.to_csr(), coo.to_csc()


def expand_push(csc: CSCMatrix, frontier: np.ndarray,
                visited: np.ndarray) -> Tuple[np.ndarray, int]:
    """Push step: out-neighbours of the frontier that are unvisited.

    ``csc`` here is indexed by *source* vertex — for an adjacency
    matrix ``A`` where ``A[i, j] = 1`` means edge ``j -> i`` (the
    SpMSpV convention ``y = A x``), the out-neighbours of ``j`` are
    column ``j``.  Returns ``(new_vertices, edges_examined)``.
    """
    rows, _, _ = csc.gather_columns(frontier)
    edges = len(rows)
    if edges == 0:
        return np.zeros(0, dtype=np.int64), 0
    candidates = np.unique(rows)
    new = candidates[~visited[candidates]]
    return new, edges


def expand_pull(csr: CSRMatrix, visited: np.ndarray,
                frontier_mask: np.ndarray) -> Tuple[np.ndarray, int]:
    """Pull step: unvisited vertices scan their in-neighbours for a
    frontier member, stopping at the first hit.

    For ``y = A x`` adjacency, the in-neighbours of vertex ``i`` are
    row ``i`` of ``A``.  Returns ``(new_vertices, edges_scanned)`` with
    the early-exit scan count a sequential per-vertex loop would make.
    """
    unvisited = np.flatnonzero(~visited)
    if len(unvisited) == 0:
        return np.zeros(0, dtype=np.int64), 0
    sub = csr.select_rows(unvisited)
    hit = frontier_mask[sub.indices]
    # per-vertex early exit: edges scanned until (and including) the
    # first frontier parent; all of them when none is found.
    lengths = np.diff(sub.indptr)
    vertex_of = np.repeat(np.arange(len(unvisited)), lengths)
    seg_start = np.repeat(sub.indptr[:-1], lengths)
    pos = np.arange(len(hit), dtype=np.int64) - seg_start
    sentinel = np.iinfo(np.int64).max
    first_hit = np.full(len(unvisited), sentinel, dtype=np.int64)
    idx = np.flatnonzero(hit)
    if len(idx):
        np.minimum.at(first_hit, vertex_of[idx], pos[idx])
    scanned = int(np.where(first_hit < sentinel, first_hit + 1,
                           lengths).sum())
    new = unvisited[first_hit < sentinel]
    return new, scanned
