"""Connected components via label propagation over SpMSpV.

The classic algebraic formulation: every vertex starts with its own
label; each round propagates the minimum label across edges with a
``(min, min)``-flavoured SpMSpV until no label changes.  Only vertices
whose label changed stay in the frontier, so each round is a genuinely
*sparse* matrix-sparse vector product — the workload SpMSpV exists for.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.spmspv import TileSpMSpV
from ..errors import ShapeError
from ..formats.convert import to_coo
from ..formats.coo import COOMatrix
from ..gpusim import Device
from ..semiring import MIN_PLUS, Semiring
from ..vectors.sparse_vector import SparseVector

__all__ = ["connected_components"]

#: (min, first) propagation semiring: combine = take the neighbour's
#: label (edge values are 0 under min-plus so mul=+0 passes labels
#: through), reduce = min.
_PROPAGATE: Semiring = MIN_PLUS


def connected_components(matrix, nt: int = 16,
                         device: Optional[Device] = None,
                         max_rounds: Optional[int] = None) -> np.ndarray:
    """Component id per vertex (the minimum vertex id in the component).

    Parameters
    ----------
    matrix:
        Square symmetric adjacency pattern (values ignored).
    nt:
        Tile size of the underlying operator.
    device:
        Optional simulated GPU.
    max_rounds:
        Safety cap on propagation rounds (default: n).

    Returns
    -------
    ``int64[n]`` labels; ``labels[v]`` is the smallest vertex id
    reachable from ``v``.
    """
    coo = to_coo(matrix)
    if coo.shape[0] != coo.shape[1]:
        raise ShapeError(
            f"connected_components requires a square matrix, "
            f"got {coo.shape}"
        )
    n = coo.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)

    # pattern matrix with zero weights: under (min, +) a multiply
    # forwards the source label unchanged
    pattern = COOMatrix(coo.shape, coo.row, coo.col,
                        np.zeros(coo.nnz))
    op = TileSpMSpV(pattern, nt=nt, semiring=_PROPAGATE, device=device)

    labels = np.arange(n, dtype=np.float64)
    frontier = SparseVector(n, np.arange(n), labels.copy())
    rounds = 0
    cap = max_rounds if max_rounds is not None else n + 1
    while frontier.nnz and rounds < cap:
        rounds += 1
        y = op.multiply(frontier)
        improved = y.indices[y.values < labels[y.indices] - 1e-12]
        if len(improved) == 0:
            break
        labels[improved] = y.to_dense()[improved]
        frontier = SparseVector(n, improved, labels[improved])
    return labels.astype(np.int64)
