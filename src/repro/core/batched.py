"""The batched multi-vector SpMSpV engine (request coalescing).

The paper's MS-BFS section (§3.4) shows where tile skipping pays off
most: one stored matrix amortised over many concurrent sparse vectors.
:class:`BatchedSpMSpV` is that idea as a first-class operator — it
multiplies one tiled matrix against a batch of ``B`` sparse vectors in
a **single logical launch** through
:func:`~repro.core.spmspv_kernels.batched_union_kernel`:

* the union of the batch's active tile columns is computed once;
* each stored tile in the union streams its payload from global memory
  once and is applied to every vector that activates it;
* the modeled counters charge shared tile loads once per batch instead
  of once per vector (the *shared-load discount*), so modeled bytes
  moved per batch are strictly below ``B`` times the single-vector
  cost whenever vectors share tiles.

Per vector, results are byte-identical to looping
:class:`~repro.core.TileSpMSpV` — enforced by
``tests/core/test_batched_engine.py`` across a shape × density ×
semiring × batch-size grid.  The engine shares its preprocessing plan
(hybrid tiling + indexed COO side) with ``TileSpMSpV`` through the
PR-1 plan cache, so building both over one matrix tiles it once.

The request-coalescing scheduler that feeds this engine lives in
:class:`repro.runtime.BatchQueue`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from ..errors import ShapeError
from ..gpusim import Device
from ..runtime import PlanCache
from ..semiring import PLUS_TIMES, Semiring
from ..vectors.sparse_vector import SparseVector
from .spmspv import TiledOperator, VectorLike, as_tiled_vector
from .spmspv_kernels import batched_union_kernel, coo_side_kernel

__all__ = ["BatchedSpMSpV", "coalesced_multiply"]


def coalesced_multiply(op: TiledOperator, xs: Sequence[VectorLike],
                       output: str, tag: Optional[str], union_name: str,
                       side_name: str
                       ) -> Union[List[SparseVector], np.ndarray]:
    """One coalesced batch on a prepared operator: the union kernel over
    the tiled part, then one COO-side launch per vector.

    The batched path of every operator in the family —
    :meth:`BatchedSpMSpV.multiply_batch` and
    :meth:`~repro.core.TileSpMSpV.multiply_batch` differ only in their
    launch names.
    """
    if output not in ("sparse", "dense"):
        raise ShapeError(f"unknown output mode {output!r}")
    if op._sharded is not None:
        return op._sharded.multiply_batch(xs, output=output, tag=tag)
    sr = op.semiring
    fill = float(sr.add_identity)
    xts = [as_tiled_vector(x, op.nt, fill, dtype=sr.dtype) for x in xs]
    for xt in xts:
        if xt.n != op.shape[1]:
            raise ShapeError(
                f"SpMSpV shape mismatch: A is {op.shape}, "
                f"x has length {xt.n}"
            )
    Y = op.ctx.run(union_name, batched_union_kernel, op.hybrid.tiled, xts,
                   semiring=sr, phase="batch", tag=tag)
    if op.hybrid.side.nnz:
        # the extracted COO side has no tile reuse to coalesce: one
        # per-entry launch per vector, exactly the single path
        for y, xt in zip(Y, xts):
            op.ctx.run(side_name, coo_side_kernel, op._side_index, xt,
                       semiring=sr, y_dense=y, phase="batch", tag=tag)
    if output == "dense":
        return Y
    return [op.sparsify(y) for y in Y]


class BatchedSpMSpV(TiledOperator):
    """Prepared batched SpMSpV operator for one sparse matrix.

    Parameters
    ----------
    matrix:
        Any library sparse matrix, or an already-built
        :class:`~repro.tiles.extraction.HybridTiledMatrix` /
        :class:`~repro.tiles.tiled_matrix.TiledMatrix` /
        :class:`~repro.shards.sharded_matrix.ShardedTiledMatrix`.
    nt:
        Tile size (16/32/64 per the paper; small powers of two for
        testing).
    extract_threshold:
        Very-sparse-tile COO extraction threshold (paper §3.2.1).
    semiring:
        The ``(add, mul)`` algebra applied to every vector of a batch.
    device:
        Optional simulated GPU (or a shared
        :class:`~repro.runtime.ExecutionContext`).
    plan_cache:
        Plan cache override; defaults to the process-wide cache.  The
        key matches ``TileSpMSpV(mode="csr")`` over the same matrix, so
        the two operators share one tiling.
    """

    operator = "batched_spmspv"

    def __init__(self, matrix, nt: int = 16, extract_threshold: int = 2,
                 semiring: Semiring = PLUS_TIMES,
                 device: Optional[Device] = None,
                 plan_cache: Optional[PlanCache] = None,
                 parallel=None):
        super().__init__(matrix, nt, extract_threshold, semiring, device,
                         plan_cache, parallel)

    def multiply_batch(self, xs: Sequence[VectorLike],
                       output: str = "sparse",
                       tag: Optional[str] = None,
                       ) -> Union[List[SparseVector], np.ndarray]:
        """Compute ``y_b = A x_b`` for every vector of the batch in one
        coalesced launch.

        Parameters
        ----------
        xs:
            Non-empty sequence of vectors (any form
            :meth:`TileSpMSpV.multiply` accepts), all of length
            ``A.shape[1]``.
        output:
            ``"sparse"`` (default) → list of :class:`SparseVector`;
            ``"dense"`` → one ``(B, m)`` ndarray.
        tag:
            Optional tag forwarded to the launch records (the
            :class:`~repro.runtime.BatchQueue` stamps its batch id
            here so traces attribute launches to batches).
        """
        return coalesced_multiply(self, xs, output, tag,
                                  "batched_spmspv_union",
                                  "batched_spmspv_coo_side")

    def multiply(self, x: VectorLike, output: str = "sparse"):
        """Single-vector convenience: a batch of one.

        With ``B = 1`` the union *is* the vector's active set, so the
        result and counters are byte-identical to the single-vector
        kernel — the property the batch-size-1 tests pin down.
        """
        result = self.multiply_batch([x], output="dense" if
                                     output == "dense" else "sparse")
        return result[0]
