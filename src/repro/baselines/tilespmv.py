"""TileSpMV baseline (Niu et al., IPDPS '21) — tiled SpMV with a dense
input vector.

TileSpMV is the paper's closest competitor (its own precursor): the
same sparse-tile storage, but the input vector is **dense**, so

* a sparse ``x`` must first be scattered into its dense form (an extra
  kernel + full-vector traffic), and
* every stored tile is processed — there is no ``x_ptr`` test, hence no
  tile skipping — which is exactly the gap Figure 6 measures
  (TileSpMSpV wins by ~1.1x at sparsity 0.1 up to ~2.4x at 0.0001).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..errors import ShapeError
from ..formats.convert import to_coo
from ..gpusim import Device, KernelCounters
from ..runtime import ScopedOperator
from ..semiring import PLUS_TIMES, Semiring
from ..tiles.tiled_matrix import TiledMatrix
from ..vectors.sparse_vector import SparseVector

__all__ = ["TileSpMV"]


class TileSpMV(ScopedOperator):
    """Prepared TileSpMV operator (dense-vector tiled SpMV).

    Parameters mirror :class:`repro.core.TileSpMSpV` minus extraction
    (TileSpMV stores everything in tiles).
    """

    operator = "tilespmv"

    def __init__(self, matrix, nt: int = 16,
                 semiring: Semiring = PLUS_TIMES,
                 device: Optional[Device] = None):
        super().__init__(device)
        if isinstance(matrix, TiledMatrix):
            self.tiled = matrix
        else:
            self.tiled = TiledMatrix.from_coo(to_coo(matrix), nt)
        self.semiring = semiring

    @property
    def shape(self):
        return self.tiled.shape

    @property
    def nt(self) -> int:
        return self.tiled.nt

    # ------------------------------------------------------------------
    def multiply(self, x: Union[SparseVector, np.ndarray]) -> SparseVector:
        """Compute ``y = A x``.

        A sparse ``x`` is densified first (that cost is charged — it is
        how an SpMV library is actually used for SpMSpV, per the
        paper's introduction).
        """
        semiring = self.semiring
        if isinstance(x, SparseVector):
            if x.n != self.shape[1]:
                raise ShapeError(
                    f"shape mismatch: A is {self.shape}, x has length {x.n}"
                )
            x_dense = np.full(self.shape[1], semiring.add_identity,
                              dtype=semiring.dtype)
            x_dense[x.indices] = x.values
            c = KernelCounters(launches=1)
            c.coalesced_write_bytes += self.shape[1] * 8.0  # densify
            c.coalesced_read_bytes += x.nnz * 16.0
            c.warps = max(1.0, self.shape[1] / (32.0 * 32.0))
            self.ctx.launch("tilespmv_densify_x", c, phase="densify")
        else:
            x_dense = np.asarray(x)
            if x_dense.shape != (self.shape[1],):
                raise ShapeError(
                    f"shape mismatch: A is {self.shape}, x has shape "
                    f"{x_dense.shape}"
                )

        A = self.tiled
        nt = A.nt
        # every stored tile is processed: gather x per entry, reduce rows
        lcol = A.local_col.astype(np.int64)
        tcol = A.tile_colidx[A.tile_of_entry()]
        products = semiring.mul(A.values, x_dense[tcol * nt + lcol])
        grow = (A.tile_rowidx()[A.tile_of_entry()] * nt
                + A.local_row.astype(np.int64))
        y_dense = np.full(self.shape[0], semiring.add_identity,
                          dtype=semiring.dtype)
        if len(grow):
            semiring.add.at(y_dense, grow, products)

        c = KernelCounters(launches=1)
        idx_bytes = A.index_bytes_per_entry()
        c.coalesced_read_bytes += A.n_nonempty_tiles * 16.0
        c.coalesced_read_bytes += A.nnz * (8.0 + idx_bytes)
        # the dense-x tile of *every* stored tile streams through
        # shared memory — no skipping
        c.l2_read_bytes += A.n_nonempty_tiles * nt * 8.0
        c.shared_bytes += A.n_nonempty_tiles * nt * 8.0
        c.flops += 2.0 * A.nnz
        c.word_ops += A.n_nonempty_tiles * 5.0
        row_tiles = max(1, A.n_tile_rows)
        c.coalesced_write_bytes += row_tiles * nt * 8.0
        c.warps = float(row_tiles)
        nnz_tiles = np.diff(A.tile_nnz_ptr)
        if len(nnz_tiles):
            util = np.minimum(1.0, nnz_tiles / 32.0).mean()
            c.divergence = float(max(util, 1.0 / 32.0))
        self.ctx.launch("tilespmv", c, phase="multiply")

        idx = np.flatnonzero(~semiring.is_identity(y_dense))
        return SparseVector(self.shape[0], idx, y_dense[idx])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<TileSpMV {self.shape} nt={self.nt} "
                f"tiles={self.tiled.n_nonempty_tiles}>")
