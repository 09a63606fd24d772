"""Dense vector block: B column vectors in one row-major, nt-aligned
array (the SpMM operand).

Where :class:`~repro.tiles.tiled_vector.TiledVector` compacts one
sparse vector into non-empty tiles, a :class:`DenseBlock` keeps ``B``
columns dense: the SpMM regime (B = 32-512 personalization vectors,
label/feature columns) activates essentially every tile column, so
tile skipping buys nothing and the win moves to row-major blocking —
one nonzero of ``A`` multiplies a whole contiguous ``B``-wide row of
the block (see "Design Principles for Sparse Matrix Multiplication on
the GPU", Yang/Buluc/Owens).

The storage is a C-contiguous ``(ceil(n / nt) * nt, B)`` array: rows
are padded to a whole number of tiles so a kernel can stage tile-row
segments without bounds checks, and the padding rows (and the empty
slots of real rows) hold ``fill`` — the additive identity of the
semiring in use, exactly like the tiled vector's sentinel.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from .._util import ceil_div
from ..errors import ShapeError, TileError
from ..tiles.tiled_vector import check_tile_size
from .sparse_vector import SparseVector

__all__ = ["DenseBlock"]


class DenseBlock:
    """``B`` dense column vectors of length ``n`` in one nt-aligned,
    row-major array.

    Attributes
    ----------
    n:
        Logical length of every column.
    nt:
        Tile size the row padding is aligned to.
    fill:
        The "no entry" sentinel stored in padding rows (the semiring's
        additive identity; 0.0 for ordinary algebra).
    data:
        C-contiguous ``(ceil(n / nt) * nt, B)`` array; ``data[i, j]``
        is element ``i`` of column ``j`` for ``i < n``.
    """

    def __init__(self, n: int, nt: int, data: np.ndarray,
                 fill: float = 0.0):
        check_tile_size(nt)
        if n < 0:
            raise ShapeError(f"negative vector length {n}")
        self.n = int(n)
        self.nt = int(nt)
        self.fill = float(fill)
        self.data = np.ascontiguousarray(data)
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every structural invariant of the layout."""
        if self.data.ndim != 2:
            raise ShapeError(
                f"expected 2-D block data, got ndim={self.data.ndim}"
            )
        rows = ceil_div(self.n, self.nt) * self.nt
        if self.data.shape[0] != rows:
            raise TileError(
                f"block data has {self.data.shape[0]} rows, expected "
                f"{rows} (n={self.n} padded to nt={self.nt})"
            )
        if self.data.shape[1] < 1:
            raise ShapeError("a DenseBlock needs at least one column")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, X: np.ndarray, nt: int, fill: float = 0.0,
                   dtype=None) -> "DenseBlock":
        """Wrap a dense ``(n, B)`` array, padding rows to the tile size.

        ``fill`` is the sentinel written into the padding rows; pass the
        semiring's additive identity (``inf`` for min-plus).  ``dtype``
        overrides the storage dtype — pass the semiring dtype so integer
        algebras (``or_and`` bitmasks) are not squeezed through float64.
        """
        X = np.asarray(X)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2:
            raise ShapeError(f"expected 2-D block, got ndim={X.ndim}")
        n = X.shape[0]
        if dtype is None:
            dtype = X.dtype if X.dtype.kind == "f" else np.float64
        rows = ceil_div(n, nt) * nt
        data = np.full((rows, X.shape[1]), fill, dtype=dtype)
        data[:n] = X
        if not np.isnan(fill):
            # slots holding the sentinel *value* are the sentinel:
            # normalise them to its exact bits (-0.0 → +0.0 for the
            # default fill), so a block round-trips through the sparse
            # form bit-identically — the column-slice equivalence
            # depends on this
            data[data == fill] = fill
        return cls(n, nt, data, fill=fill)

    @classmethod
    def from_sparse_vectors(cls, vectors: Sequence, nt: int,
                            fill: float = 0.0, dtype=None,
                            n: Optional[int] = None) -> "DenseBlock":
        """Densify ``B`` sparse vectors into the block's columns.

        Column ``j`` is assembled exactly the way
        :meth:`~repro.tiles.tiled_vector.TiledVector.from_sparse`
        assembles a tile payload — sentinel reset followed by an
        accumulating scatter — so a block built from the same vectors a
        batched SpMSpV consumes holds bit-identical values.
        """
        if len(vectors) == 0:
            raise ShapeError("a DenseBlock needs at least one column")
        if dtype is None:
            dtype = np.float64
        if n is None:
            n = int(vectors[0].n)
        rows = ceil_div(n, nt) * nt
        data = np.full((rows, len(vectors)), fill, dtype=dtype)
        for j, v in enumerate(vectors):
            if v.n != n:
                raise ShapeError(
                    f"column {j} has length {v.n}, expected {n}"
                )
            idx = np.asarray(v.indices, dtype=np.int64)
            if len(idx):
                data[idx, j] = 0  # reset sentinel before accumulating
                np.add.at(data[:, j], idx,
                          np.asarray(v.values).astype(dtype, copy=False))
        return cls(n, nt, data, fill=fill)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def B(self) -> int:
        """Number of columns in the block."""
        return int(self.data.shape[1])

    @property
    def n_tiles(self) -> int:
        """Number of nt-sized row tiles (all materialised)."""
        return ceil_div(self.n, self.nt)

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    def column(self, j: int) -> np.ndarray:
        """Dense column ``j`` (length ``n``, padding stripped)."""
        if not (0 <= j < self.B):
            raise ShapeError(f"column {j} out of range for B={self.B}")
        return self.data[: self.n, j].copy()

    def column_sparse(self, j: int) -> SparseVector:
        """Column ``j`` as a :class:`SparseVector` (fill entries
        dropped) — the operand a single-vector SpMSpV consumes in the
        column-slice equivalence checks."""
        col = self.data[: self.n, j]
        if np.isnan(self.fill):  # pragma: no cover - defensive
            idx = np.flatnonzero(~np.isnan(col))
        else:
            idx = np.flatnonzero(col != self.fill)
        return SparseVector(self.n, idx, col[idx].copy())

    def to_dense(self) -> np.ndarray:
        """The ``(n, B)`` array (padding rows stripped)."""
        return self.data[: self.n].copy()

    def nbytes(self) -> int:
        """Storage footprint of the padded block."""
        return self.data.nbytes

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<DenseBlock n={self.n} B={self.B} nt={self.nt} "
                f"dtype={self.data.dtype}>")
