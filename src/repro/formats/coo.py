"""Coordinate (COO) sparse matrix format.

COO is the interchange format of this library: every generator produces
COO, every other format converts through it, and the very-sparse-tile
extraction of the paper (§3.2.1) stores its side matrix in COO.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import FormatError, ShapeError
from .base import SparseMatrix, check_index_arrays

__all__ = ["COOMatrix"]


class COOMatrix(SparseMatrix):
    """Sparse matrix stored as parallel ``(row, col, val)`` arrays.

    Duplicate coordinates are allowed on construction and are summed by
    :meth:`sum_duplicates`; most consumers call :meth:`canonicalize`
    first, which sorts row-major and removes duplicates.

    Parameters
    ----------
    shape:
        ``(nrows, ncols)``.
    row, col:
        Integer index arrays of equal length.
    val:
        Value array of the same length (a pattern-only matrix can pass
        ``None`` to get all-ones float64 values).
    """

    def __init__(self, shape: Tuple[int, int], row: np.ndarray,
                 col: np.ndarray, val: Optional[np.ndarray] = None):
        m, n = int(shape[0]), int(shape[1])
        if m < 0 or n < 0:
            raise ShapeError(f"negative matrix dimension in shape {shape}")
        self.shape = (m, n)
        self.row = np.ascontiguousarray(row, dtype=np.int64)
        self.col = np.ascontiguousarray(col, dtype=np.int64)
        if val is None:
            val = np.ones(len(self.row), dtype=np.float64)
        self.val = np.ascontiguousarray(val)
        if len(self.val) != len(self.row):
            raise FormatError(
                f"COO value array length {len(self.val)} != index length "
                f"{len(self.row)}"
            )
        check_index_arrays(self.row, self.col, self.shape, "COO")

    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        return len(self.val)

    @property
    def dtype(self) -> np.dtype:
        return self.val.dtype

    def validate(self) -> None:
        if len({len(self.row), len(self.col), len(self.val)}) != 1:
            raise FormatError("COO arrays have inconsistent lengths")
        check_index_arrays(self.row, self.col, self.shape, "COO")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        """Build from a dense 2-D array, dropping exact zeros."""
        dense = np.asarray(dense)
        if dense.ndim != 2:
            raise ShapeError(f"expected 2-D array, got ndim={dense.ndim}")
        row, col = np.nonzero(dense)
        return cls(dense.shape, row, col, dense[row, col])

    @classmethod
    def empty(cls, shape: Tuple[int, int],
              dtype: np.dtype = np.float64) -> "COOMatrix":
        """An all-zero matrix of the given shape."""
        z = np.zeros(0, dtype=np.int64)
        return cls(shape, z, z, np.zeros(0, dtype=dtype))

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------
    def canonicalize(self) -> "COOMatrix":
        """Return a row-major-sorted, duplicate-summed copy
        (:meth:`sum_duplicates` output is already row-major)."""
        return self.sum_duplicates()

    def sort_rowmajor(self) -> "COOMatrix":
        """Return a copy sorted by ``(row, col)``."""
        order = np.lexsort((self.col, self.row))
        return COOMatrix(self.shape, self.row[order], self.col[order],
                         self.val[order])

    def sum_duplicates(self) -> "COOMatrix":
        """Return a copy in which duplicate coordinates are summed, in
        row-major order (ascending ``row * n + col`` keys).

        Canonical input (row-major, no duplicates: strictly ascending
        keys) is recognised in O(nnz) and copied without a sort.
        """
        if self.nnz == 0:
            return COOMatrix(self.shape, self.row, self.col, self.val)
        key = self.row * self.shape[1] + self.col
        if bool(np.all(key[1:] > key[:-1])):
            return COOMatrix(self.shape, self.row.copy(), self.col.copy(),
                             self.val.copy())
        order = np.argsort(key, kind="stable")
        key_s = key[order]
        val_s = self.val[order]
        boundary = np.empty(len(key_s), dtype=bool)
        boundary[0] = True
        np.not_equal(key_s[1:], key_s[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        summed = np.add.reduceat(val_s, starts)
        uk = key_s[starts]
        return COOMatrix(self.shape, uk // self.shape[1],
                         uk % self.shape[1], summed)

    def drop_zeros(self, tol: float = 0.0) -> "COOMatrix":
        """Return a copy without entries whose ``|val| <= tol``."""
        keep = np.abs(self.val) > tol
        return COOMatrix(self.shape, self.row[keep], self.col[keep],
                         self.val[keep])

    # ------------------------------------------------------------------
    # Conversions / ops
    # ------------------------------------------------------------------
    def to_coo(self) -> "COOMatrix":
        return self

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.val.dtype)
        np.add.at(out, (self.row, self.col), self.val)
        return out

    def transpose(self) -> "COOMatrix":
        """Return the transposed matrix (indices swapped, O(1) copy)."""
        return COOMatrix((self.shape[1], self.shape[0]), self.col.copy(),
                         self.row.copy(), self.val.copy())

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """Dense ``y = A @ x`` via scatter-add (reference use only)."""
        self._check_matvec_shape(x)
        y = np.zeros(self.shape[0],
                     dtype=np.result_type(self.val.dtype, x.dtype))
        if self.nnz:
            np.add.at(y, self.row, self.val * x[self.col])
        return y

    def symmetrize(self) -> "COOMatrix":
        """Return ``A | A^T`` as a pattern-preserving union.

        Values of mirrored entries are taken from the existing entry;
        new mirror entries copy the original value.  Used to turn
        directed generator output into undirected adjacency matrices
        (the paper's BFS experiments run on undirected graphs).
        """
        if self.shape[0] != self.shape[1]:
            raise ShapeError("symmetrize requires a square matrix")
        row = np.concatenate([self.row, self.col])
        col = np.concatenate([self.col, self.row])
        val = np.concatenate([self.val, self.val])
        # keep the first value seen per coordinate
        key = row * self.shape[1] + col
        _, first = np.unique(key, return_index=True)
        return COOMatrix(self.shape, row[first], col[first],
                         val[first]).sort_rowmajor()

    def without_diagonal(self) -> "COOMatrix":
        """Return a copy with diagonal entries removed."""
        keep = self.row != self.col
        return COOMatrix(self.shape, self.row[keep], self.col[keep],
                         self.val[keep])
