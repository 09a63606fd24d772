"""Format conversion helpers and scipy interop.

All conversions route through :class:`~repro.formats.coo.COOMatrix`,
which is canonicalized on the way, so any conversion chain ends in the
same canonical entry order — the round-trip property the test suite
checks with hypothesis.
"""

from __future__ import annotations

from typing import Union

import numpy as np

from .base import SparseMatrix
from .bsr import BSRMatrix
from .coo import COOMatrix
from .csc import CSCMatrix
from .csr import CSRMatrix

__all__ = [
    "to_coo", "to_csr", "to_csc", "to_bsr",
    "from_scipy", "to_scipy_csr", "as_sparse",
]

MatrixLike = Union[SparseMatrix, np.ndarray]


def as_sparse(matrix: MatrixLike) -> SparseMatrix:
    """Accept a library matrix or a dense array; return a library
    matrix (a ``scipy.sparse`` one goes through :func:`from_scipy`)."""
    if isinstance(matrix, SparseMatrix):
        return matrix
    if type(matrix).__module__.startswith("scipy.sparse"):
        raise TypeError(
            f"{type(matrix).__name__} is a scipy.sparse matrix; import it "
            f"with repro.formats.from_scipy first")
    return COOMatrix.from_dense(np.asarray(matrix))


def to_coo(matrix: MatrixLike) -> COOMatrix:
    """Convert anything matrix-like to COO."""
    return as_sparse(matrix).to_coo()


def to_csr(matrix: MatrixLike) -> CSRMatrix:
    """Convert anything matrix-like to CSR."""
    m = as_sparse(matrix)
    return m if isinstance(m, CSRMatrix) else m.to_csr()


def to_csc(matrix: MatrixLike) -> CSCMatrix:
    """Convert anything matrix-like to CSC."""
    m = as_sparse(matrix)
    return m if isinstance(m, CSCMatrix) else m.to_csc()


def to_bsr(matrix: MatrixLike, blocksize: int) -> BSRMatrix:
    """Convert anything matrix-like to BSR with the given block size."""
    return BSRMatrix.from_coo(to_coo(matrix), blocksize)


def from_scipy(sp_matrix) -> COOMatrix:
    """Import a scipy.sparse matrix (any format) as COO.

    Only used at the edges (tests, loading user data); the core library
    never depends on scipy.
    """
    coo = sp_matrix.tocoo()
    return COOMatrix(coo.shape, np.asarray(coo.row, dtype=np.int64),
                     np.asarray(coo.col, dtype=np.int64),
                     np.asarray(coo.data))


def to_scipy_csr(matrix: MatrixLike):
    """Export to scipy.sparse.csr_matrix (requires scipy installed)."""
    import scipy.sparse as sp

    csr = to_csr(matrix)
    return sp.csr_matrix((csr.data, csr.indices, csr.indptr),
                         shape=csr.shape)
