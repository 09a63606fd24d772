"""SpMSpV computed by calling a general SpGEMM — the paper's §1 strawman.

"Compared to SpGEMM, SpMSpV multiplies a sparse matrix with a sparse
vector, but not with another sparse matrix of possibly a large number
of columns. As a result, to compute SpMSpV, it is in general less
efficient to just call ... an SpGEMM (mostly needs to run the
Gustavson's row-row method, and encounters very bad data locality since
each non-empty row of the multiplier has only one element)." — §1.

This baseline does exactly that: reshape ``x`` into an ``n x 1`` sparse
matrix and run Gustavson.  The cost structure the quote describes is
what the counters charge: the row-row method walks *every stored entry
of A* to probe whether its ``B`` row (here: one vector element) exists
— a scattered single-element lookup per nonzero of ``A`` — and its
hash/sort machinery runs even though every output row has at most one
column.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..errors import ShapeError
from ..formats.convert import to_csr
from ..formats.csr import CSRMatrix
from ..formats.spgemm import spgemm
from ..gpusim import Device, KernelCounters
from ..runtime import ScopedOperator
from ..vectors.sparse_vector import SparseVector

__all__ = ["SpMSpVViaSpGEMM"]


class SpMSpVViaSpGEMM(ScopedOperator):
    """SpMSpV by calling the general Gustavson SpGEMM on ``A @ x``."""

    operator = "spmspv-via-spgemm"

    def __init__(self, matrix, device: Optional[Device] = None):
        super().__init__(device)
        self.csr = to_csr(matrix)

    @property
    def shape(self):
        return self.csr.shape

    def multiply(self, x: SparseVector) -> SparseVector:
        """``y = A x`` via ``C = A @ X`` with ``X`` an ``n x 1`` matrix."""
        if x.n != self.shape[1]:
            raise ShapeError(
                f"shape mismatch: A is {self.shape}, x has length {x.n}"
            )
        indptr = np.zeros(x.n + 1, dtype=np.int64)
        np.add.at(indptr, x.indices + 1, 1)
        np.cumsum(indptr, out=indptr)
        X = CSRMatrix((x.n, 1), indptr,
                      np.zeros(x.nnz, dtype=np.int64), x.values)
        C = spgemm(self.csr, X)

        c = KernelCounters(launches=3)   # expand / sort / compress
        nnz = self.csr.nnz
        matched = int(np.isin(self.csr.indices, x.indices).sum())
        # row-row walk: every A entry streams in and probes the
        # multiplier's row — a scattered single-element lookup
        c.coalesced_read_bytes += nnz * 16.0
        c.random_read_count += float(nnz)      # B-row existence probes
        c.flops += 2.0 * matched
        # partial products round-trip through global memory for the
        # sort/compress phases (general machinery, single column)
        c.coalesced_write_bytes += matched * 16.0
        c.coalesced_read_bytes += matched * 16.0 * 4   # radix passes
        c.coalesced_write_bytes += matched * 16.0 * 4
        c.coalesced_write_bytes += C.nnz * 16.0
        c.warps = max(1.0, nnz / 32.0)
        self.ctx.launch("spmspv_via_spgemm", c, phase="multiply")

        idx = C.row_of_entry()
        keep = C.data != 0
        return SparseVector(self.shape[0], idx[keep], C.data[keep])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<SpMSpVViaSpGEMM {self.shape}>"
