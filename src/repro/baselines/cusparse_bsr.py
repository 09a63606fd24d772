"""cuSPARSE ``bsrmv`` stand-in: block-sparse SpMV with dense blocks.

The paper's SpMV library baseline is ``cusparse?bsrmv()`` (Table 1).
BSR stores every non-empty block *densely* — explicit zeros included —
and multiplies each block against a dense slice of ``x``.  Its cost is
therefore proportional to ``n_blocks * b * b`` rather than to
``nnz``, and entirely independent of the input-vector sparsity: on a
0.0001-sparsity vector it performs the full SpMV work.  Both effects
are visible in Figure 6, where the TileSpMSpV/cuSPARSE gap widens from
~7.6x at sparsity 0.1 to ~25x at 0.0001 (up to 1825x on scattered
matrices whose blocks are nearly empty).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from ..errors import ShapeError
from ..formats.bsr import BSRMatrix
from ..formats.convert import to_bsr
from ..gpusim import Device, KernelCounters
from ..runtime import ScopedOperator
from ..vectors.sparse_vector import SparseVector

__all__ = ["CuSparseBSRMV"]


class CuSparseBSRMV(ScopedOperator):
    """Prepared ``bsrmv``-style operator.

    Parameters
    ----------
    matrix:
        Any library matrix (converted to BSR).
    blocksize:
        Dense block edge (cuSPARSE supports 2..32; default 16 to match
        the tiled algorithms' tile size).
    device:
        Optional simulated GPU.
    """

    operator = "cusparse-bsr"

    def __init__(self, matrix, blocksize: int = 16,
                 device: Optional[Device] = None):
        super().__init__(device)
        if isinstance(matrix, BSRMatrix):
            self.bsr = matrix
        else:
            self.bsr = to_bsr(matrix, blocksize)

    @property
    def shape(self):
        return self.bsr.shape

    # ------------------------------------------------------------------
    def multiply(self, x: Union[SparseVector, np.ndarray]) -> SparseVector:
        """``y = A x`` with full dense-block work (bsrmv semantics)."""
        if isinstance(x, SparseVector):
            if x.n != self.shape[1]:
                raise ShapeError(
                    f"shape mismatch: A is {self.shape}, x has length {x.n}"
                )
            x_dense = x.to_dense()
            c = KernelCounters(launches=1)
            c.coalesced_write_bytes += self.shape[1] * 8.0
            c.coalesced_read_bytes += x.nnz * 16.0
            c.warps = max(1.0, self.shape[1] / (32.0 * 32.0))
            self.ctx.launch("bsrmv_densify_x", c, phase="densify")
        else:
            x_dense = np.asarray(x)
            if x_dense.shape != (self.shape[1],):
                raise ShapeError(
                    f"shape mismatch: A is {self.shape}, x has shape "
                    f"{x_dense.shape}"
                )

        y = self.bsr.matvec(x_dense)

        b = self.bsr.blocksize
        nb = self.bsr.n_blocks
        c = KernelCounters(launches=1)
        # block metadata + every stored block cell streams in
        c.coalesced_read_bytes += nb * 16.0 + nb * b * b * 8.0
        # the x slice of each block (dense, contiguous, L2-friendly)
        c.l2_read_bytes += nb * b * 8.0
        # full dense work per block, zeros included
        c.flops += 2.0 * nb * b * b
        c.coalesced_write_bytes += max(1, self.bsr.n_block_rows) * b * 8.0
        c.warps = float(max(1, nb))
        c.divergence = 1.0  # dense blocks keep every lane busy
        self.ctx.launch("bsrmv", c, phase="multiply")

        idx = np.flatnonzero(y)
        return SparseVector(self.shape[0], idx, y[idx])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<CuSparseBSRMV {self.shape} b={self.bsr.blocksize} "
                f"blocks={self.bsr.n_blocks} "
                f"fill={self.bsr.fill_ratio():.3f}>")
