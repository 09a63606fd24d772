"""CombBLAS SpMSpV-bucket baseline (Azad & Buluç, IPDPS '17).

The paper compares against "the GPU version of the SpMSpV-bucket
algorithm in the CombBLAS library" (§4.1).  SpMSpV-bucket is
vector-driven over CSC with a bucketed merge:

1. **Gather** — each nonzero ``x_j`` scales column ``a_{*j}`` into
   ``(row, value)`` pairs;
2. **Bucket** — pairs are scattered into buckets by row range, so each
   bucket can be merged independently (load balance);
3. **Sort+merge** — each bucket sorts by row and reduces duplicates;
4. **Compact** — surviving entries scatter into the sparse ``y``.

Its work is proportional to the touched columns (good), but the merge
makes a full off-chip round trip — pairs are written to global-memory
buckets, read back, and sorted — which is the weakness the paper's
§1 names ("working on the off-chip global memory makes merging or
sorting very slow") and that the tiled on-chip merge removes.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .._util import group_starts
from ..errors import ShapeError
from ..formats.convert import to_csc
from ..gpusim import Device, KernelCounters
from ..runtime import ScopedOperator
from ..semiring import PLUS_TIMES, Semiring
from ..vectors.sparse_vector import SparseVector

__all__ = ["CombBLASSpMSpV"]

#: Rows per bucket — sized so a bucket's working set fits an SM's
#: shared memory during the merge phase (Azad & Buluç use a comparable
#: per-thread-block range).
DEFAULT_BUCKET_ROWS = 4096


class CombBLASSpMSpV(ScopedOperator):
    """Prepared SpMSpV-bucket operator over CSC storage."""

    operator = "combblas"

    def __init__(self, matrix, bucket_rows: int = DEFAULT_BUCKET_ROWS,
                 semiring: Semiring = PLUS_TIMES,
                 device: Optional[Device] = None):
        super().__init__(device)
        self.csc = to_csc(matrix)
        if bucket_rows <= 0:
            raise ShapeError(f"bucket_rows must be positive, got {bucket_rows}")
        self.bucket_rows = int(bucket_rows)
        self.semiring = semiring

    @property
    def shape(self):
        return self.csc.shape

    # ------------------------------------------------------------------
    def multiply(self, x: SparseVector) -> SparseVector:
        """``y = A x`` via gather → bucket → sort/merge → compact."""
        if x.n != self.shape[1]:
            raise ShapeError(
                f"shape mismatch: A is {self.shape}, x has length {x.n}"
            )
        semiring = self.semiring

        # Phase 1-2: gather touched columns and bucket the pairs.
        rows, vals, src = self.csc.gather_columns(x.indices)
        products = semiring.mul(vals, x.values[src])
        buckets = rows // self.bucket_rows

        # Phase 3: per-bucket sort + duplicate reduction (one global
        # lexsort is the vectorized equivalent of independent
        # per-bucket sorts).
        n_pairs = len(rows)
        if n_pairs:
            order = np.lexsort((rows, buckets))
            rows_s = rows[order]
            prods_s = products[order]
            starts = group_starts(rows_s)
            reduced = semiring.add.reduceat(prods_s, starts) \
                if len(starts) else prods_s[:0]
            out_rows = rows_s[starts]
        else:
            out_rows = rows
            reduced = products

        keep = ~semiring.is_identity(reduced)
        y = SparseVector(self.shape[0], out_rows[keep], reduced[keep])

        self._account(x, n_pairs, len(out_rows))
        return y

    # ------------------------------------------------------------------
    def _account(self, x: SparseVector, n_pairs: int, n_out: int) -> None:
        """Launch the five phases' kernel records."""
        n_buckets = max(1, int(np.ceil(self.shape[0] / self.bucket_rows)))
        # phase 0: per-call setup — clear the bucket-offset table and the
        # per-bucket accumulator flags (m-proportional, paid on every
        # multiply; this fixed cost is why SpMSpV-bucket cannot profit
        # from extremely sparse inputs)
        c = KernelCounters(launches=1)
        c.coalesced_write_bytes += n_buckets * 8.0 + self.shape[0] * 1.0
        c.warps = max(1.0, self.shape[0] / (32.0 * 32.0))
        self.ctx.launch("combblas_setup", c, phase="setup")

        # phase 0b: bucket sizing scan over the touched columns (the
        # algorithm needs per-bucket offsets before it can scatter)
        c = KernelCounters(launches=1)
        c.l2_read_bytes += x.nnz * 16.0
        c.atomic_ops += float(n_pairs)     # histogram increments
        c.coalesced_read_bytes += n_pairs * 8.0
        c.warps = max(1.0, x.nnz)
        self.ctx.launch("combblas_bucket_count", c, phase="bucket")

        # gather: column pointers (L2) + column payloads (coalesced)
        c = KernelCounters(launches=1)
        c.l2_read_bytes += x.nnz * 16.0
        c.coalesced_read_bytes += n_pairs * 16.0
        c.flops += 2.0 * n_pairs
        # bucket scatter: every (row, value) pair makes the off-chip
        # round trip; bucket targets are data-dependent.
        c.random_write_count += float(n_pairs)
        c.warps = max(1.0, x.nnz)
        lens = self.csc.col_degrees()[x.indices] if x.nnz else np.zeros(0)
        if len(lens):
            util = np.minimum(1.0, lens / 32.0).mean()
            c.divergence = float(max(util, 1.0 / 32.0))
        self.ctx.launch("combblas_gather_bucket", c, phase="gather")

        # sort inside buckets: a GPU radix sort by row key makes several
        # full read+write passes over the (row, value) pairs — this
        # off-chip round-tripping is the cost §1 of the paper pins on
        # merge-style SpMSpV.
        c = KernelCounters(launches=1)
        radix_passes = 4
        c.coalesced_read_bytes += n_pairs * 16.0 * radix_passes
        c.coalesced_write_bytes += n_pairs * 16.0 * radix_passes
        c.word_ops += 8.0 * n_pairs
        c.warps = max(1.0, n_pairs / 32.0)
        self.ctx.launch("combblas_sort", c, phase="sort")

        # merge: stream the sorted pairs, reduce duplicate rows
        c = KernelCounters(launches=1)
        c.coalesced_read_bytes += n_pairs * 16.0
        c.flops += float(max(0, n_pairs - n_out))   # duplicate adds
        c.coalesced_write_bytes += n_out * 16.0
        c.warps = max(1.0, n_pairs / 32.0)
        self.ctx.launch("combblas_merge", c, phase="merge")

        # compact into the sparse output
        c = KernelCounters(launches=1)
        c.coalesced_read_bytes += n_out * 16.0
        c.random_write_count += float(n_out)
        c.atomic_ops += float(n_out)    # output-offset counters
        c.warps = max(1.0, n_out / 32.0)
        self.ctx.launch("combblas_compact", c, phase="compact")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<CombBLASSpMSpV {self.shape} "
                f"bucket_rows={self.bucket_rows}>")
