"""Mask-based reference SpMSpV kernels — the pre-active-set seed code.

These are the original functional kernels of
:mod:`repro.core.spmspv_kernels`, preserved verbatim: they locate the
active entries by building boolean masks over **all** ``A.nnz`` stored
entries, so their host cost is O(nnz) regardless of how sparse the
input vector is.  The production kernels replace that mask with a
plan-time column index (see
:class:`~repro.tiles.tiled_matrix.EntryIndex`) whose per-multiply
cost is proportional to the entries whose x slot is set.

They remain in-tree for two jobs:

* the kernel-equivalence tests assert the rewritten kernels return the
  same ``y`` (on finite data; see the developer guide on ``inf``
  entries) and byte-identical
  :class:`~repro.gpusim.counters.KernelCounters` as these oracles;
* the wall-clock benchmark (``benchmarks/bench_wallclock.py``) times
  the rewrite against them, recording the host-side speedup trajectory
  in ``BENCH_wallclock.json``.

The modeled *GPU* cost is identical on both sides by construction: the
counters describe the CUDA realisation, which always skipped inactive
tiles; only the host execution strategy differs.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import ShapeError
from ..gpusim import KernelCounters
from ..semiring import PLUS_TIMES, Semiring
from ..tiles.tiled_matrix import TiledMatrix
from ..tiles.tiled_vector import TiledVector
from .spmspv_kernels import _lane_utilization

__all__ = ["reference_tiled_kernel", "reference_csc_tiled_kernel",
           "reference_coo_side_kernel"]


def reference_tiled_kernel(A: TiledMatrix, x: TiledVector,
                           semiring: Semiring = PLUS_TIMES,
                           y_dense: Optional[np.ndarray] = None,
                           ) -> Tuple[np.ndarray, KernelCounters]:
    """Seed Algorithm-4 kernel: O(nnz) boolean-mask entry selection."""
    if x.n != A.shape[1]:
        raise ShapeError(
            f"SpMSpV shape mismatch: A is {A.shape}, x has length {x.n}"
        )
    if x.nt != A.nt:
        raise ShapeError(
            f"tile size mismatch: matrix nt={A.nt}, vector nt={x.nt}"
        )
    nt = A.nt
    m = A.shape[0]
    if y_dense is None:
        y_dense = np.full(m, semiring.add_identity, dtype=semiring.dtype)

    x_off = x.x_ptr[A.tile_colidx]
    active = x_off >= 0
    n_active = int(active.sum())

    counters = KernelCounters(launches=1)
    counters.coalesced_read_bytes += A.n_nonempty_tiles * 16.0
    counters.l2_read_bytes += A.n_nonempty_tiles * 8.0

    if n_active == 0:
        counters.warps = max(1.0, A.n_tile_rows)
        return y_dense, counters

    tile_of_entry = A.tile_of_entry()
    entry_active = active[tile_of_entry]
    t_act = tile_of_entry[entry_active]
    vals = A.values[entry_active]
    lrow = A.local_row[entry_active].astype(np.int64)
    lcol = A.local_col[entry_active].astype(np.int64)

    xv = x.x_tile[x_off[t_act] * nt + lcol]
    products = semiring.mul(vals, xv)
    grow = A.tile_rowidx()[t_act] * nt + lrow
    semiring.add.at(y_dense, grow, products)

    nnz_active = len(vals)
    idx_bytes = A.index_bytes_per_entry()
    counters.coalesced_read_bytes += nnz_active * (8.0 + idx_bytes)
    counters.l2_read_bytes += n_active * nt * 8.0
    counters.shared_bytes += n_active * nt * 8.0
    counters.flops += 2.0 * nnz_active
    counters.word_ops += n_active * 5.0
    row_tiles_active = np.unique(A.tile_rowidx()[active])
    counters.coalesced_write_bytes += len(row_tiles_active) * nt * 8.0
    counters.warps = float(max(1, int((np.diff(A.tile_ptr) > 0).sum())))
    counters.divergence = _lane_utilization(
        np.diff(A.tile_nnz_ptr)[active])
    counters.check()
    return y_dense, counters


def reference_csc_tiled_kernel(At: TiledMatrix, x: TiledVector,
                               semiring: Semiring = PLUS_TIMES,
                               y_dense: Optional[np.ndarray] = None,
                               ) -> Tuple[np.ndarray, KernelCounters]:
    """Seed CSC-form kernel: active tile selection, then an O(nnz)
    boolean mask to pull the selected entries."""
    n, m = At.shape
    if x.n != n:
        raise ShapeError(
            f"SpMSpV shape mismatch: A is {(m, n)}, x has length {x.n}"
        )
    if x.nt != At.nt:
        raise ShapeError(
            f"tile size mismatch: matrix nt={At.nt}, vector nt={x.nt}"
        )
    nt = At.nt
    if y_dense is None:
        y_dense = np.full(m, semiring.add_identity, dtype=semiring.dtype)

    counters = KernelCounters(launches=1)
    active_cols = np.flatnonzero(x.x_ptr >= 0)
    counters.coalesced_read_bytes += len(active_cols) * 8.0
    if len(active_cols) == 0:
        counters.warps = 1.0
        return y_dense, counters

    from .._util import concat_ranges

    lengths = At.tile_ptr[active_cols + 1] - At.tile_ptr[active_cols]
    tiles = concat_ranges(At.tile_ptr[active_cols], lengths)
    if len(tiles) == 0:
        counters.warps = max(1.0, len(active_cols) / 32.0)
        counters.l2_read_bytes += len(active_cols) * 16.0
        return y_dense, counters

    tile_of_entry = At.tile_of_entry()
    tile_active = np.zeros(At.n_nonempty_tiles, dtype=bool)
    tile_active[tiles] = True
    entry_sel = tile_active[tile_of_entry]
    t_sel = tile_of_entry[entry_sel]
    vals = At.values[entry_sel]
    x_local = At.local_row[entry_sel].astype(np.int64)
    y_local = At.local_col[entry_sel].astype(np.int64)

    col_tile = At.tile_rowidx()[t_sel]
    xv = x.x_tile[x.x_ptr[col_tile] * nt + x_local]
    occupied = ~semiring.is_identity(xv)
    products = semiring.mul(vals[occupied], xv[occupied])
    grow = (At.tile_colidx[t_sel][occupied] * nt
            + y_local[occupied])
    if len(grow):
        semiring.add.at(y_dense, grow, products)

    n_tiles = float(len(tiles))
    nnz_touched = float(len(vals))
    idx_bytes = At.index_bytes_per_entry()
    counters.l2_read_bytes += len(active_cols) * 16.0
    counters.coalesced_read_bytes += n_tiles * 16.0
    counters.coalesced_read_bytes += nnz_touched * (8.0 + idx_bytes)
    counters.l2_read_bytes += n_tiles * nt * 8.0
    counters.shared_bytes += n_tiles * nt * 8.0
    counters.flops += 2.0 * float(occupied.sum())
    counters.atomic_ops += float(occupied.sum())
    counters.random_write_count += float(occupied.sum())
    counters.warps = max(1.0, n_tiles)
    nnz_per_tile = np.diff(At.tile_nnz_ptr)[tiles]
    counters.divergence = _lane_utilization(nnz_per_tile)
    counters.check()
    return y_dense, counters


def reference_coo_side_kernel(side, x: TiledVector,
                              semiring: Semiring = PLUS_TIMES,
                              y_dense: Optional[np.ndarray] = None,
                              ) -> Tuple[np.ndarray, KernelCounters]:
    """Seed COO-side kernel (including its hard-coded float64 empty-hit
    allocation, kept so the dtype regression test can demonstrate the
    fix in the production kernel)."""
    from ..tiles.extraction import IndexedSideMatrix

    if x.n != side.shape[1]:
        raise ShapeError(
            f"SpMSpV shape mismatch: side matrix is {side.shape}, "
            f"x has length {x.n}"
        )
    nt = x.nt
    if isinstance(side, IndexedSideMatrix) and side.nt != nt:
        raise ShapeError(
            f"side index tile size {side.nt} != vector tile size {nt}"
        )
    if y_dense is None:
        y_dense = np.full(side.shape[0], semiring.add_identity,
                          dtype=semiring.dtype)
    counters = KernelCounters(launches=1)
    if side.nnz == 0:
        return y_dense, counters

    if isinstance(side, IndexedSideMatrix):
        active_tiles = np.flatnonzero(
            (x.x_ptr >= 0) & (np.diff(side.coltile_ptr) > 0))
        lengths = (side.coltile_ptr[active_tiles + 1]
                   - side.coltile_ptr[active_tiles])
        from .._util import concat_ranges

        sel = concat_ranges(side.coltile_ptr[active_tiles], lengths)
        rows_all, cols_all, vals_all = (side.row[sel], side.col[sel],
                                        side.val[sel])
        n_index_tiles = int((np.diff(side.coltile_ptr) > 0).sum())
        counters.l2_read_bytes += min(
            n_index_tiles, x.n_nonempty_tiles) * 16.0
        scanned = len(sel)
    else:
        rows_all, cols_all, vals_all = side.row, side.col, side.val
        scanned = side.nnz

    x_off = x.x_ptr[cols_all // nt]
    hit = x_off >= 0
    if int(hit.sum()):
        xv = x.x_tile[x_off[hit] * nt + cols_all[hit] % nt]
    else:
        xv = np.zeros(0, dtype=np.float64)
    occupied = ~semiring.is_identity(xv)
    rows = rows_all[hit][occupied]
    products = semiring.mul(vals_all[hit][occupied], xv[occupied])
    if len(rows):
        semiring.add.at(y_dense, rows, products)

    counters.coalesced_read_bytes += scanned * 24.0
    counters.random_read_count += float(scanned)
    counters.flops += 2.0 * len(rows)
    counters.atomic_ops += float(len(rows))
    counters.random_write_count += float(len(rows))
    counters.warps = max(1.0, scanned / 32.0)
    counters.check()
    return y_dense, counters
