"""The TileSpMM kernels: sparse matrix × tall dense block.

Two kernels compute ``Y = A @ X`` for a tiled sparse ``A`` and a
:class:`~repro.vectors.dense_block.DenseBlock` ``X`` of ``B`` columns:

* :func:`spmm_row_warp_kernel` — the naive mapping: one warp owns one
  occupied row tile and walks its stored tiles.  Every nonzero fetches
  the full ``B``-wide row of the dense block it multiplies, so the
  modeled X traffic is ``nnz * B * 8`` bytes from L2 — row-heavy
  matrices serialise on their fattest row tile.
* :func:`spmm_merge_path_kernel` — the merge-path-style load-balanced
  mapping (Merrill & Garland's CSR merge, adapted to the tiled form):
  the ``nnz`` work items are split evenly across warps by a binary
  search over the tile entry offsets, and within a chunk each distinct
  ``(tile, local column)`` *row segment* of the dense block is staged
  into shared memory **once** and reused by every nonzero of that
  segment.  Modeled X traffic is ``segments * B * 8`` bytes — never
  more than the row-per-warp kernel's ``nnz * B * 8`` because a
  segment has at least one nonzero, and strictly less whenever a tile
  repeats a local column.

Both kernels fold products column by column in stored entry order
through :meth:`~repro.semiring.Semiring.scatter_merge`, and for each
column they fold exactly the *matched* entries — those of the
column's active tiles (the non-empty-tile test the tiled vector
encodes in ``x_ptr``) whose x slot is not the additive identity — so
column ``j`` of the result is **bit-identical** to a single-vector
:func:`~repro.core.spmspv_kernels.tiled_kernel` multiply against
column ``j``, zero signs and non-finite values included.  (Folding
the skipped identity products too would be value-identical on finite
data but can flip the sign of zero — ``np.maximum(0.0, -0.0)`` is
``-0.0`` — and turns ``inf * 0`` into ``nan``.)  The column-slice
verify check enforces the equivalence bit-exactly.

Shared A-side accounting (the SpMM amortisation): tile metadata and
the tile payload stream from global memory **once per block**, not
once per column — the same shared-load discount the batched union
kernel models, here taken to the B-dense limit.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .._util import sorted_distinct
from ..errors import ShapeError
from ..gpusim import KernelCounters
from ..semiring import PLUS_TIMES, Semiring
from ..tiles.tiled_matrix import TiledMatrix
from ..vectors.dense_block import DenseBlock
from .spmspv_kernels import _lane_utilization

__all__ = ["spmm_row_warp_kernel", "spmm_merge_path_kernel",
           "spmm_coo_side_kernel", "row_tile_imbalance",
           "MERGE_ITEMS_PER_WARP"]

#: Work items (stored nonzeros) per warp chunk in the merge-path
#: decomposition — two items per lane, the classical choice.
MERGE_ITEMS_PER_WARP = 64


def _check_block(A: TiledMatrix, X: DenseBlock) -> None:
    if X.n != A.shape[1]:
        raise ShapeError(
            f"SpMM shape mismatch: A is {A.shape}, X has {X.n} rows"
        )
    if X.nt != A.nt:
        raise ShapeError(
            f"tile size mismatch: matrix nt={A.nt}, block nt={X.nt}"
        )


def _spmm_fold(A: TiledMatrix, X: DenseBlock, semiring: Semiring,
               Y: np.ndarray) -> None:
    """The shared numeric core: per column, fold the products of that
    column's matched entries in stored order — exactly the entry set
    and per-row order the single-vector tiled kernel folds, which is
    what makes the column slices bit-identical (module docstring)."""
    if A.nnz == 0:
        return
    grow = A.entry_rows()
    gcol = A.entry_cols()
    vals = A.values
    nt = A.nt
    # per-column tile activity of the block: a tile is active when any
    # of its nt slots holds a non-sentinel value — the same test
    # TiledVector.from_dense applies when it drops empty tiles
    tiles = X.data.reshape(-1, nt, X.B)
    if np.isnan(X.fill):  # pragma: no cover - defensive
        active = np.any(~np.isnan(tiles), axis=1)
    else:
        active = np.any(tiles != X.fill, axis=1)
    entry_tilecol = gcol // nt
    for j in range(X.B):
        sel = active[entry_tilecol, j]
        if not sel.any():
            continue
        xv = X.data[gcol[sel], j]
        matched = ~semiring.is_identity(xv)
        products = semiring.mul(vals[sel][matched], xv[matched])
        semiring.scatter_merge(Y[:, j], grow[sel][matched], products)


def _spmm_common_counters(A: TiledMatrix, B: int) -> KernelCounters:
    """The accounting both kernels share: metadata + payload stream in
    once per block (coalesced), every occupied row tile writes its
    ``nt × B`` result slab once, and every (nonzero, column) pair is a
    multiply-add."""
    counters = KernelCounters(launches=1)
    # every stored tile's metadata is read once (coalesced stream):
    # tile_colidx (8B) + nnz offsets (8B) — no x_ptr probes: a dense
    # block has no empty tiles to skip
    counters.coalesced_read_bytes += A.n_nonempty_tiles * 16.0
    # tile payload (values + packed indices) streams in once for the
    # whole block — the SpMM amortisation of the A side
    counters.coalesced_read_bytes += A.nnz * (8.0 + A.index_bytes_per_entry())
    # each occupied row tile writes its nt-row, B-wide slab once
    counters.coalesced_write_bytes += \
        A.n_occupied_tile_rows() * A.nt * B * 8.0
    counters.flops += 2.0 * A.nnz * B
    return counters


def row_tile_imbalance(A: TiledMatrix) -> float:
    """``max / mean`` of per-occupied-row-tile nonzero counts — the
    load-imbalance statistic the kernel selector switches on (1.0 is
    perfectly balanced)."""
    if A.nnz == 0 or A.n_nonempty_tiles == 0:
        return 1.0
    per_row = np.bincount(A.tile_rowidx(), weights=A.tile_nnz(),
                          minlength=A.n_tile_rows)
    occupied = per_row[per_row > 0]
    return float(occupied.max() / occupied.mean())


def spmm_row_warp_kernel(A: TiledMatrix, X: DenseBlock,
                         semiring: Semiring = PLUS_TIMES,
                         Y: Optional[np.ndarray] = None,
                         with_counters: bool = True,
                         ) -> Tuple[np.ndarray, Optional[KernelCounters]]:
    """Naive row-per-warp SpMM: one warp per occupied row tile.

    Parameters
    ----------
    A:
        The tiled matrix (CSR-of-tiles).
    X:
        The dense block; ``X.n`` must equal ``A.shape[1]`` and the tile
        sizes must match.
    semiring:
        ``(add, mul)`` pair; default ordinary ``(+, *)``.
    Y:
        Optional preallocated ``(A.shape[0], X.B)`` accumulator
        initialised to the additive identity.
    with_counters:
        ``False`` skips all accounting and returns ``None`` counters.

    Returns
    -------
    (Y, counters):
        The dense accumulator and the modeled launch counters.
    """
    _check_block(A, X)
    if Y is None:
        Y = np.full((A.shape[0], X.B), semiring.add_identity,
                    dtype=semiring.dtype)
    _spmm_fold(A, X, semiring, Y)
    if not with_counters:
        return Y, None

    counters = _spmm_common_counters(A, X.B)
    # no row reuse: every nonzero fetches its B-wide X row from L2
    counters.l2_read_bytes += A.nnz * X.B * 8.0
    # warp shuffle reduction per stored tile, as in the SpMSpV kernel
    counters.word_ops += A.n_nonempty_tiles * 5.0
    counters.warps = float(max(1, A.n_occupied_tile_rows()))
    counters.divergence = _lane_utilization(A.tile_nnz())
    counters.check()
    return Y, counters


def spmm_merge_path_kernel(A: TiledMatrix, X: DenseBlock,
                           semiring: Semiring = PLUS_TIMES,
                           Y: Optional[np.ndarray] = None,
                           with_counters: bool = True,
                           ) -> Tuple[np.ndarray, Optional[KernelCounters]]:
    """Merge-path load-balanced SpMM: even nonzero chunks per warp.

    Numerically identical to :func:`spmm_row_warp_kernel` (same fold,
    same stored order); only the modeled execution differs: work is
    split into :data:`MERGE_ITEMS_PER_WARP`-item chunks located by a
    binary search over the tile entry offsets (charged as register
    word ops — the offsets are already in the counted metadata
    stream), and each distinct ``(tile, local column)`` row segment of
    the dense block is staged in shared memory once — ``B`` values
    loaded per *segment*, not per nonzero.
    """
    _check_block(A, X)
    if Y is None:
        Y = np.full((A.shape[0], X.B), semiring.add_identity,
                    dtype=semiring.dtype)
    _spmm_fold(A, X, semiring, Y)
    if not with_counters:
        return Y, None

    counters = _spmm_common_counters(A, X.B)
    if A.nnz:
        # distinct (tile, local column) pairs = the row segments of the
        # dense block the staged chunks actually load; each nonzero
        # belongs to exactly one, so segments <= nnz always
        segments = int(sorted_distinct(
            A.tile_of_entry() * np.int64(A.nt) + A.local_col64()).size)
    else:
        segments = 0
    counters.l2_read_bytes += segments * X.B * 8.0
    counters.shared_bytes += segments * X.B * 8.0
    n_warps = max(1, -(-A.nnz // MERGE_ITEMS_PER_WARP))
    # the merge-path partition: each warp binary-searches its diagonal
    # over the staged tile offsets (~log2 probes, register arithmetic)
    counters.word_ops += n_warps * 12.0
    # segmented reduction flags within a chunk
    counters.word_ops += 2.0 * A.nnz
    counters.warps = float(n_warps)
    if A.nnz:
        chunk = np.full(n_warps, MERGE_ITEMS_PER_WARP, dtype=np.float64)
        chunk[-1] = A.nnz - MERGE_ITEMS_PER_WARP * (n_warps - 1)
        counters.divergence = _lane_utilization(chunk)
    counters.check()
    return Y, counters


def spmm_coo_side_kernel(side, X: DenseBlock,
                         semiring: Semiring = PLUS_TIMES,
                         Y: Optional[np.ndarray] = None,
                         with_counters: bool = True,
                         ) -> Tuple[np.ndarray, Optional[KernelCounters]]:
    """Per-entry SpMM for the extracted very-sparse COO side matrix.

    Accepts an :class:`~repro.tiles.extraction.IndexedSideMatrix` or a
    plain :class:`~repro.formats.coo.COOMatrix` — with a dense block
    every column tile is active, so either way the whole triplet
    stream is scanned, **once per block**: the B-wide X row of an
    entry sits contiguously, so one entry costs
    ``ceil(B * 8 / 32)`` random sectors rather than B scalar probes.

    Per column the occupied-entry selection and stored-order merge
    mirror :func:`~repro.core.spmspv_kernels.coo_side_kernel` exactly,
    keeping the column-slice equivalence bit-exact.
    """
    if X.n != side.shape[1]:
        raise ShapeError(
            f"SpMM shape mismatch: side matrix is {side.shape}, "
            f"X has {X.n} rows"
        )
    if Y is None:
        Y = np.full((side.shape[0], X.B), semiring.add_identity,
                    dtype=semiring.dtype)
    counters = KernelCounters(launches=1) if with_counters else None
    if side.nnz == 0:
        return Y, counters

    rows_all, cols_all, vals_all = side.row, side.col, side.val
    merged = 0
    for j in range(X.B):
        xv = X.data[cols_all, j]
        occupied = ~semiring.is_identity(xv)
        rows = rows_all[occupied]
        if len(rows):
            products = semiring.mul(vals_all[occupied], xv[occupied])
            semiring.scatter_merge(Y[:, j], rows, products)
        merged += int(len(rows))
    if counters is None:
        return Y, None

    scanned = float(side.nnz)
    counters.coalesced_read_bytes += scanned * 24.0   # (row, col, val)
    # one B-wide X row per entry, sectored random access
    counters.random_read_count += scanned * float(-(-(X.B * 8) // 32))
    counters.flops += 2.0 * merged
    counters.atomic_ops += float(merged)
    counters.random_write_count += float(merged)
    counters.warps = max(1.0, scanned / 32.0)
    counters.check()
    return Y, counters
