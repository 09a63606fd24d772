"""The numeric TileSpMSpV kernels (paper §3.3, Algorithm 4).

Two kernels implement one SpMSpV over the hybrid storage:

* :func:`tiled_kernel` — the row-tile warp kernel of Algorithm 4.  One
  warp owns one row tile; for every stored tile it reads the tile's
  column index, looks up ``x_ptr`` in O(1), and *skips the tile
  entirely* when the corresponding vector tile is empty (lines 3-5 of
  Alg. 4).  Active tiles stage the x tile in shared memory and each
  pair of lanes reduces one tile row; the warp-level shuffle reduction
  of lines 12-13 becomes a register-level sum, so no global atomics are
  needed.
* :func:`coo_side_kernel` — the per-entry kernel for the extracted
  very-sparse COO matrix (§3.2.1): each entry checks its column's
  vector tile, multiplies, and merges with a global ``atomicAdd``.

Both kernels execute functionally in vectorized NumPy and return the
:class:`~repro.gpusim.counters.KernelCounters` a CUDA realisation would
incur (accounting rules in DESIGN.md §3).

Active-set execution
--------------------
The paper's claim is that tile skipping makes the work proportional to
the active part of ``x`` — and the modeled counters always reflected
that — but the original host execution still built boolean masks over
all ``A.nnz`` entries per multiply.  These kernels instead walk the
plan-time :class:`~repro.tiles.tiled_matrix.ColumnGather` index: the
active tile columns name their stored tiles directly, the tiles name
their entry ranges, and :func:`~repro._util.gather_ranges` pulls
exactly that payload.  Host cost is thereby proportional to the active
tiles, matching the model.  The gathered entries are visited in the
same stored order as the old masks selected them and the merge
(:meth:`~repro.semiring.Semiring.scatter_merge`) folds each output row
in the same sequence, so results *and* counters are byte-identical to
the reference kernels in :mod:`repro.core.reference_kernels` — the
kernel-equivalence tests enforce this.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .._util import gather_ranges
from ..errors import ShapeError
from ..gpusim import KernelCounters
from ..semiring import PLUS_TIMES, Semiring
from ..tiles.tiled_matrix import TiledMatrix
from ..tiles.tiled_vector import TiledVector

__all__ = ["tiled_kernel", "csc_tiled_kernel", "batched_union_kernel",
           "coo_side_kernel"]


def _lane_utilization(nnz_per_active_tile: np.ndarray, warp: int = 32) -> float:
    """Average fraction of useful lanes while a warp processes a tile.

    A warp of 32 lanes co-processes one tile; a tile with few nonzeros
    leaves lanes idle (divergence).  Bounded below by one active lane.
    """
    if len(nnz_per_active_tile) == 0:
        return 1.0
    util = np.minimum(1.0, nnz_per_active_tile / warp).mean()
    return float(max(util, 1.0 / warp))


def tiled_kernel(A: TiledMatrix, x: TiledVector,
                 semiring: Semiring = PLUS_TIMES,
                 y_dense: Optional[np.ndarray] = None,
                 with_counters: bool = True,
                 ) -> Tuple[np.ndarray, Optional[KernelCounters]]:
    """Algorithm 4: row-tile warp kernel with x-tile skipping.

    Parameters
    ----------
    A:
        The tiled matrix (CSR-of-tiles).
    x:
        The tiled input vector; ``x.n`` must equal ``A.shape[1]`` and
        the tile sizes must match.
    semiring:
        ``(add, mul)`` pair; default ordinary ``(+, *)``.
    y_dense:
        Optional preallocated dense accumulator of length ``A.shape[0]``
        initialised to the additive identity (reused across BFS
        iterations); a fresh one is allocated when omitted.
    with_counters:
        ``False`` skips all accounting work (including the result-tile
        dedup and lane-utilization statistics) and returns ``None``
        counters — the production-mode path, which replays the launch
        by re-running the kernel with counters on afterwards.

    Returns
    -------
    (y_dense, counters):
        The dense accumulator holding the result and the hardware
        counters of the launch (``None`` with ``with_counters=False``).
    """
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

    counters = KernelCounters(launches=1) if with_counters else None
    if counters is not None:
        # every stored tile's metadata is read once (coalesced stream):
        # tile_colidx (8B) + its x_ptr entry + nnz offsets (8B)
        counters.coalesced_read_bytes += A.n_nonempty_tiles * 16.0
        counters.l2_read_bytes += A.n_nonempty_tiles * 8.0  # x_ptr

    # --- tile activity, active-set style (Alg.4 l.2-5): the non-empty
    # vector tiles name A's active tile columns; the plan-time column
    # gather names their stored tiles.  Nothing O(nnz) here.
    active_cols = np.flatnonzero(x.x_ptr >= 0)
    gather = A.column_gather()
    ptr = gather.coltile_tile_ptr
    n_active = int((ptr[active_cols + 1] - ptr[active_cols]).sum())

    if n_active == 0:
        if counters is not None:
            # warps still launch to discover there is nothing to do
            counters.warps = max(1.0, A.n_tile_rows)
        return y_dense, counters

    # --- gather the entries of active tiles (stored order preserved).
    # Three regimes, all selecting the same entries in the same order:
    # every stored tile active (dense frontier) → the gather is the
    # identity, use the full arrays; most tiles active → a boolean
    # sweep of the stored-tile stream beats gathering and sorting
    # nearly all of them; sparse frontier → the plan-time column
    # gather touches only the active tiles (nothing O(nnz)).
    if n_active == A.n_nonempty_tiles:
        nnz_t = A.tile_nnz()
        vals = A.values
        lcol = A.local_col64()
        grow = A.entry_rows()
        x_off_tiles = x.x_ptr[A.tile_colidx]
        rowidx_act = A.tile_rowidx()
    else:
        if 4 * n_active >= A.n_nonempty_tiles:
            tile_mask = x.x_ptr[A.tile_colidx] >= 0
            tiles = np.flatnonzero(tile_mask)
            entry_sel = np.repeat(tile_mask, A.tile_nnz())
        else:
            tiles = gather.active_tiles(active_cols)
            entry_sel = gather_ranges(A.tile_nnz_ptr, tiles)
        nnz_t = A.tile_nnz()[tiles]
        vals = A.values[entry_sel]
        lcol = A.local_col64()[entry_sel]
        grow = A.entry_rows()[entry_sel]
        x_off_tiles = x.x_ptr[A.tile_colidx[tiles]]
        rowidx_act = A.tile_rowidx()[tiles]

    xv = x.x_tile[np.repeat(x_off_tiles, nnz_t) * nt + lcol]
    products = semiring.mul(vals, xv)
    semiring.scatter_merge(y_dense, grow, products)
    if counters is None:
        return y_dense, None

    # --- accounting
    nnz_active = len(vals)
    idx_bytes = A.index_bytes_per_entry()
    # tile payload streams in (values + packed indices), coalesced
    counters.coalesced_read_bytes += nnz_active * (8.0 + idx_bytes)
    # the x tile of each active tile is staged into shared memory; the
    # same x tile is reused by every tile in its tile column, so repeats
    # hit L2.
    counters.l2_read_bytes += n_active * nt * 8.0
    counters.shared_bytes += n_active * nt * 8.0
    counters.flops += 2.0 * nnz_active
    # warp shuffle reduction: ~log2(32) word ops per lane pair
    counters.word_ops += n_active * 5.0
    # each row tile with work writes its nt-row result once, coalesced
    row_tiles_active = np.unique(rowidx_act)
    counters.coalesced_write_bytes += len(row_tiles_active) * nt * 8.0
    # one warp per row tile that has stored tiles — inactive ones still
    # launch and scan their metadata (Alg. 4 lines 2-5)
    counters.warps = float(max(1, A.n_occupied_tile_rows()))
    counters.divergence = _lane_utilization(nnz_t)
    counters.check()
    return y_dense, counters


def batched_union_kernel(A: TiledMatrix, xs, semiring: Semiring = PLUS_TIMES,
                         with_counters: bool = True,
                         ) -> Tuple[np.ndarray, Optional[KernelCounters]]:
    """Coalesced batched Algorithm 4: one launch, one payload pass.

    The tile-metadata scan is paid once for the batch, and so is the
    *payload*: the union of the
    batch's active tile columns is computed once, every stored tile in
    that union streams its entries from global memory **once**, and the
    staged tile is applied to each vector that activates it (the
    multi-source trick of :func:`~repro.core.msbfs.msbfs_expand`,
    generalised from the bitmask-AND semiring to arbitrary semirings).

    Per vector, the computed result is **byte-identical** to
    :func:`tiled_kernel` on the same input: the union gather preserves
    ascending stored entry order, each vector's subset selection
    preserves it again, and the merge folds through the same
    :meth:`~repro.semiring.Semiring.scatter_merge` on a fresh
    accumulator row.

    Counter contract — the *shared-load discount* (see the developer
    guide, "Batched execution & CI pipeline").  Relative to summing the
    counters of ``k`` single-vector :func:`tiled_kernel` launches:

    * the tile-metadata scan (``n_nonempty_tiles * 16`` coalesced bytes)
      is charged once per batch, not once per vector;
    * tile payload (``(8 + idx_bytes)`` per entry) is charged once per
      **union** entry, not once per (vector, entry) pair;
    * ``launches`` is 1 and ``warps`` is one grid (one warp per occupied
      row tile serving the whole batch); ``divergence`` is the lane
      utilization over the union tile set;
    * every genuinely per-vector cost is unchanged: the ``k`` ``x_ptr``
      probes per stored tile (L2), per-vector x-tile staging
      (L2 + shared), flops, warp-shuffle word ops, and per-vector
      result-tile writes.

    Returns ``(Y, counters)`` with ``Y`` a dense ``(k, m)`` accumulator
    (``with_counters=False`` skips accounting and returns ``None``
    counters, like :func:`tiled_kernel`).
    """
    k = len(xs)
    if k == 0:
        raise ShapeError("batched SpMSpV needs at least one vector")
    nt = A.nt
    m = A.shape[0]
    for x in xs:
        if x.n != A.shape[1]:
            raise ShapeError(
                f"SpMSpV shape mismatch: A is {A.shape}, "
                f"x has length {x.n}"
            )
        if x.nt != nt:
            raise ShapeError(
                f"tile size mismatch: matrix nt={nt}, vector nt={x.nt}"
            )

    Y = np.full((k, m), semiring.add_identity, dtype=semiring.dtype)
    counters = KernelCounters(launches=1) if with_counters else None
    if counters is not None:
        # metadata scan once per batch; every vector's x_ptr is probed
        # per stored tile (the k activity tests stay per-vector)
        counters.coalesced_read_bytes += A.n_nonempty_tiles * 16.0
        counters.l2_read_bytes += A.n_nonempty_tiles * 8.0 * k

    # --- the union of active tile columns, computed once per batch
    gather = A.column_gather()
    active_any = np.zeros(A.n_tile_cols, dtype=bool)
    for x in xs:
        active_any |= x.x_ptr >= 0
    union_cols = np.flatnonzero(active_any)
    ptr = gather.coltile_tile_ptr
    n_union = int((ptr[union_cols + 1] - ptr[union_cols]).sum())
    if n_union == 0:
        if counters is not None:
            counters.warps = max(1.0, A.n_tile_rows)
        return Y, counters

    # --- gather the union payload ONCE (same three regimes as the
    # single-vector kernel, driven by the union activity; `tiles` is
    # ascending in every regime, so entries keep stored order)
    tile_nnz = A.tile_nnz()
    if n_union == A.n_nonempty_tiles:
        tiles = np.arange(A.n_nonempty_tiles, dtype=np.int64)
        u_vals = A.values
        u_lcol = A.local_col64()
        u_grow = A.entry_rows()
    else:
        if 4 * n_union >= A.n_nonempty_tiles:
            tile_mask = active_any[A.tile_colidx]
            tiles = np.flatnonzero(tile_mask)
            entry_sel = np.repeat(tile_mask, tile_nnz)
        else:
            tiles = gather.active_tiles(union_cols)
            entry_sel = gather_ranges(A.tile_nnz_ptr, tiles)
        u_vals = A.values[entry_sel]
        u_lcol = A.local_col64()[entry_sel]
        u_grow = A.entry_rows()[entry_sel]
    u_nnz_t = tile_nnz[tiles]
    u_colidx = A.tile_colidx[tiles]
    u_rowidx = A.tile_rowidx()[tiles]
    u_tile_of_entry = np.repeat(np.arange(len(tiles), dtype=np.int64),
                                u_nnz_t)
    if counters is not None:
        # the shared-load discount: union payload streams in once
        counters.coalesced_read_bytes += \
            len(u_vals) * (8.0 + A.index_bytes_per_entry())

    # --- apply the staged union to every vector that activates it
    for b, x in enumerate(xs):
        sub = x.x_ptr[u_colidx] >= 0
        n_active = int(sub.sum())
        if n_active == 0:
            continue
        if n_active == len(tiles):
            vals, lcol, grow = u_vals, u_lcol, u_grow
            nnz_t = u_nnz_t
            x_off_tiles = x.x_ptr[u_colidx]
            rowidx_act = u_rowidx
        else:
            entry_sub = sub[u_tile_of_entry]
            vals = u_vals[entry_sub]
            lcol = u_lcol[entry_sub]
            grow = u_grow[entry_sub]
            nnz_t = u_nnz_t[sub]
            x_off_tiles = x.x_ptr[u_colidx[sub]]
            rowidx_act = u_rowidx[sub]
        xv = x.x_tile[np.repeat(x_off_tiles, nnz_t) * nt + lcol]
        products = semiring.mul(vals, xv)
        semiring.scatter_merge(Y[b], grow, products)
        if counters is None:
            continue

        # per-vector (non-shared) accounting
        counters.l2_read_bytes += n_active * nt * 8.0
        counters.shared_bytes += n_active * nt * 8.0
        counters.flops += 2.0 * len(vals)
        counters.word_ops += n_active * 5.0
        counters.coalesced_write_bytes += \
            len(np.unique(rowidx_act)) * nt * 8.0

    if counters is None:
        return Y, None
    counters.warps = float(max(1, A.n_occupied_tile_rows()))
    counters.divergence = _lane_utilization(u_nnz_t)
    counters.check()
    return Y, counters


def csc_tiled_kernel(At: TiledMatrix, x: TiledVector,
                     semiring: Semiring = PLUS_TIMES,
                     y_dense: Optional[np.ndarray] = None,
                     with_counters: bool = True,
                     ) -> Tuple[np.ndarray, Optional[KernelCounters]]:
    """The CSC-form TileSpMSpV kernel (vector-driven; paper §3.2.3).

    Works on the *transposed* tiling ``At = tiled(A^T)``: A^T's tile
    rows are A's tile columns, so walking one of ``At``'s tile rows is
    exactly walking one tile *column* of ``A`` — the CSC-of-tiles view
    without a second storage format.  Within a stored tile, A^T's
    ``local_row`` is A's local column (the x index) and vice versa.

    Each non-empty x tile drives a warp over the stored tiles of its
    tile column and merges the scaled entries into ``y`` with global
    atomics.  Work is proportional to the *touched* tile columns only —
    no metadata scan of the whole matrix — which beats the CSR form for
    very sparse ``x`` but pays per-entry atomics when ``x`` is dense
    (the trade-off the adaptive mode arbitrates; cf. Li et al. [31] in
    the paper's related work).

    Returns ``(y_dense, counters)`` like :func:`tiled_kernel`
    (``with_counters=False`` skips accounting and returns ``None``
    counters).
    """
    # At is tiled(A^T): its shape is (n, m) for A of shape (m, n)
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

    counters = KernelCounters(launches=1) if with_counters else None
    active_cols = np.flatnonzero(x.x_ptr >= 0)          # A's tile columns
    if counters is not None:
        # the compact tiled vector carries its non-empty tile list, so
        # the kernel reads exactly that (no scan over all tile slots)
        counters.coalesced_read_bytes += len(active_cols) * 8.0
    if len(active_cols) == 0:
        if counters is not None:
            counters.warps = 1.0
        return y_dense, counters

    # At's tile rows are A's tile columns: the active tile list falls
    # straight out of tile_ptr, already in ascending stored order.
    n_active = int((At.tile_ptr[active_cols + 1]
                    - At.tile_ptr[active_cols]).sum())
    if n_active == 0:
        if counters is not None:
            counters.warps = max(1.0, len(active_cols) / 32.0)
            counters.l2_read_bytes += len(active_cols) * 16.0
        return y_dense, counters

    # gather the entries of the touched tiles — same three regimes as
    # the CSR form (identity / boolean sweep / plan-time gather), all
    # yielding the ascending stored selection
    if n_active == At.n_nonempty_tiles:
        nnz_t = At.tile_nnz()
        vals = At.values
        x_local = At.local_row64()                       # A's local col
        gcols = At.entry_cols()
        x_off_tiles = x.x_ptr[At.tile_rowidx()]
    else:
        if 4 * n_active >= At.n_nonempty_tiles:          # near-dense
            tile_mask = (x.x_ptr >= 0)[At.tile_rowidx()]
            tiles = np.flatnonzero(tile_mask)
            entry_sel = np.repeat(tile_mask, At.tile_nnz())
        else:
            tiles = gather_ranges(At.tile_ptr, active_cols)
            entry_sel = gather_ranges(At.tile_nnz_ptr, tiles)
        nnz_t = At.tile_nnz()[tiles]
        vals = At.values[entry_sel]
        x_local = At.local_row64()[entry_sel]            # A's local col
        gcols = At.entry_cols()[entry_sel]
        x_off_tiles = x.x_ptr[At.tile_rowidx()[tiles]]

    xv = x.x_tile[np.repeat(x_off_tiles, nnz_t) * nt + x_local]
    occupied = ~semiring.is_identity(xv)
    products = semiring.mul(vals[occupied], xv[occupied])
    grow = gcols[occupied]                               # A's global row
    if len(grow):
        semiring.scatter_merge(y_dense, grow, products)
    if counters is None:
        return y_dense, None

    # accounting: only the touched tile columns are read; the merge
    # into y is a global atomic scatter (the CSC form's cost).
    n_tiles = float(n_active)
    nnz_touched = float(len(vals))
    idx_bytes = At.index_bytes_per_entry()
    counters.l2_read_bytes += len(active_cols) * 16.0    # tile_ptr probes
    counters.coalesced_read_bytes += n_tiles * 16.0      # tile metadata
    counters.coalesced_read_bytes += nnz_touched * (8.0 + idx_bytes)
    counters.l2_read_bytes += n_tiles * nt * 8.0         # x tiles (shared)
    counters.shared_bytes += n_tiles * nt * 8.0
    counters.flops += 2.0 * float(occupied.sum())
    counters.atomic_ops += float(occupied.sum())
    counters.random_write_count += float(occupied.sum())
    counters.warps = max(1.0, n_tiles)
    counters.divergence = _lane_utilization(nnz_t)
    counters.check()
    return y_dense, counters


def coo_side_kernel(side, x: TiledVector,
                    semiring: Semiring = PLUS_TIMES,
                    y_dense: Optional[np.ndarray] = None,
                    with_counters: bool = True,
                    ) -> Tuple[np.ndarray, Optional[KernelCounters]]:
    """Kernel for the extracted very-sparse COO side matrix.

    Accepts either an :class:`~repro.tiles.extraction.IndexedSideMatrix`
    (preferred: the triplets are grouped by column tile, so only the
    entries of *active* column tiles are touched — the same skipping
    the tiled kernel gets from ``x_ptr``) or a plain
    :class:`~repro.formats.coo.COOMatrix` (every entry is scanned; the
    counters charge the full stream).

    Each touched entry ``(i, j, v)`` reads ``x[j]`` via the O(1) tile
    formula and merges into ``y[i]`` with an atomic add — the side
    matrix has no row locality to exploit, which is exactly why these
    entries were evicted from the tiled structure.
    """
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
    counters = KernelCounters(launches=1) if with_counters else None
    if side.nnz == 0:
        return y_dense, counters

    if isinstance(side, IndexedSideMatrix):
        active_tiles = np.flatnonzero(
            (x.x_ptr >= 0) & side.nonempty_coltiles())
        sel = gather_ranges(side.coltile_ptr, active_tiles)
        rows_all, cols_all, vals_all = (side.row[sel], side.col[sel],
                                        side.val[sel])
        # index lookups are driven from the sparser operand: either the
        # vector's non-empty tiles probe the side index, or the side's
        # non-empty column tiles probe x_ptr — a kernel picks the
        # cheaper direction.
        if counters is not None:
            counters.l2_read_bytes += min(
                side.n_index_tiles(), x.n_nonempty_tiles) * 16.0
        scanned = len(sel)
    else:
        rows_all, cols_all, vals_all = side.row, side.col, side.val
        scanned = side.nnz

    x_off = x.x_ptr[cols_all // nt]
    hit = x_off >= 0
    if int(hit.sum()):
        xv = x.x_tile[x_off[hit] * nt + cols_all[hit] % nt]
    else:
        xv = np.zeros(0, dtype=semiring.dtype)
    occupied = ~semiring.is_identity(xv)
    rows = rows_all[hit][occupied]
    products = semiring.mul(vals_all[hit][occupied], xv[occupied])
    if len(rows):
        semiring.scatter_merge(y_dense, rows, products)
    if counters is None:
        return y_dense, None

    # accounting: touched triplets stream in coalesced; x lookups and y
    # updates are data-dependent scatters.
    counters.coalesced_read_bytes += scanned * 24.0   # (row, col, val)
    counters.random_read_count += float(scanned)      # x value reads
    counters.flops += 2.0 * len(rows)
    counters.atomic_ops += float(len(rows))
    counters.random_write_count += float(len(rows))
    counters.warps = max(1.0, scanned / 32.0)
    counters.check()
    return y_dense, counters
