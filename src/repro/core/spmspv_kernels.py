"""The numeric TileSpMSpV kernels (paper §3.3, Algorithm 4).

Two kernels model one SpMSpV over the hybrid storage:

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
incur (accounting rules in DESIGN.md §3); the counters are also
available on their own, without the result.

Matched-entry execution
-----------------------
The modeled launch is tile-level: a stored tile is skipped when its x
tile is empty, and an active tile stages its whole x tile while every
lane multiplies.  The host execution does not copy that granularity —
it is free to run whatever selects the same products in the same fold
order, and the cheapest such shape is the *matched entries*: the
support of ``x`` (its non-identity slots, ascending) is looked up in a
plan-time :class:`~repro.tiles.tiled_matrix.EntryIndex` that lists the
stored entries by column, so only entries whose x slot is set are
gathered (:func:`matched_product`), multiplied and merged.  The
counters are computed from tile-level quantities only, by pure
functions of the launch's inputs (:func:`tiled_counters`,
:func:`csc_tiled_counters`, :func:`coo_side_counters`,
:func:`batched_union_counters`), so the modeled timeline does not
depend on how the host ran.

A :class:`~repro.core.TileSpMSpV` multiply runs one host product for
both parts and either form: one match over the plan's stacked index
(the tiled part's entries, then the side part's — the order in which
the tiled kernel and then the side kernel fold into ``y``) and one
reduction by row.  The reduction has two regimes.  A product whose
result leaves sparse and that matched fewer than ``m / COMPACT_RATIO``
entries folds over its distinct rows only (:func:`reduce_sparse`'s
compact regime); any other folds into a length-``m`` accumulator
(:func:`reduce_dense`), dropping the identity slots after
(:func:`sparsify`).  Both are the same left fold from the identity, in
the same order, so the regime never shows in the bits.  The kernel
functions below run the same path on their own operand, one launch
each.

Results are byte-identical to the tile-level reference kernels in
:mod:`repro.core.reference_kernels` on finite data: every output row
receives its products in ascending column order in both (tile column
by tile column, row-major inside a tile; the side stream by column),
and a skipped entry would only have added ``mul(v, identity)``, which
leaves a fold that started from the identity unchanged for finite
``v``.  With ``±inf``/``nan`` in ``A`` the skipped products are not
neutral (``inf * 0`` is ``nan``); the matched path then agrees with
the side kernel and the dense oracle, which never multiplied them.
(Under ``max_times`` a negative ``v`` gave ``-0.0``, and
``np.maximum(0.0, -0.0)`` is ``-0.0``: there the matched path keeps
the ``+0.0`` the dense oracle has.)
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .._util import gather_ranges, sorted_distinct
from ..errors import ShapeError
from ..gpusim import KernelCounters
from ..semiring import PLUS_TIMES, Semiring
from ..tiles.tiled_matrix import (WARP_LANES, ColumnGather, EntryIndex,
                                  TiledMatrix)
from ..tiles.tiled_vector import TiledVector
from ..vectors.sparse_vector import SparseVector

__all__ = ["tiled_kernel", "csc_tiled_kernel", "batched_union_kernel",
           "coo_side_kernel", "tiled_counters", "csc_tiled_counters",
           "batched_union_counters", "coo_side_counters",
           "matched_product", "reduce_dense", "reduce_sparse", "sparsify",
           "COMPACT_RATIO"]

#: The compact regime's bound: a product with fewer than
#: ``m / COMPACT_RATIO`` matched entries reduces over its distinct rows
#: (:func:`reduce_sparse`) instead of a length-``m`` accumulator.  The
#: sort-based compact fold loses to the dense scatter well before the
#: products fill the output: on rmat(16) a ratio of 4 left it slower at
#: 1–16 k matched entries, while ratios of 16–64 were within 3% of each
#: other.
COMPACT_RATIO = 32


def _lane_utilization(nnz_per_active_tile: np.ndarray, warp: int = 32) -> float:
    """Average fraction of useful lanes while a warp processes a tile.

    A warp of 32 lanes co-processes one tile; a tile with few nonzeros
    leaves lanes idle (divergence).  Bounded below by one active lane.
    """
    if len(nnz_per_active_tile) == 0:
        return 1.0
    util = np.minimum(1.0, nnz_per_active_tile / warp).mean()
    return float(max(util, 1.0 / warp))


def _lane_fraction(busy_lanes: int, n_tiles: int,
                   warp: int = WARP_LANES) -> float:
    """:func:`_lane_utilization` from the summed busy lanes
    (``min(nnz, warp)`` per tile) of ``n_tiles`` tiles.  Every per-tile
    fraction is a multiple of ``1/warp``, so the sum is exact in any
    order and both give the same float."""
    if n_tiles == 0:
        return 1.0
    return max(busy_lanes / warp / n_tiles, 1.0 / warp)


def _range_sum(ptr: np.ndarray, ids: np.ndarray) -> int:
    """Total of the per-id quantities a prefix-sum array ``ptr`` holds."""
    return int((ptr[ids + 1] - ptr[ids]).sum())


def _active_row_tiles(A: TiledMatrix, gather: ColumnGather,
                      active_cols: np.ndarray) -> int:
    """Number of distinct row tiles holding a stored tile in one of the
    active tile columns — the row tiles that write a result."""
    seen = np.zeros(A.n_tile_rows, dtype=bool)
    seen[gather.coltile_rows[
        gather_ranges(gather.coltile_tile_ptr, active_cols)]] = True
    return int(np.count_nonzero(seen))


def matched_product(entries: EntryIndex, cols: np.ndarray,
                    xvals: np.ndarray, semiring: Semiring
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Output indices and products of the entries of ``entries`` whose
    x index is in ``cols`` (the support of x, ascending, with values
    ``xvals``), in index order — the host work of one multiply."""
    rows, vals, xv = entries.match(cols, xvals)
    if len(rows) == 0:
        # nothing to multiply (nor to type-check against the semiring)
        return rows, vals
    return rows, semiring.mul(vals, xv)


def _fold(pos: np.ndarray, products: np.ndarray, semiring: Semiring,
          length: int) -> np.ndarray:
    """The products folded by ``pos`` into ``length`` fresh slots: the
    left fold from the identity, in array order.  For plus-times
    float64 that is one ``bincount`` — its fold from ``+0.0`` is
    :meth:`~repro.semiring.Semiring.scatter_merge`'s, and never yields
    ``-0.0`` (an empty ``bincount`` is integer-typed, so it is kept for
    non-empty products)."""
    if (len(pos) and semiring.add is np.add
            and semiring.dtype == np.float64
            and products.dtype == np.float64):
        return np.bincount(pos, weights=products, minlength=length)
    out = np.full(length, semiring.add_identity, dtype=semiring.dtype)
    semiring.add.at(out, pos, products)
    return out


def reduce_dense(rows: np.ndarray, products: np.ndarray,
                 semiring: Semiring, m: int,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    """The dense regime: fold the products by row into a length-``m``
    accumulator — ``out``, or a fresh one."""
    if out is not None:
        return semiring.scatter_merge(out, rows, products)
    return _fold(rows, products, semiring, m)


def sparsify(y_dense: np.ndarray, semiring: Semiring) -> SparseVector:
    """Drop the additive-identity slots of a dense result."""
    idx = np.flatnonzero(~semiring.is_identity(y_dense))
    return SparseVector.trusted(y_dense.shape[0], idx, y_dense[idx])


def reduce_sparse(rows: np.ndarray, products: np.ndarray,
                  semiring: Semiring, m: int) -> SparseVector:
    """Fold the products by row into a length-``m`` sparse result.

    Below ``m / COMPACT_RATIO`` products this is the compact regime:
    the fold runs over the distinct rows only — the same fold, in the
    same order, as over a full-length accumulator.  Larger products
    take the dense regime and :func:`sparsify`.
    """
    if COMPACT_RATIO * len(rows) >= m:
        return sparsify(reduce_dense(rows, products, semiring, m),
                        semiring)
    keys = sorted_distinct(rows)
    folded = _fold(np.searchsorted(keys, rows), products, semiring,
                   len(keys))
    keep = ~semiring.is_identity(folded)
    return SparseVector.trusted(m, keys[keep], folded[keep])


def _check_vector(x: TiledVector, shape: Tuple[int, int], nt: int
                  ) -> None:
    if x.n != shape[1]:
        raise ShapeError(
            f"SpMSpV shape mismatch: A is {shape}, x has length {x.n}"
        )
    if x.nt != nt:
        raise ShapeError(
            f"tile size mismatch: matrix nt={nt}, vector nt={x.nt}"
        )


def tiled_counters(A: TiledMatrix, x: TiledVector) -> KernelCounters:
    """The counters of one Algorithm-4 launch of :func:`tiled_kernel`,
    from tile-level quantities only."""
    nt = A.nt
    counters = KernelCounters(launches=1)
    # every stored tile's metadata is read once (coalesced stream):
    # tile_colidx (8B) + its x_ptr entry + nnz offsets (8B)
    counters.coalesced_read_bytes += A.n_nonempty_tiles * 16.0
    counters.l2_read_bytes += A.n_nonempty_tiles * 8.0  # x_ptr
    # Alg.4 l.2-5: the non-empty vector tiles name A's active tile
    # columns, and every entry of their stored tiles is staged and
    # multiplied.  Nothing O(nnz) here.
    active_cols = np.flatnonzero(x.x_ptr >= 0)
    gather = A.column_gather()
    n_active = _range_sum(gather.coltile_tile_ptr, active_cols)
    if n_active == 0:
        # warps still launch to discover there is nothing to do
        counters.warps = max(1.0, A.n_tile_rows)
        return counters
    nnz_active = _range_sum(gather.coltile_nnz_ptr, active_cols)
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
    counters.coalesced_write_bytes += \
        _active_row_tiles(A, gather, active_cols) * nt * 8.0
    # one warp per row tile that has stored tiles — inactive ones still
    # launch and scan their metadata (Alg. 4 lines 2-5)
    counters.warps = float(max(1, A.n_occupied_tile_rows()))
    counters.divergence = _lane_fraction(
        _range_sum(gather.coltile_lanes_ptr, active_cols), n_active)
    counters.check()
    return counters


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
        ``False`` skips all accounting work and returns ``None``
        counters (:func:`tiled_counters` computes them on their own).

    Returns
    -------
    (y_dense, counters):
        The dense accumulator holding the result and the hardware
        counters of the launch (``None`` with ``with_counters=False``).
    """
    _check_vector(x, A.shape, A.nt)
    rows, products = matched_product(A.column_entries(),
                                     *x.support(semiring), semiring)
    y_dense = reduce_dense(rows, products, semiring, A.shape[0], y_dense)
    return y_dense, tiled_counters(A, x) if with_counters else None


def batched_union_counters(A: TiledMatrix, xs) -> KernelCounters:
    """The counters of one coalesced :func:`batched_union_kernel`
    launch over the vectors ``xs`` (the shared-load discount)."""
    k = len(xs)
    nt = A.nt
    counters = KernelCounters(launches=1)
    # metadata scan once per batch; every vector's x_ptr is probed
    # per stored tile (the k activity tests stay per-vector)
    counters.coalesced_read_bytes += A.n_nonempty_tiles * 16.0
    counters.l2_read_bytes += A.n_nonempty_tiles * 8.0 * k
    # the union of active tile columns, once per batch
    gather = A.column_gather()
    active_any = np.zeros(A.n_tile_cols, dtype=bool)
    for x in xs:
        active_any |= x.x_ptr >= 0
    union_cols = np.flatnonzero(active_any)
    n_union = _range_sum(gather.coltile_tile_ptr, union_cols)
    if n_union == 0:
        counters.warps = max(1.0, A.n_tile_rows)
        return counters
    # the shared-load discount: union payload streams in once
    counters.coalesced_read_bytes += \
        _range_sum(gather.coltile_nnz_ptr, union_cols) \
        * (8.0 + A.index_bytes_per_entry())
    for x in xs:
        active_cols = np.flatnonzero(x.x_ptr >= 0)
        n_active = _range_sum(gather.coltile_tile_ptr, active_cols)
        if n_active == 0:
            continue
        # per-vector (non-shared) accounting
        counters.l2_read_bytes += n_active * nt * 8.0
        counters.shared_bytes += n_active * nt * 8.0
        counters.flops += \
            2.0 * _range_sum(gather.coltile_nnz_ptr, active_cols)
        counters.word_ops += n_active * 5.0
        counters.coalesced_write_bytes += \
            _active_row_tiles(A, gather, active_cols) * nt * 8.0
    counters.warps = float(max(1, A.n_occupied_tile_rows()))
    counters.divergence = _lane_fraction(
        _range_sum(gather.coltile_lanes_ptr, union_cols), n_union)
    counters.check()
    return counters


def batched_union_kernel(A: TiledMatrix, xs, semiring: Semiring = PLUS_TIMES,
                         with_counters: bool = True,
                         ) -> Tuple[np.ndarray, Optional[KernelCounters]]:
    """Coalesced batched Algorithm 4: one launch, one payload pass.

    The modeled launch pays the tile-metadata scan once for the batch,
    and so is the *payload*: the union of the batch's active tile columns
    is computed once, every stored tile in that union streams its
    entries from global memory **once**, and the staged tile is applied
    to each vector that activates it (the multi-source trick of
    :func:`~repro.core.msbfs.msbfs_expand`, generalised from the
    bitmask-AND semiring to arbitrary semirings).

    The union is a counter model only (:func:`batched_union_counters`).
    On the host, each vector runs the matched-entry path of
    :func:`tiled_kernel` — gathering a union payload and selecting every
    vector's subset out of it cost more than the singles it replaced —
    and folds into its own row of ``Y`` (:func:`reduce_dense`), so per
    vector the result is **byte-identical** to
    :func:`tiled_kernel` by construction.

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
    if len(xs) == 0:
        raise ShapeError("batched SpMSpV needs at least one vector")
    for x in xs:
        _check_vector(x, A.shape, A.nt)
    Y = np.full((len(xs), A.shape[0]), semiring.add_identity,
                dtype=semiring.dtype)
    for x, y in zip(xs, Y):
        reduce_dense(*matched_product(A.column_entries(),
                                      *x.support(semiring), semiring),
                     semiring, A.shape[0], y)
    return Y, batched_union_counters(A, xs) if with_counters else None


def csc_tiled_counters(At: TiledMatrix, x: TiledVector,
                       merged: int) -> KernelCounters:
    """The counters of one :func:`csc_tiled_kernel` launch on the
    transposed tiling ``At``, of which ``merged`` entries had their x
    slot set (the atomics of the scatter into ``y``)."""
    nt = At.nt
    counters = KernelCounters(launches=1)
    active_cols = np.flatnonzero(x.x_ptr >= 0)          # A's tile columns
    # the compact tiled vector carries its non-empty tile list, so
    # the kernel reads exactly that (no scan over all tile slots)
    counters.coalesced_read_bytes += len(active_cols) * 8.0
    if len(active_cols) == 0:
        counters.warps = 1.0
        return counters
    # At's tile rows are A's tile columns: the touched tiles fall
    # straight out of tile_ptr
    n_active = _range_sum(At.tile_ptr, active_cols)
    if n_active == 0:
        counters.warps = max(1.0, len(active_cols) / 32.0)
        counters.l2_read_bytes += len(active_cols) * 16.0
        return counters
    # only the touched tile columns are read; the merge into y is a
    # global atomic scatter (the CSC form's cost) of the entries whose
    # x slot is set.
    nnz_t = At.tile_nnz()[gather_ranges(At.tile_ptr, active_cols)]
    n_tiles = float(n_active)
    nnz_touched = float(nnz_t.sum())
    merged = float(merged)
    idx_bytes = At.index_bytes_per_entry()
    counters.l2_read_bytes += len(active_cols) * 16.0    # tile_ptr probes
    counters.coalesced_read_bytes += n_tiles * 16.0      # tile metadata
    counters.coalesced_read_bytes += nnz_touched * (8.0 + idx_bytes)
    counters.l2_read_bytes += n_tiles * nt * 8.0         # x tiles (shared)
    counters.shared_bytes += n_tiles * nt * 8.0
    counters.flops += 2.0 * merged
    counters.atomic_ops += merged
    counters.random_write_count += merged
    counters.warps = max(1.0, n_tiles)
    counters.divergence = _lane_utilization(nnz_t)
    counters.check()
    return counters


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

    The host runs the matched entries through ``At``'s row index
    (:meth:`~repro.tiles.tiled_matrix.TiledMatrix.row_entries`): each
    output row folds its products in ascending A column, as the stored
    tile-row stream does — and as :func:`tiled_kernel` does, so the two
    forms give the same bits.

    Returns ``(y_dense, counters)`` like :func:`tiled_kernel`
    (``with_counters=False`` skips accounting and returns ``None``
    counters; :func:`csc_tiled_counters` computes them on their own).
    """
    # At is tiled(A^T): its shape is (n, m) for A of shape (m, n)
    n, m = At.shape
    _check_vector(x, (m, n), At.nt)
    grow, products = matched_product(At.row_entries(),
                                     *x.support(semiring), semiring)
    y_dense = reduce_dense(grow, products, semiring, m, y_dense)
    return y_dense, (csc_tiled_counters(At, x, len(grow))
                     if with_counters else None)


def coo_side_counters(side, x: TiledVector, merged: int) -> KernelCounters:
    """The counters of one :func:`coo_side_kernel` launch, of which
    ``merged`` entries had their x slot set.  An
    :class:`~repro.tiles.extraction.IndexedSideMatrix` charges the
    entries of active column tiles only; a plain COO side the full
    stream."""
    from ..tiles.extraction import IndexedSideMatrix

    counters = KernelCounters(launches=1)
    if side.nnz == 0:
        return counters
    if isinstance(side, IndexedSideMatrix):
        # the entries of active column tiles are scanned; index lookups
        # are driven from the sparser operand: either the vector's
        # non-empty tiles probe the side index, or the side's non-empty
        # column tiles probe x_ptr — a kernel picks the cheaper
        # direction.
        active = np.flatnonzero((x.x_ptr >= 0) & side.nonempty_coltiles())
        scanned = _range_sum(side.coltile_ptr, active)
        counters.l2_read_bytes += min(
            side.n_index_tiles(), x.n_nonempty_tiles) * 16.0
    else:
        scanned = side.nnz
    # touched triplets stream in coalesced; x lookups and y updates are
    # data-dependent scatters.
    counters.coalesced_read_bytes += scanned * 24.0   # (row, col, val)
    counters.random_read_count += float(scanned)      # x value reads
    counters.flops += 2.0 * merged
    counters.atomic_ops += float(merged)
    counters.random_write_count += float(merged)
    counters.warps = max(1.0, scanned / 32.0)
    counters.check()
    return counters


def coo_side_kernel(side, x: TiledVector,
                    semiring: Semiring = PLUS_TIMES,
                    y_dense: Optional[np.ndarray] = None,
                    with_counters: bool = True,
                    ) -> Tuple[np.ndarray, Optional[KernelCounters]]:
    """Kernel for the extracted very-sparse COO side matrix.

    Accepts either an :class:`~repro.tiles.extraction.IndexedSideMatrix`
    (preferred: the triplets are indexed by column at plan time, and
    the counters charge only the entries of *active* column tiles — the
    same skipping the tiled kernel gets from ``x_ptr``) or a plain
    :class:`~repro.formats.coo.COOMatrix` (indexed per call; the
    counters charge the full stream).

    Each touched entry ``(i, j, v)`` reads ``x[j]`` via the O(1) tile
    formula and merges into ``y[i]`` with an atomic add — the side
    matrix has no row locality to exploit, which is exactly why these
    entries were evicted from the tiled structure.  Entries whose x
    slot holds the identity merge nothing.
    """
    from ..tiles.extraction import IndexedSideMatrix

    if x.n != side.shape[1]:
        raise ShapeError(
            f"SpMSpV shape mismatch: side matrix is {side.shape}, "
            f"x has length {x.n}"
        )
    indexed = isinstance(side, IndexedSideMatrix)
    if indexed and side.nt != x.nt:
        raise ShapeError(
            f"side index tile size {side.nt} != vector tile size {x.nt}"
        )
    if y_dense is None:
        y_dense = np.full(side.shape[0], semiring.add_identity,
                          dtype=semiring.dtype)
    merged = 0
    if side.nnz:
        entries = (side if indexed
                   else IndexedSideMatrix.from_coo(side, x.nt)).entries
        rows, products = matched_product(entries, *x.support(semiring),
                                         semiring)
        reduce_dense(rows, products, semiring, side.shape[0], y_dense)
        merged = len(rows)
    return y_dense, (coo_side_counters(side, x, merged)
                     if with_counters else None)
