"""Tiled sparse matrix storage (paper §3.2.1, Figure 4).

The matrix is cut into ``nt``-by-``nt`` sparse tiles; non-empty tiles
are treated as the nonzero elements of a coarse matrix stored in CSR
("CSR-of-tiles"), and inside each tile only the actual nonzeros are
kept, sorted row-major (the per-tile CSR of paper Alg. 4).  Local
coordinates fit in a byte (``nt <= 64``); for ``nt == 16`` they pack
into a *single* byte — high nibble row, low nibble column — the storage
trick of §3.2.1, exposed via :meth:`TiledMatrix.packed_index`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .._util import ceil_div, concat_ranges, radix_argsort
from ..errors import TileError
from ..formats.coo import COOMatrix
from ..formats.csr import compress_indptr, expand_indptr
from .tiled_vector import SUPPORTED_TILE_SIZES

__all__ = ["TiledMatrix", "ColumnGather", "EntryIndex"]


#: Lanes of the warp that co-processes one stored tile.
WARP_LANES = 32


def tile_slot_base(occupied: np.ndarray, nt: int) -> np.ndarray:
    """First slot of each x tile in an :class:`EntryIndex`: occupied
    tiles get ``nt`` consecutive slots in ascending tile order, empty
    ones ``-1``."""
    return np.where(occupied, (np.cumsum(occupied) - 1) * nt, -1)


@dataclass(frozen=True)
class EntryIndex:
    """Stored entries ordered by the ``x`` index they read.

    The host side of every SpMSpV kernel runs on *matched entries*:
    only the entries whose ``x`` slot is set are gathered, multiplied
    and merged.  This index lists the entries by ascending ``x`` index
    and, within one index, in stored order, so gathering the support of
    ``x`` in ascending order hands every output row its products in
    ascending ``x``-index order — the order the tiled stream (tile
    column by tile column, row-major inside a tile) and the COO side
    stream fold them in.

    Lookups go through *slots*: every occupied ``x`` tile owns ``nt``
    consecutive slots, one per local index, so the pointer array grows
    with the occupied tiles, not with the matrix width (a row-strip
    shard of a wide matrix touches few of its tile columns).

    Output indices and values are copied into index order, so a match
    gathers contiguous ranges.

    Attributes
    ----------
    nt:
        Tile size of the ``x`` tiling.
    slot_base:
        ``int64[n_x_tiles]`` — first slot of each ``x`` tile, ``-1``
        when no entry reads that tile.
    slot_ptr:
        ``int64[n_slots + 1]`` — entry range of each slot.
    out:
        ``int64[nnz]`` — output index (global row) of each entry.
    vals:
        The entry values in index order.
    order:
        ``int64[nnz]`` — stored position of each entry: the stable sort
        by slot that the index applied.
    """

    nt: int
    slot_base: np.ndarray
    slot_ptr: np.ndarray
    out: np.ndarray
    vals: np.ndarray
    order: np.ndarray

    @classmethod
    def build(cls, base: np.ndarray, slot: np.ndarray, out: np.ndarray,
              values: np.ndarray, nt: int,
              order: Optional[np.ndarray] = None) -> "EntryIndex":
        """Index entries given each one's slot (``base`` from
        :func:`tile_slot_base`), output index and value.  ``order`` is
        the stable sort of ``slot`` when the caller already has it
        (written with an mmap tiling); otherwise it is computed."""
        n_slots = int((base >= 0).sum()) * nt
        if order is None:
            order = radix_argsort(slot)
        ptr = np.zeros(n_slots + 1, dtype=np.int64)
        np.cumsum(np.bincount(slot, minlength=n_slots), out=ptr[1:])
        return cls(nt, base, ptr, out[order], values[order], order)

    @property
    def nnz(self) -> int:
        return len(self.out)

    def match(self, cols: np.ndarray, xvals: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(out, vals, x)`` of every entry reading one of ``cols``
        (strictly ascending ``x`` indices with values ``xvals``), in
        index order.  Cost is proportional to the matched entries."""
        nt = self.nt
        base = self.slot_base[cols // nt]
        hit = base >= 0
        if not hit.all():
            cols, xvals, base = cols[hit], xvals[hit], base[hit]
        slot = base + cols % nt
        lo = self.slot_ptr[slot]
        counts = self.slot_ptr[slot + 1] - lo
        xv = np.repeat(xvals, counts)
        # every entry matched: the ranges tile the whole index
        sel = (slice(None) if len(xv) == self.nnz
               else concat_ranges(lo, counts))
        return self.out[sel], self.vals[sel], xv


@dataclass(frozen=True)
class ColumnGather:
    """The stored tiles regrouped by tile column — the tile-level model
    of a multiply.

    The modeled launch stays tile-level (an active tile stages its
    whole ``x`` tile and every lane multiplies), so the counters read
    the stored tiles of the active tile columns.  Per-column prefix
    sums make them cost O(active tile columns), except the distinct
    row tiles, which need the active tiles' rows.  The host execution
    reads :meth:`TiledMatrix.column_entries` instead.

    Attributes
    ----------
    coltile_tile_ptr:
        ``int64[n_tile_cols + 1]`` — stored-tile ranges per tile column
        (into :attr:`coltile_rows`).
    coltile_rows:
        ``int64[n_nonempty_tiles]`` — tile-row index of each stored
        tile, grouped by tile column.
    coltile_nnz_ptr:
        ``int64[n_tile_cols + 1]`` — prefix sums of the tiles' nonzero
        counts per tile column.
    coltile_lanes_ptr:
        ``int64[n_tile_cols + 1]`` — prefix sums of the tiles' busy
        warp lanes, ``min(nnz, 32)``, per tile column.
    """

    coltile_tile_ptr: np.ndarray
    coltile_rows: np.ndarray
    coltile_nnz_ptr: np.ndarray
    coltile_lanes_ptr: np.ndarray

    @classmethod
    def build(cls, A: "TiledMatrix") -> "ColumnGather":
        tile_counts = np.bincount(A.tile_colidx, minlength=A.n_tile_cols)
        tile_ptr = np.zeros(len(tile_counts) + 1, dtype=np.int64)
        np.cumsum(tile_counts, out=tile_ptr[1:])
        order = radix_argsort(A.tile_colidx)
        tile_nnz = A.tile_nnz()[order]

        def column_prefix(per_tile: np.ndarray) -> np.ndarray:
            prefix = np.zeros(len(per_tile) + 1, dtype=np.int64)
            np.cumsum(per_tile, out=prefix[1:])
            return prefix[tile_ptr]

        return cls(tile_ptr, A.tile_rowidx()[order],
                   column_prefix(tile_nnz),
                   column_prefix(np.minimum(tile_nnz, WARP_LANES)))


class TiledMatrix:
    """Sparse matrix of sparse ``nt``-by-``nt`` tiles, CSR-of-tiles layout.

    Attributes
    ----------
    shape:
        Logical ``(m, n)`` of the matrix (not padded).
    nt:
        Tile edge length, from :data:`SUPPORTED_TILE_SIZES`.
    tile_ptr:
        ``int64[n_tile_rows + 1]`` — CSR pointers over tile rows.
    tile_colidx:
        ``int64[n_nonempty_tiles]`` — tile-column index of each stored
        tile, sorted within each tile row.
    tile_nnz_ptr:
        ``int64[n_nonempty_tiles + 1]`` — offsets of each tile's
        nonzeros in the entry arrays.
    local_row, local_col:
        ``uint8[nnz]`` — within-tile coordinates, row-major sorted per
        tile.
    values:
        ``float64[nnz]`` — the nonzero values.

    ``column_order`` optionally hands in the stable order of the
    entries by global column (:attr:`EntryIndex.order` of
    :meth:`column_entries`) from a producer that has it, so building
    the index does not sort again.
    """

    def __init__(self, shape: Tuple[int, int], nt: int,
                 tile_ptr: np.ndarray, tile_colidx: np.ndarray,
                 tile_nnz_ptr: np.ndarray, local_row: np.ndarray,
                 local_col: np.ndarray, values: np.ndarray,
                 validate: bool = True,
                 column_order: Optional[np.ndarray] = None):
        if nt not in SUPPORTED_TILE_SIZES:
            raise TileError(
                f"unsupported tile size {nt}; allowed: {SUPPORTED_TILE_SIZES}"
            )
        self.shape = (int(shape[0]), int(shape[1]))
        self.nt = int(nt)
        self.tile_ptr = np.ascontiguousarray(tile_ptr, dtype=np.int64)
        self.tile_colidx = np.ascontiguousarray(tile_colidx, dtype=np.int64)
        self.tile_nnz_ptr = np.ascontiguousarray(tile_nnz_ptr, dtype=np.int64)
        self.local_row = np.ascontiguousarray(local_row, dtype=np.uint8)
        self.local_col = np.ascontiguousarray(local_col, dtype=np.uint8)
        self.values = np.ascontiguousarray(values)
        self._column_order = column_order
        # ``validate=False`` is for trusted producers over lazy storage
        # (the mmap loader in ``tiles.io``): a full validate pages every
        # array in, defeating the point of memory-mapping the payload.
        if validate:
            self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every structural invariant of the tiled layout."""
        mt, nc = self.n_tile_rows, self.n_tile_cols
        if len(self.tile_ptr) != mt + 1:
            raise TileError(
                f"tile_ptr length {len(self.tile_ptr)} != n_tile_rows+1"
            )
        if self.tile_ptr[0] != 0 or np.any(np.diff(self.tile_ptr) < 0):
            raise TileError("tile_ptr must start at 0 and be non-decreasing")
        if self.tile_ptr[-1] != len(self.tile_colidx):
            raise TileError("tile_ptr[-1] != number of stored tiles")
        if len(self.tile_colidx) and (
                self.tile_colidx.min() < 0 or self.tile_colidx.max() >= nc):
            raise TileError("tile column index out of range")
        if len(self.tile_nnz_ptr) != len(self.tile_colidx) + 1:
            raise TileError("tile_nnz_ptr length != n_tiles + 1")
        if (self.tile_nnz_ptr[0] != 0
                or np.any(np.diff(self.tile_nnz_ptr) < 0)
                or self.tile_nnz_ptr[-1] != len(self.values)):
            raise TileError("tile_nnz_ptr inconsistent with entry arrays")
        if np.any(np.diff(self.tile_nnz_ptr) == 0):
            raise TileError("stored tiles must be non-empty")
        if not (len(self.local_row) == len(self.local_col)
                == len(self.values)):
            raise TileError("entry arrays have inconsistent lengths")
        if len(self.local_row) and (int(self.local_row.max()) >= self.nt or
                                    int(self.local_col.max()) >= self.nt):
            raise TileError(f"local index out of tile range (nt={self.nt})")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix, nt: int) -> "TiledMatrix":
        """Tile a COO matrix (duplicates summed).

        Entries are bucketed by ``(tile_row, tile_col)`` and sorted
        row-major inside each tile, all with vectorized sorts — the
        format-conversion step whose cost Figure 11 measures.
        """
        if nt not in SUPPORTED_TILE_SIZES:
            raise TileError(
                f"unsupported tile size {nt}; allowed: {SUPPORTED_TILE_SIZES}"
            )
        coo = coo.sum_duplicates()
        m, n = coo.shape
        trow = coo.row // nt
        tcol = coo.col // nt
        lrow = (coo.row % nt).astype(np.uint8)
        lcol = (coo.col % nt).astype(np.uint8)
        order = np.lexsort((lcol, lrow, tcol, trow))
        trow, tcol = trow[order], tcol[order]
        lrow, lcol = lrow[order], lcol[order]
        vals = coo.val[order]

        nc = ceil_div(n, nt)
        tile_key = trow * nc + tcol
        from .._util import group_starts

        starts = group_starts(tile_key)
        n_tiles = len(starts)
        tile_nnz_ptr = np.concatenate(
            [starts, [len(tile_key)]]).astype(np.int64)
        tile_trow = trow[starts] if n_tiles else np.zeros(0, dtype=np.int64)
        tile_colidx = tcol[starts] if n_tiles else np.zeros(0, dtype=np.int64)
        tile_ptr = compress_indptr(tile_trow, ceil_div(m, nt))
        return cls((m, n), nt, tile_ptr, tile_colidx, tile_nnz_ptr,
                   lrow, lcol, vals)

    @classmethod
    def from_dense(cls, dense: np.ndarray, nt: int) -> "TiledMatrix":
        return cls.from_coo(COOMatrix.from_dense(dense), nt)

    # ------------------------------------------------------------------
    # Geometry / accessors
    # ------------------------------------------------------------------
    @property
    def n_tile_rows(self) -> int:
        """Number of tile rows (``ceil(m / nt)``)."""
        return ceil_div(self.shape[0], self.nt)

    @property
    def n_tile_cols(self) -> int:
        """Number of tile columns (``ceil(n / nt)``)."""
        return ceil_div(self.shape[1], self.nt)

    @property
    def n_nonempty_tiles(self) -> int:
        """Number of stored tiles."""
        return len(self.tile_colidx)

    def nbytes(self) -> int:
        """Bytes of the stored format arrays (the quantity the sharded
        resident-set budget is expressed in)."""
        return int(self.tile_ptr.nbytes + self.tile_colidx.nbytes
                   + self.tile_nnz_ptr.nbytes + self.local_row.nbytes
                   + self.local_col.nbytes + self.values.nbytes)

    @property
    def nnz(self) -> int:
        """Number of stored nonzeros."""
        return len(self.values)

    @property
    def dtype(self) -> np.dtype:
        return self.values.dtype

    def tile_rowidx(self) -> np.ndarray:
        """Tile-row index of each stored tile (expansion of tile_ptr).

        Cached: the kernels need it on every multiply and it only
        depends on immutable structure.
        """
        cached = getattr(self, "_tile_rowidx", None)
        if cached is None:
            cached = expand_indptr(self.tile_ptr)
            self._tile_rowidx = cached
        return cached

    def tile_nnz(self) -> np.ndarray:
        """Nonzero count of each stored tile (cached)."""
        cached = getattr(self, "_tile_nnz", None)
        if cached is None:
            cached = np.diff(self.tile_nnz_ptr)
            self._tile_nnz = cached
        return cached

    def tile_of_entry(self) -> np.ndarray:
        """Stored-tile index of each nonzero entry (cached)."""
        cached = getattr(self, "_tile_of_entry", None)
        if cached is None:
            cached = expand_indptr(self.tile_nnz_ptr)
            self._tile_of_entry = cached
        return cached

    def local_row64(self) -> np.ndarray:
        """:attr:`local_row` widened to int64 (cached).

        The kernels need the widened copy on every multiply for index
        arithmetic; casting per launch was a full O(nnz) pass."""
        cached = getattr(self, "_local_row64", None)
        if cached is None:
            cached = self.local_row.astype(np.int64)
            self._local_row64 = cached
        return cached

    def local_col64(self) -> np.ndarray:
        """:attr:`local_col` widened to int64 (cached)."""
        cached = getattr(self, "_local_col64", None)
        if cached is None:
            cached = self.local_col.astype(np.int64)
            self._local_col64 = cached
        return cached

    def entry_rows(self) -> np.ndarray:
        """Global row index of each entry (cached):
        ``tile_rowidx[tile_of_entry] * nt + local_row``."""
        cached = getattr(self, "_entry_rows", None)
        if cached is None:
            cached = (self.tile_rowidx()[self.tile_of_entry()] * self.nt
                      + self.local_row64())
            self._entry_rows = cached
        return cached

    def entry_cols(self) -> np.ndarray:
        """Global column index of each entry (cached):
        ``tile_colidx[tile_of_entry] * nt + local_col``."""
        cached = getattr(self, "_entry_cols", None)
        if cached is None:
            cached = (self.tile_colidx[self.tile_of_entry()] * self.nt
                      + self.local_col64())
            self._entry_cols = cached
        return cached

    def n_occupied_tile_rows(self) -> int:
        """Number of tile rows holding at least one stored tile
        (cached) — the warp count of the row-tile kernel."""
        cached = getattr(self, "_n_occupied_tile_rows", None)
        if cached is None:
            cached = int((np.diff(self.tile_ptr) > 0).sum())
            self._n_occupied_tile_rows = cached
        return cached

    def column_gather(self) -> ColumnGather:
        """The stored tiles grouped by tile column (cached) — what the
        kernels' counters read."""
        cached = getattr(self, "_column_gather", None)
        if cached is None:
            cached = ColumnGather.build(self)
            self._column_gather = cached
        return cached

    def column_entries(self) -> EntryIndex:
        """The stored entries by global column, output index the global
        row (cached) — what the row-tile kernel's host side reads.

        Built once per matrix (plan time for operators sharing an
        :class:`~repro.runtime.OperatorPlan`); every multiply then
        gathers only the entries whose ``x`` slot is set.
        """
        cached = getattr(self, "_column_entries", None)
        if cached is None:
            cached = self._entry_index(
                self.n_tile_cols, self.tile_colidx, self.local_col,
                self.tile_rowidx(), self.local_row, self._column_order)
            self._column_entries = cached
        return cached

    def column_order(self) -> np.ndarray:
        """:attr:`EntryIndex.order` of :meth:`column_entries` — the
        stable order of the stored entries by global column — without
        gathering the index's rows and values when it is not built."""
        cached = getattr(self, "_column_entries", None)
        if cached is not None:
            return cached.order
        if self._column_order is not None:
            return self._column_order
        _, slot = self._entry_slots(self.n_tile_cols, self.tile_colidx,
                                    self.local_col)
        return radix_argsort(slot)

    def row_entries(self) -> EntryIndex:
        """The stored entries by global row, output index the global
        column (cached) — what the CSC-form kernel reads on a
        transposed tiling, whose rows are the ``x`` index."""
        cached = getattr(self, "_row_entries", None)
        if cached is None:
            cached = self._entry_index(
                self.n_tile_rows, self.tile_rowidx(), self.local_row,
                self.tile_colidx, self.local_col)
            self._row_entries = cached
        return cached

    def _entry_index(self, n_key_tiles: int, key_tile: np.ndarray,
                     key_local: np.ndarray, out_tile: np.ndarray,
                     out_local: np.ndarray,
                     order: Optional[np.ndarray] = None) -> EntryIndex:
        """An :class:`EntryIndex` keyed by one axis (the stored tiles'
        tile index and the entries' local index on it), output index
        the other axis."""
        base, slot = self._entry_slots(n_key_tiles, key_tile, key_local)
        out = ((out_tile * self.nt)[expand_indptr(self.tile_nnz_ptr)]
               + out_local)
        return EntryIndex.build(base, slot, out, self.values, self.nt,
                                order)

    def _entry_slots(self, n_key_tiles: int, key_tile: np.ndarray,
                     key_local: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """``(slot_base, slot)`` of an :class:`EntryIndex` keyed by one
        axis: each key tile's first slot and each entry's slot."""
        occupied = np.zeros(n_key_tiles, dtype=bool)
        occupied[key_tile] = True
        base = tile_slot_base(occupied, self.nt)
        slot = base[key_tile][expand_indptr(self.tile_nnz_ptr)] + key_local
        return base, slot

    def tile_slice(self, t: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(local_row, local_col, values)`` views of stored tile ``t``."""
        lo, hi = self.tile_nnz_ptr[t], self.tile_nnz_ptr[t + 1]
        return (self.local_row[lo:hi], self.local_col[lo:hi],
                self.values[lo:hi])

    def packed_index(self) -> np.ndarray:
        """Nibble-packed per-entry index (§3.2.1): high 4 bits local row,
        low 4 bits local column.  Only defined for ``nt == 16``."""
        if self.nt != 16:
            raise TileError(
                f"packed single-byte indices require nt=16, have nt={self.nt}"
            )
        return ((self.local_row << 4) | self.local_col).astype(np.uint8)

    def index_bytes_per_entry(self) -> int:
        """Bytes of local-index storage per nonzero (1 for nt=16 thanks
        to nibble packing, else 2)."""
        return 1 if self.nt == 16 else 2

    def nbytes(self) -> int:
        """Storage footprint of the tiled structure in bytes."""
        entry_idx = self.nnz * self.index_bytes_per_entry()
        return int(self.tile_ptr.nbytes + self.tile_colidx.nbytes
                   + self.tile_nnz_ptr.nbytes + entry_idx
                   + self.values.nbytes)

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def to_coo(self) -> COOMatrix:
        """Expand back to a COO matrix with global coordinates."""
        tile = self.tile_of_entry()
        trow = self.tile_rowidx()[tile]
        tcol = self.tile_colidx[tile]
        rows = trow * self.nt + self.local_row.astype(np.int64)
        cols = tcol * self.nt + self.local_col.astype(np.int64)
        return COOMatrix(self.shape, rows, cols, self.values.copy())

    def to_dense(self) -> np.ndarray:
        return self.to_coo().to_dense()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<TiledMatrix {self.shape[0]}x{self.shape[1]} nt={self.nt} "
                f"tiles={self.n_nonempty_tiles} nnz={self.nnz}>")
