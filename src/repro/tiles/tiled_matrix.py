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

from .._util import ceil_div, concat_ranges, group_starts, radix_argsort
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

    An index may hold several *parts* (:meth:`stack`), each with its
    own slot range: the TileSpMSpV plan stacks the tiled part and the
    COO side part, so one match gathers every tiled product and then
    every side product — the order in which the two kernels fold into
    ``y``.  :meth:`part` is one part as an index of its own, sharing
    the stacked arrays.

    Output indices and values are copied into index order, so a match
    gathers contiguous ranges.

    Attributes
    ----------
    nt:
        Tile size of the ``x`` tiling.
    slot_base:
        ``int64[n_x_tiles]`` — first slot of each ``x`` tile, ``-1``
        when no entry reads that tile; ``int64[n_parts, n_x_tiles]``
        for a stacked index.
    slot_ptr:
        ``int64[n_slots + 1]`` — entry range of each slot (offset by
        ``slot_ptr[0]``, which is non-zero for a part past the first).
    out:
        ``int64[nnz]`` — output index (global row) of each entry.
    vals:
        The entry values in index order.
    order:
        ``int64[nnz]`` — stored position of each entry: the stable sort
        by slot that the index applied (per part in a stacked index).
    """

    nt: int
    slot_base: np.ndarray
    slot_ptr: np.ndarray
    out: np.ndarray
    vals: np.ndarray
    order: np.ndarray

    @classmethod
    def stack(cls, parts, nt: int) -> "EntryIndex":
        """One index over ``parts``, each ``(base, slot, out, values,
        order)``: every entry's slot (``base`` from
        :func:`tile_slot_base`), output index and value, and ``order``
        the stable sort of ``slot`` when the caller already has it
        (written with an mmap tiling; ``None`` computes it).  Part
        ``p``'s slots follow part ``p - 1``'s, and so do its entries; a
        single part gives a one-dimensional :attr:`slot_base`."""
        nnz = sum(len(part[1]) for part in parts)
        dtype = np.result_type(*(part[3] for part in parts))
        bases, ptrs = [], [np.zeros(1, dtype=np.int64)]
        out = np.empty(nnz, dtype=np.int64)
        vals = np.empty(nnz, dtype=dtype)
        stacked = len(parts) > 1
        order = np.empty(nnz, dtype=np.int64) if stacked else None
        n_slots = lo = 0
        for base, slot, p_out, p_vals, p_order in parts:
            part_slots = int((base >= 0).sum()) * nt
            bases.append(np.where(base >= 0, base + n_slots, -1))
            ptrs.append(np.cumsum(np.bincount(slot, minlength=part_slots))
                        + lo)
            hi = lo + len(slot)
            if p_order is None:
                p_order = radix_argsort(slot)
            if stacked:
                order[lo:hi] = p_order
            # each part's entries land straight in their slice of the
            # stacked arrays ("clip" only skips the buffered copy
            # "raise" makes: the order is a permutation)
            np.take(p_out.astype(np.int64, copy=False), p_order,
                    out=out[lo:hi], mode="clip")
            np.take(p_vals.astype(dtype, copy=False), p_order,
                    out=vals[lo:hi], mode="clip")
            n_slots += part_slots
            lo = hi
        return cls(nt, np.stack(bases) if stacked else bases[0],
                   np.concatenate(ptrs), out, vals,
                   order if stacked else p_order)

    def part(self, p: int) -> "EntryIndex":
        """Part ``p`` of a stacked index as an index of its own.  Its
        pointers, output indices, values and order are views of the
        stacked arrays; only the slot bases are re-numbered."""
        base = self.slot_base[p]
        occupied = base >= 0
        # parts own consecutive slot ranges, in part order
        first = int((self.slot_base[:p] >= 0).sum()) * self.nt
        ptr = self.slot_ptr[first:first + int(occupied.sum()) * self.nt + 1]
        lo, hi = int(ptr[0]), int(ptr[-1])
        return EntryIndex(self.nt, np.where(occupied, base - first, -1),
                          ptr, self.out[lo:hi], self.vals[lo:hi],
                          self.order[lo:hi])

    @property
    def nnz(self) -> int:
        return len(self.out)

    def _ranges(self, cols: np.ndarray
                ) -> Tuple[Optional[np.ndarray], np.ndarray, np.ndarray]:
        """``(hit, lo, counts)``: which ``(part, col)`` pairs have a
        slot (``None`` when all do), and the entry range of each such
        slot, part by part."""
        tiles = cols // self.nt
        base = (self.slot_base[tiles] if self.slot_base.ndim == 1
                else self.slot_base[:, tiles])
        hit = base >= 0
        slot = base + cols % self.nt
        if hit.all():
            hit, slot = None, slot.ravel()
        else:
            slot = slot[hit]
        lo = self.slot_ptr[slot]
        return hit, lo, self.slot_ptr[slot + 1] - lo

    def n_matched(self, cols: np.ndarray) -> int:
        """Number of entries reading one of ``cols`` (the entries
        :meth:`match` gathers)."""
        return int(self._ranges(cols)[2].sum())

    def match(self, cols: np.ndarray, xvals: np.ndarray
              ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(out, vals, x)`` of every entry reading one of ``cols``
        (strictly ascending ``x`` indices with values ``xvals``), in
        index order — part by part in a stacked index.  Cost is
        proportional to the matched entries."""
        hit, lo, counts = self._ranges(cols)
        if self.slot_base.ndim > 1:
            xvals = np.broadcast_to(xvals, (len(self.slot_base), len(cols)))
        xv = np.repeat(xvals.ravel() if hit is None else xvals[hit], counts)
        # every entry matched: the ranges tile the whole index
        if len(xv) == self.nnz:
            return self.out, self.vals, xv
        first = self.slot_ptr[0]     # non-zero in a part past the first
        sel = concat_ranges(lo - first if first else lo, counts)
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

        Entries are bucketed by ``(tile_row, tile_col)`` and kept
        row-major inside each tile by one stable radix permutation of
        the canonical (row-major) input — the format-conversion step
        whose cost Figure 11 measures.
        """
        coo = coo.sum_duplicates()
        return cls.from_canonical(coo.shape, coo.row, coo.col, coo.val, nt)

    @classmethod
    def from_canonical(cls, shape: Tuple[int, int], row: np.ndarray,
                       col: np.ndarray, val: np.ndarray,
                       nt: int) -> "TiledMatrix":
        """Tile coordinates its producer guarantees canonical: in range,
        row-major, without duplicates (what
        :meth:`~repro.formats.coo.COOMatrix.sum_duplicates` returns).
        :meth:`from_coo` after its canonicalisation; a producer that
        already holds canonical runs (the row strips of
        :meth:`~repro.shards.sharded_matrix.ShardedTiledMatrix.from_coo`)
        skips the re-check and its copies."""
        if nt not in SUPPORTED_TILE_SIZES:
            raise TileError(
                f"unsupported tile size {nt}; allowed: {SUPPORTED_TILE_SIZES}"
            )
        m, n = shape
        nc = ceil_div(n, nt)
        # nt is a power of two: shifts and masks, not int64 division
        shift, low = int(nt).bit_length() - 1, int(nt) - 1
        tile_key = row >> shift
        tile_key *= nc
        tile_key += col >> shift
        # the input is row-major with unique keys, so inside one tile
        # its entries already run row-major: a stable sort by tile key
        # (a radix pass, not a 4-key lexsort) is the whole reorder
        order = radix_argsort(tile_key)
        tile_key = tile_key[order]
        lrow = (row & low).astype(np.uint8)[order]
        lcol = (col & low).astype(np.uint8)[order]
        vals = val[order]

        starts = group_starts(tile_key)
        tile_nnz_ptr = np.concatenate(
            [starts, [len(tile_key)]]).astype(np.int64)
        tile_ptr = compress_indptr(tile_key[starts] // nc, ceil_div(m, nt))
        tile_colidx = tile_key[starts] % nc
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
        :class:`~repro.runtime.OperatorPlan`, where it is a part of the
        plan's stacked index, :meth:`share_column_entries`); every
        multiply then gathers only the entries whose ``x`` slot is set.
        """
        cached = getattr(self, "_column_entries", None)
        if cached is None:
            cached = EntryIndex.stack([self.column_part()], self.nt)
            self._column_entries = cached
        return cached

    def column_part(self) -> tuple:
        """``(base, slot, out, values, order)`` of :meth:`column_entries`
        — the part :meth:`EntryIndex.stack` takes."""
        return self._entry_part(self.n_tile_cols, self.tile_colidx,
                                self.local_col, self.tile_rowidx(),
                                self.local_row, self._column_order)

    def share_column_entries(self, index: EntryIndex) -> None:
        """Use ``index`` — a :meth:`EntryIndex.part` of a stacked index
        holding this tiling's column entries — as :meth:`column_entries`,
        so the entries are stored once."""
        self._column_entries = index

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
                                    self.local_col,
                                    expand_indptr(self.tile_nnz_ptr))
        return radix_argsort(slot)

    def row_entries(self) -> EntryIndex:
        """The stored entries by global row, output index the global
        column (cached) — what the CSC-form kernel reads on a
        transposed tiling, whose rows are the ``x`` index."""
        cached = getattr(self, "_row_entries", None)
        if cached is None:
            cached = EntryIndex.stack([self._entry_part(
                self.n_tile_rows, self.tile_rowidx(), self.local_row,
                self.tile_colidx, self.local_col)], self.nt)
            self._row_entries = cached
        return cached

    def _entry_part(self, n_key_tiles: int, key_tile: np.ndarray,
                    key_local: np.ndarray, out_tile: np.ndarray,
                    out_local: np.ndarray,
                    order: Optional[np.ndarray] = None) -> tuple:
        """The :meth:`EntryIndex.stack` part keyed by one axis (the
        stored tiles' tile index and the entries' local index on it),
        output index the other axis."""
        tile = expand_indptr(self.tile_nnz_ptr)
        base, slot = self._entry_slots(n_key_tiles, key_tile, key_local,
                                       tile)
        out = (out_tile * self.nt)[tile] + out_local
        return base, slot, out, self.values, order

    def _entry_slots(self, n_key_tiles: int, key_tile: np.ndarray,
                     key_local: np.ndarray, tile: np.ndarray
                     ) -> Tuple[np.ndarray, np.ndarray]:
        """``(slot_base, slot)`` of an :class:`EntryIndex` keyed by one
        axis: each key tile's first slot and each entry's slot
        (``tile`` is the stored tile of each entry)."""
        occupied = np.zeros(n_key_tiles, dtype=bool)
        occupied[key_tile] = True
        base = tile_slot_base(occupied, self.nt)
        slot = base[key_tile][tile] + key_local
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
        """Storage footprint of the tiled structure in bytes, local
        indices packed (the quantity the sharded resident-set budget is
        expressed in)."""
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
