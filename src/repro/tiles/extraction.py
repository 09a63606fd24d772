"""Very-sparse-tile extraction (paper §3.2.1 last paragraph, §3.3/§3.4).

Tiles that contain only "a couple of nonzeros" are not worth the
per-tile bookkeeping of the tiled format: the paper extracts their
entries into a separate COO matrix and processes that side matrix with
a simple per-entry kernel ("the operation is like multiplying two
matrices with the same input vector, and merge the results into one
output vector").  §4.2 reports a 1.6x gain on 'cryg10000' from this
split — the ablation benchmark ``bench_coo_extraction`` reproduces that
experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .._util import ceil_div, group_starts
from ..errors import TileError
from ..formats.coo import COOMatrix
from .tiled_matrix import EntryIndex, TiledMatrix, tile_slot_base

__all__ = ["HybridTiledMatrix", "IndexedSideMatrix",
           "split_very_sparse_tiles", "suggest_extract_threshold"]


@dataclass
class IndexedSideMatrix:
    """The extracted COO entries, sorted by column and indexed.

    A raw COO kernel would have to scan *every* extracted entry per
    multiply; sorting the triplets by global column once (stable, so
    each column keeps its row order) and indexing them makes the side
    kernel vector-driven — only entries whose ``x`` slot is set are
    touched, and the per-column-tile pointer keeps the tile-level
    skipping the counters model.

    Attributes
    ----------
    shape:
        Shape of the original matrix.
    nt:
        Tile size the column grouping uses.
    coltile_ptr:
        ``int64[n_tile_cols + 1]`` — entry ranges per column tile.
    row, col, val:
        The triplets, sorted by column.
    entries:
        The column index over the triplets (its ``out`` and ``vals``
        are :attr:`row` and :attr:`val`).
    """

    shape: tuple
    nt: int
    coltile_ptr: np.ndarray
    row: np.ndarray
    col: np.ndarray
    val: np.ndarray
    entries: EntryIndex

    @classmethod
    def from_coo(cls, side: COOMatrix, nt: int,
                 entries: Optional[EntryIndex] = None
                 ) -> "IndexedSideMatrix":
        """Index ``side`` by column.  ``entries`` is its column index
        when the caller already built it from :meth:`part` (as a part
        of the plan's stacked index)."""
        counts = np.bincount(side.col // nt,
                             minlength=ceil_div(side.shape[1], nt))
        ptr = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=ptr[1:])
        if entries is None:
            entries = EntryIndex.stack([cls.part(side, nt)], nt)
        return cls(shape=side.shape, nt=nt, coltile_ptr=ptr,
                   row=entries.out, col=side.col[entries.order],
                   val=entries.vals, entries=entries)

    @staticmethod
    def part(side: COOMatrix, nt: int) -> tuple:
        """``(base, slot, out, values, order)`` of the side's column
        index — the part :meth:`EntryIndex.stack` takes."""
        tcol = side.col // nt
        base = tile_slot_base(
            np.bincount(tcol, minlength=ceil_div(side.shape[1], nt)) > 0,
            nt)
        return base, base[tcol] + side.col % nt, side.row, side.val, None

    @property
    def nnz(self) -> int:
        return len(self.val)

    def nonempty_coltiles(self) -> np.ndarray:
        """Boolean mask of column tiles holding at least one triplet
        (cached — the side kernel tests it on every multiply)."""
        cached = getattr(self, "_nonempty_coltiles", None)
        if cached is None:
            cached = np.diff(self.coltile_ptr) > 0
            self._nonempty_coltiles = cached
        return cached

    def n_index_tiles(self) -> int:
        """Number of non-empty column tiles (cached)."""
        cached = getattr(self, "_n_index_tiles", None)
        if cached is None:
            cached = int(self.nonempty_coltiles().sum())
            self._n_index_tiles = cached
        return cached

#: Default extraction threshold: tiles with <= this many nonzeros move
#: to the COO side matrix.
DEFAULT_THRESHOLD = 2


@dataclass
class HybridTiledMatrix:
    """A :class:`TiledMatrix` plus the COO side matrix of extracted
    very-sparse tiles.  ``A == tiled + side`` always holds
    (:meth:`to_coo` reassembles it; tests verify the identity).

    Attributes
    ----------
    tiled:
        The dense-enough tiles in tiled storage.
    side:
        Entries of the extracted tiles, in COO.
    threshold:
        The nnz-per-tile cutoff used for the split.
    """

    tiled: TiledMatrix
    side: COOMatrix
    threshold: int

    @property
    def shape(self):
        return self.tiled.shape

    @property
    def nt(self) -> int:
        return self.tiled.nt

    @property
    def nnz(self) -> int:
        return self.tiled.nnz + self.side.nnz

    def entry_index(self) -> EntryIndex:
        """The column index of both parts, stacked — the tiled part
        first, then the side (cached).  One match hands every output
        row its tiled products and then its side products, the order
        the two kernels fold them in; the tiling's
        :meth:`~repro.tiles.tiled_matrix.TiledMatrix.column_entries` is
        its first part, so every entry is stored once."""
        cached = getattr(self, "_entry_index", None)
        if cached is None:
            if self.side.nnz:
                cached = EntryIndex.stack(
                    [self.tiled.column_part(),
                     IndexedSideMatrix.part(self.side, self.nt)], self.nt)
                self.tiled.share_column_entries(cached.part(0))
            else:
                cached = self.tiled.column_entries()
            self._entry_index = cached
        return cached

    @property
    def extracted_fraction(self) -> float:
        """Fraction of nonzeros living in the COO side matrix."""
        return self.side.nnz / self.nnz if self.nnz else 0.0

    def to_coo(self) -> COOMatrix:
        """Reassemble the original matrix."""
        t = self.tiled.to_coo()
        rows = np.concatenate([t.row, self.side.row])
        cols = np.concatenate([t.col, self.side.col])
        vals = np.concatenate([t.val, self.side.val])
        return COOMatrix(self.shape, rows, cols, vals).canonicalize()

    def nbytes(self) -> int:
        """Total storage footprint (tiled structure + COO triplets)."""
        side_bytes = (self.side.row.nbytes + self.side.col.nbytes
                      + self.side.val.nbytes)
        return self.tiled.nbytes() + side_bytes


def split_very_sparse_tiles(coo: COOMatrix, nt: int,
                            threshold: int = DEFAULT_THRESHOLD
                            ) -> HybridTiledMatrix:
    """Split a matrix into (tiled part, COO side matrix).

    Parameters
    ----------
    coo:
        Input matrix.
    nt:
        Tile size for the tiled part.
    threshold:
        Tiles with ``nnz <= threshold`` are extracted.  ``threshold=0``
        extracts nothing (pure tiled storage).

    Returns
    -------
    HybridTiledMatrix
    """
    if threshold < 0:
        raise TileError(f"extraction threshold must be >= 0, got {threshold}")
    coo = coo.sum_duplicates()
    if coo.nnz == 0 or threshold == 0:
        return HybridTiledMatrix(
            tiled=TiledMatrix.from_coo(coo, nt),
            side=COOMatrix.empty(coo.shape, dtype=coo.val.dtype),
            threshold=threshold,
        )

    nc = ceil_div(coo.shape[1], nt)
    tile_key = (coo.row // nt) * nc + coo.col // nt
    order = np.argsort(tile_key, kind="stable")
    key_sorted = tile_key[order]
    starts = group_starts(key_sorted)
    counts = np.diff(np.concatenate([starts, [len(key_sorted)]]))
    # mark entries through ``order`` and slice the canonical ``coo``
    # by the mask: both parts keep its row-major order, so neither
    # needs re-sorting downstream
    entry_is_sparse = np.empty(coo.nnz, dtype=bool)
    entry_is_sparse[order] = np.repeat(counts <= threshold, counts)
    entry_is_dense = ~entry_is_sparse
    side = COOMatrix(coo.shape, coo.row[entry_is_sparse],
                     coo.col[entry_is_sparse], coo.val[entry_is_sparse])
    dense = COOMatrix(coo.shape, coo.row[entry_is_dense],
                      coo.col[entry_is_dense], coo.val[entry_is_dense])
    return HybridTiledMatrix(
        tiled=TiledMatrix.from_coo(dense, nt),
        side=side,
        threshold=threshold,
    )


def suggest_extract_threshold(coo: COOMatrix, nt: int,
                              max_threshold: int = 8,
                              expected_x_tile_fraction: float = 0.1
                              ) -> int:
    """Pick an extraction threshold by pricing the per-multiply cost.

    The trade the §3.2.1 extraction makes: every tile left in the
    tiled structure costs a fixed metadata read per multiply (the
    row-tile kernel scans all stored tiles), while every extracted
    nonzero costs a scattered read + atomic *when its column tile is
    active*.  This helper evaluates that balance from the tile-size
    histogram — no trial multiplies — and returns the threshold in
    ``[0, max_threshold]`` with the lowest estimated traffic.

    Parameters
    ----------
    coo:
        The matrix to be tiled.
    nt:
        Tile size.
    max_threshold:
        Largest nnz-per-tile cutoff considered.
    expected_x_tile_fraction:
        Assumed fraction of vector tiles that are active per multiply
        (scales the side matrix's data-dependent cost).

    Returns
    -------
    The recommended ``extract_threshold``.
    """
    from .stats import tile_nnz_histogram

    if max_threshold < 0:
        raise TileError(f"max_threshold must be >= 0, got {max_threshold}")
    hist = tile_nnz_histogram(coo, nt)
    if not hist:
        return 0
    # cost units: bytes of estimated traffic per multiply
    META_BYTES = 16.0          # per stored tile, always read
    SIDE_BYTES = 24.0 + 32.0   # triplet stream + scattered x/y sector

    best_t, best_cost = 0, float("inf")
    for t in range(0, max_threshold + 1):
        tiles_kept = sum(c for s, c in hist.items() if s > t)
        nnz_extracted = sum(s * c for s, c in hist.items() if s <= t)
        cost = (tiles_kept * META_BYTES
                + nnz_extracted * SIDE_BYTES * expected_x_tile_fraction)
        if cost < best_cost - 1e-9:
            best_t, best_cost = t, cost
    return best_t
