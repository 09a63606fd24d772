"""Tile-occupancy statistics (paper Table 2 and the §4.2 analysis).

Table 2 reports, per matrix, the number of non-empty tiles at tile
sizes 16/32/64; §4.2 attributes performance wins to low non-empty-tile
occupancy ('trans5': "only 0.00018% non-empty tiles") and dense in-tile
distribution ('ldoor').  These functions compute those quantities
directly from a COO pattern without building the tiled structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .._util import ceil_div, sorted_distinct
from ..errors import TileError
from ..formats.coo import COOMatrix

__all__ = ["TileStats", "count_nonempty_tiles", "tile_stats",
           "tile_nnz_histogram"]


def count_nonempty_tiles(coo: COOMatrix, nt: int) -> int:
    """Number of nt-by-nt tiles containing at least one nonzero."""
    if nt <= 0:
        raise TileError(f"tile size must be positive, got {nt}")
    if coo.nnz == 0:
        return 0
    nc = ceil_div(coo.shape[1], nt)
    key = (coo.row // nt) * nc + coo.col // nt
    return len(sorted_distinct(key))


def tile_nnz_histogram(coo: COOMatrix, nt: int) -> Dict[int, int]:
    """Histogram {nnz_per_tile: count} over non-empty tiles."""
    if coo.nnz == 0:
        return {}
    nc = ceil_div(coo.shape[1], nt)
    key = (coo.row // nt) * nc + coo.col // nt
    _, counts = np.unique(key, return_counts=True)
    sizes, freq = np.unique(counts, return_counts=True)
    return {int(s): int(f) for s, f in zip(sizes, freq)}


@dataclass(frozen=True)
class TileStats:
    """Summary of one matrix at one tile size."""

    shape: tuple
    nnz: int
    nt: int
    n_nonempty_tiles: int
    total_tiles: int
    avg_nnz_per_tile: float

    @property
    def nonempty_tile_fraction(self) -> float:
        """Fraction of the tile grid that is non-empty — the quantity
        §4.2 calls 'non-empty tiles occupation'."""
        return (self.n_nonempty_tiles / self.total_tiles
                if self.total_tiles else 0.0)

    @property
    def in_tile_density(self) -> float:
        """Average fill of the non-empty tiles (nnz / (tiles * nt^2))."""
        cells = self.n_nonempty_tiles * self.nt * self.nt
        return self.nnz / cells if cells else 0.0


def tile_stats(coo: COOMatrix, nt: int) -> TileStats:
    """Compute :class:`TileStats` for one matrix / tile size."""
    n_tiles = count_nonempty_tiles(coo, nt)
    total = ceil_div(coo.shape[0], nt) * ceil_div(coo.shape[1], nt)
    return TileStats(
        shape=coo.shape,
        nnz=coo.nnz,
        nt=nt,
        n_nonempty_tiles=n_tiles,
        total_tiles=total,
        avg_nnz_per_tile=coo.nnz / n_tiles if n_tiles else 0.0,
    )


def tile_stats_sweep(coo: COOMatrix,
                     tile_sizes: Sequence[int] = (16, 32, 64)
                     ) -> Dict[int, TileStats]:
    """Stats at several tile sizes (the three columns of Table 2)."""
    return {nt: tile_stats(coo, nt) for nt in tile_sizes}
