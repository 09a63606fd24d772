"""Tiled sparse vector storage (paper §3.2.2, Figure 3).

A vector of length ``n`` is cut into ``ceil(n / nt)`` tiles of length
``nt``.  Empty tiles are dropped; non-empty tiles are stored densely and
contiguously in ``x_tile``, and ``x_ptr`` maps each tile slot either to
its compact position or to ``-1``.  Element ``i`` is then recovered in
O(1) as ``x_tile[x_ptr[i // nt] * nt + i % nt]`` — the formula under
Figure 3 — which is what lets the matrix kernel skip whole tiles whose
input is empty without any search.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .._util import ceil_div, sorted_distinct
from ..errors import ShapeError, TileError

__all__ = ["TiledVector", "SUPPORTED_TILE_SIZES", "check_tile_size"]

#: Tile sizes the paper uses (§3.2.1: "nt is usually 16, 32 or 64").
#: Smaller powers of two are additionally allowed for tests/examples.
SUPPORTED_TILE_SIZES = (2, 4, 8, 16, 32, 64)


def check_tile_size(nt: int) -> None:
    """Raise :class:`~repro.errors.TileError` unless ``nt`` is one of
    :data:`SUPPORTED_TILE_SIZES`."""
    if nt not in SUPPORTED_TILE_SIZES:
        raise TileError(
            f"unsupported tile size {nt}; allowed: {SUPPORTED_TILE_SIZES}")


class TiledVector:
    """A sparse vector in the paper's ``x_ptr`` / ``x_tile`` layout.

    Attributes
    ----------
    n:
        Logical length of the vector.
    nt:
        Tile size.
    x_ptr:
        ``int64[ceil(n / nt)]``; ``-1`` marks an empty tile, otherwise
        the compact index of the tile inside :attr:`x_tile`.
    x_tile:
        ``float64[nt * n_nonempty_tiles]`` dense tile payload; the tail
        of the last tile (beyond ``n``) is zero-padded.
    """

    def __init__(self, n: int, nt: int, x_ptr: np.ndarray,
                 x_tile: np.ndarray, fill: float = 0.0):
        self._assign(n, nt, x_ptr, x_tile, fill)
        self.validate()

    @classmethod
    def _built(cls, n: int, nt: int, x_ptr: np.ndarray, x_tile: np.ndarray,
               fill: float) -> "TiledVector":
        """A vector from the constructors below, whose ``x_ptr`` numbers
        the tiles they just kept ``0..k-1`` by construction: skips
        :meth:`validate`."""
        tv = cls.__new__(cls)
        tv._assign(n, nt, x_ptr, x_tile, fill)
        return tv

    def _assign(self, n: int, nt: int, x_ptr: np.ndarray,
                x_tile: np.ndarray, fill: float) -> None:
        check_tile_size(nt)
        if n < 0:
            raise ShapeError(f"negative vector length {n}")
        self.n = int(n)
        self.nt = int(nt)
        #: "no entry" sentinel value stored in unoccupied slots of
        #: non-empty tiles (the semiring's additive identity).
        self.fill = float(fill)
        self.x_ptr = np.ascontiguousarray(x_ptr, dtype=np.int64)
        self.x_tile = np.ascontiguousarray(x_tile)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check every structural invariant of the layout."""
        n_tiles = ceil_div(self.n, self.nt)
        if len(self.x_ptr) != n_tiles:
            raise TileError(
                f"x_ptr length {len(self.x_ptr)} != n_tiles {n_tiles}"
            )
        nonempty = self.x_ptr[self.x_ptr >= 0]
        if len(self.x_tile) != len(nonempty) * self.nt:
            raise TileError(
                f"x_tile length {len(self.x_tile)} != nt * n_nonempty "
                f"({self.nt} * {len(nonempty)})"
            )
        if len(nonempty):
            expected = np.arange(len(nonempty))
            if not np.array_equal(np.sort(nonempty), expected):
                raise TileError(
                    "non-empty x_ptr entries must be a permutation of "
                    "0..n_nonempty-1"
                )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, x: np.ndarray, nt: int,
                   fill: float = 0.0, dtype=None) -> "TiledVector":
        """Tile a dense vector, dropping tiles that are entirely ``fill``.

        ``fill`` is the "no entry" sentinel — 0.0 for ordinary algebra,
        the additive identity of the semiring in general (e.g. ``inf``
        for min-plus).  ``dtype`` overrides the storage dtype — pass
        the semiring dtype so integer algebras (``or_and`` bitmasks)
        are not squeezed through float64 (which would corrupt values
        above 2^53 and break bitwise kernels).
        """
        x = np.asarray(x)
        if x.ndim != 1:
            raise ShapeError(f"expected 1-D vector, got ndim={x.ndim}")
        n = len(x)
        n_tiles = ceil_div(n, nt)
        if dtype is None:
            dtype = x.dtype if x.dtype.kind == "f" else np.float64
        padded = np.full(n_tiles * nt, fill, dtype=dtype)
        padded[:n] = x
        tiles = padded.reshape(n_tiles, nt)
        if np.isnan(fill):  # pragma: no cover - defensive
            nonempty_mask = np.any(~np.isnan(tiles), axis=1)
        else:
            nonempty_mask = np.any(tiles != fill, axis=1)
        x_ptr = np.full(n_tiles, -1, dtype=np.int64)
        x_ptr[nonempty_mask] = np.arange(int(nonempty_mask.sum()))
        x_tile = tiles[nonempty_mask].reshape(-1).copy()
        return cls._built(n, nt, x_ptr, x_tile, fill)

    @classmethod
    def from_sparse(cls, indices: np.ndarray, values: np.ndarray, n: int,
                    nt: int, fill: float = 0.0, dtype=None) -> "TiledVector":
        """Tile a (indices, values) sparse vector without densifying it.

        Duplicate indices are summed.  This is the conversion a GPU
        implementation performs (scatter into compact tiles), so it is
        kept allocation-proportional to the number of *non-empty tiles*,
        not to ``n``.  ``fill`` is the "no entry" sentinel used for the
        unoccupied slots of non-empty tiles.  ``dtype`` overrides the
        storage dtype (default float64) — integer semirings must pass
        their own dtype or bitmask values get folded through float64.
        """
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values)
        if dtype is None:
            dtype = np.float64
        if len(indices) != len(values):
            raise ShapeError("indices/values length mismatch")
        if len(indices) and (indices.min() < 0 or indices.max() >= n):
            raise ShapeError(f"vector index out of range for length {n}")
        n_tiles = ceil_div(n, nt)
        x_ptr = np.full(n_tiles, -1, dtype=np.int64)
        if len(indices) == 0:
            return cls._built(n, nt, x_ptr, np.zeros(0, dtype=dtype), fill)
        tile_ids = indices // nt
        unique_tiles = sorted_distinct(tile_ids)
        x_ptr[unique_tiles] = np.arange(len(unique_tiles))
        x_tile = np.full(len(unique_tiles) * nt, fill, dtype=dtype)
        compact = x_ptr[tile_ids] * nt + indices % nt
        x_tile[compact] = 0  # reset sentinel before accumulating
        np.add.at(x_tile, compact, values.astype(dtype, copy=False))
        return cls._built(n, nt, x_ptr, x_tile, fill)

    @classmethod
    def empty(cls, n: int, nt: int) -> "TiledVector":
        """An all-zero vector."""
        return cls(n, nt, np.full(ceil_div(n, nt), -1, dtype=np.int64),
                   np.zeros(0, dtype=np.float64))

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def n_tiles(self) -> int:
        """Number of tile slots (empty included)."""
        return len(self.x_ptr)

    @property
    def n_nonempty_tiles(self) -> int:
        """Number of stored tiles."""
        return int((self.x_ptr >= 0).sum())

    def _occupied_mask(self) -> np.ndarray:
        """Mask of x_tile slots holding real entries (not the sentinel)."""
        if np.isnan(self.fill):  # pragma: no cover - defensive
            return ~np.isnan(self.x_tile)
        return self.x_tile != self.fill

    @property
    def nnz(self) -> int:
        """Number of stored (non-sentinel) elements."""
        return int(self._occupied_mask().sum())

    @property
    def sparsity(self) -> float:
        """``nnz / n`` — the paper's vector-sparsity parameter."""
        return self.nnz / self.n if self.n else 0.0

    def get(self, i: int) -> float:
        """O(1) element access via the Figure-3 formula.

        Empty tiles (and sentinel slots) read back as :attr:`fill`.
        """
        if not (0 <= i < self.n):
            raise ShapeError(f"index {i} out of range for length {self.n}")
        t = self.x_ptr[i // self.nt]
        if t < 0:
            return self.fill
        return float(self.x_tile[t * self.nt + i % self.nt])

    def nonzero_tile_ids(self) -> np.ndarray:
        """Original tile positions that are stored (sorted)."""
        return np.flatnonzero(self.x_ptr >= 0)

    def support(self, semiring) -> Tuple[np.ndarray, np.ndarray]:
        """``(indices, values)`` of the slots holding a value other than
        ``semiring``'s additive identity, in ascending index order — the
        ``x`` entries a multiply matches against (cached per semiring,
        so every kernel and shard of one multiply finds it once).

        Slots of stored tiles only: an empty tile has no support.  An
        explicit identity value is not support either — a sparse slot
        holding the identity means "no entry".
        """
        cached = getattr(self, "_support", None)
        # equality, not identity: a vector pickled to a pool worker
        # arrives with its cache and an equal copy of the semiring
        if cached is not None and cached[0] == semiring:
            return cached[1]
        tiles = self.nonzero_tile_ids()
        block = self.x_tile.reshape(-1, self.nt)[self.x_ptr[tiles]]
        t, local = np.nonzero(~semiring.is_identity(block))
        found = (tiles[t] * self.nt + local, block[t, local])
        self._support = (semiring, found)
        return found

    def to_dense(self) -> np.ndarray:
        """Materialise the dense vector (empty slots hold :attr:`fill`)."""
        out = np.full(self.n_tiles * self.nt, self.fill,
                      dtype=self.x_tile.dtype if len(self.x_tile)
                      else np.float64)
        ids = self.nonzero_tile_ids()
        if len(ids):
            out.reshape(self.n_tiles, self.nt)[ids] = \
                self.x_tile.reshape(-1, self.nt)[self.x_ptr[ids]]
        return out[: self.n]

    def to_sparse(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(indices, values)`` of the stored entries, sorted."""
        ids = self.nonzero_tile_ids()
        if len(ids) == 0:
            return (np.zeros(0, dtype=np.int64),
                    np.zeros(0, dtype=np.float64))
        tiles = self.x_tile.reshape(-1, self.nt)[self.x_ptr[ids]]
        if np.isnan(self.fill):  # pragma: no cover - defensive
            local = np.nonzero(~np.isnan(tiles))
        else:
            local = np.nonzero(tiles != self.fill)
        indices = ids[local[0]] * self.nt + local[1]
        order = np.argsort(indices)
        return indices[order], tiles[local][order]

    def nbytes(self) -> int:
        """Storage footprint of the structure (x_ptr + x_tile)."""
        return self.x_ptr.nbytes + self.x_tile.nbytes

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<TiledVector n={self.n} nt={self.nt} "
                f"tiles={self.n_nonempty_tiles}/{self.n_tiles} "
                f"nnz={self.nnz}>")
