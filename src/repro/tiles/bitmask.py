"""Bitmask-compressed tiles and vectors for TileBFS (paper §3.2.3, Fig. 5).

BFS only needs the *pattern* of the adjacency matrix, so each non-empty
``nt``-by-``nt`` tile compresses to ``nt`` machine words of ``nt`` bits:

* column-compressed (**A1**, the CSC form): word ``w[c]`` holds the rows
  present in local column ``c`` — the storage of Push-CSC and Pull-CSC;
* row-compressed (**A2**, the CSR form): word ``w[r]`` holds the columns
  present in local row ``r`` — the storage of Push-CSR.

Frontier and visited-mask vectors compress the same way: one ``nt``-bit
word per vector tile (:class:`BitVector`).

Bit convention (matches the paper's Figure 5, where vector ``{1,0,0,0}``
prints as ``8`` for ``nt=4``): local index ``i`` maps to bit
``nt - 1 - i``, i.e. index 0 is the most-significant used bit.  Words
are stored in ``uint64`` regardless of ``nt``; unused high bits are
always zero (enforced by :meth:`BitVector.validate`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .._util import ceil_div, group_starts, sorted_distinct
from ..errors import ShapeError, TileError
from ..formats.coo import COOMatrix
from ..formats.csr import compress_indptr, expand_indptr
from .tiled_vector import SUPPORTED_TILE_SIZES

__all__ = ["BitVector", "BitTiledMatrix",
           "bit_positions", "pack_bits", "unpack_words",
           "bit_weight_vector", "pack_hit_words", "segmented_scatter_or",
           "pattern_is_symmetric"]

_U64 = np.uint64

#: Per-``nt`` MSB-first weight vectors, built once per process (the
#: Push-CSR seed rebuilt this on every launch).
_BIT_WEIGHTS: Dict[int, np.ndarray] = {}


def bit_weight_vector(nt: int) -> np.ndarray:
    """The ``nt`` single-bit words of local indices ``0..nt-1``
    (MSB-first), cached per tile size.

    ``word = (hits * bit_weight_vector(nt)).sum()`` packs a boolean row
    into the bitmask convention of this module.
    """
    w = _BIT_WEIGHTS.get(nt)
    if w is None:
        w = _U64(1) << (_U64(nt - 1) - np.arange(nt, dtype=_U64))
        w.setflags(write=False)
        _BIT_WEIGHTS[nt] = w
    return w


def pack_hit_words(hits: np.ndarray, nt: int) -> np.ndarray:
    """Pack boolean rows ``(k, nt)`` into ``uint64`` bitmask words
    (column ``i`` becomes local index ``i``, MSB-first — the inverse of
    :func:`unpack_words`).

    Equivalent to ``(hits.astype(uint64) * bit_weight_vector(nt))
    .sum(axis=1)`` but routed through ``np.packbits``, which touches one
    byte per 8 lanes instead of an 8-byte product per lane.
    """
    k = len(hits)
    if k == 0:
        return np.zeros(0, dtype=_U64)
    if nt == 64:
        padded = np.ascontiguousarray(hits, dtype=bool)
    else:
        padded = np.zeros((k, 64), dtype=bool)
        padded[:, 64 - nt:] = hits
    packed = np.packbits(padded, axis=1)          # (k, 8) bytes, MSB-first
    return packed.view(">u8").ravel().astype(_U64)


def segmented_scatter_or(out: np.ndarray, idx: np.ndarray,
                         words: np.ndarray) -> None:
    """``out[idx] |= words`` with duplicate indices.

    When ``idx`` is already non-decreasing — gathers that walk tiles in
    storage order arrive sorted — equal destinations form runs, and one
    ``np.bitwise_or.reduceat`` over the run starts plus a duplicate-free
    scatter replaces the per-element merge, about 2.5x faster than
    ``np.bitwise_or.at`` on the same input.  Unsorted destinations fall
    back to ``np.bitwise_or.at`` directly: sorting them first costs more
    than NumPy's indexed-loop scatter resolves (a stable 32-bit argsort
    is timsort, ~10x the scatter itself on random keys).  OR is
    commutative and idempotent, so both routes are identical bit for
    bit.
    """
    if len(idx) == 0:
        return
    if len(idx) > 128 and np.all(idx[1:] >= idx[:-1]):
        starts = group_starts(idx)
        out[idx[starts]] |= np.bitwise_or.reduceat(words, starts)
    else:
        np.bitwise_or.at(out, idx, words)


def bit_positions(local: np.ndarray, nt: int) -> np.ndarray:
    """Map local indices to their single-bit words (MSB-first)."""
    return (_U64(1) << (_U64(nt - 1) - local.astype(_U64)))


def pack_bits(local: np.ndarray, nt: int) -> np.uint64:
    """OR together the bits of several local indices into one word."""
    if len(local) == 0:
        return _U64(0)
    return np.bitwise_or.reduce(bit_positions(local, nt))


def unpack_words(words: np.ndarray, nt: int) -> np.ndarray:
    """Expand ``uint64`` words into a ``(len(words), nt)`` 0/1 byte array
    whose column ``i`` is local index ``i`` (undoing the MSB-first
    packing)."""
    be = np.ascontiguousarray(words, dtype=_U64).byteswap().view(np.uint8)
    bits = np.unpackbits(be.reshape(len(words), 8), axis=1)
    return bits[:, 64 - nt:]


class BitVector:
    """A tiled bitmask vector: one ``nt``-bit word per vector tile.

    Used for the BFS frontier ``x``, the visited mask ``m``, and the
    kernel outputs ``y`` (paper Fig. 5).  All per-word operations are
    plain NumPy bitwise ops over the :attr:`words` array.
    """

    def __init__(self, n: int, nt: int, words: np.ndarray):
        if nt not in SUPPORTED_TILE_SIZES:
            raise TileError(
                f"unsupported tile size {nt}; allowed: {SUPPORTED_TILE_SIZES}"
            )
        if n < 0:
            raise ShapeError(f"negative vector length {n}")
        self.n = int(n)
        self.nt = int(nt)
        self.words = np.ascontiguousarray(words, dtype=_U64)
        self.validate()

    # ------------------------------------------------------------------
    def validate(self) -> None:
        n_tiles = ceil_div(self.n, self.nt)
        if len(self.words) != n_tiles:
            raise TileError(
                f"words length {len(self.words)} != n_tiles {n_tiles}"
            )
        if int(self.n) % self.nt and n_tiles:
            tail_used = self.n % self.nt
            tail_mask = self._high_mask(tail_used)
            if self.words[-1] & ~tail_mask:
                raise TileError("bits set beyond vector length in tail tile")
        if self.nt < 64 and len(self.words):
            full = self._high_mask(self.nt)
            if np.any(self.words & ~full):
                raise TileError(f"bits set above the {self.nt} used bits")

    def _high_mask(self, k: int) -> np.uint64:
        """Word with the top ``k`` *used* bits set (used bits are the low
        ``nt`` bits of the uint64; within them, MSB-first)."""
        if k <= 0:
            return _U64(0)
        ones = _U64(0xFFFFFFFFFFFFFFFF) >> _U64(64 - k)
        return ones << _U64(self.nt - k)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, n: int, nt: int) -> "BitVector":
        return cls(n, nt, np.zeros(ceil_div(n, nt), dtype=_U64))

    @classmethod
    def from_indices(cls, indices: np.ndarray, n: int, nt: int) -> "BitVector":
        """Set the bits of the given global indices."""
        v = cls.zeros(n, nt)
        v.set_indices(indices)
        return v

    @classmethod
    def full(cls, n: int, nt: int) -> "BitVector":
        """All ``n`` bits set (tail bits beyond ``n`` stay clear)."""
        v = cls.zeros(n, nt)
        if len(v.words):
            v.words[:] = v._high_mask(nt)
            tail_used = n % nt
            if tail_used:
                v.words[-1] = v._high_mask(tail_used)
        return v

    # ------------------------------------------------------------------
    # Mutators / queries
    # ------------------------------------------------------------------
    def set_indices(self, indices: np.ndarray) -> None:
        """OR the bits of the given global indices into the vector.

        The merge runs through :func:`segmented_scatter_or`, which takes
        the ``reduceat`` fast path when the indices arrive sorted (as
        BFS frontier batches do); the result is identical either way.
        """
        indices = np.asarray(indices, dtype=np.int64)
        if len(indices) == 0:
            return
        if indices.min() < 0 or indices.max() >= self.n:
            raise ShapeError(f"bit index out of range for length {self.n}")
        word_idx = indices // self.nt
        bits = bit_positions(indices % self.nt, self.nt)
        segmented_scatter_or(self.words, word_idx, bits)

    def clear(self) -> None:
        """Zero every bit in place (workspace reuse between BFS layers)."""
        self.words[:] = _U64(0)

    def count(self) -> int:
        """Population count (number of set bits)."""
        return int(np.bitwise_count(self.words).sum())

    def any(self) -> bool:
        return bool(np.any(self.words))

    def to_indices(self) -> np.ndarray:
        """Sorted global indices of the set bits."""
        nz_tiles = np.flatnonzero(self.words)
        if len(nz_tiles) == 0:
            return np.zeros(0, dtype=np.int64)
        bits = unpack_words(self.words[nz_tiles], self.nt)
        t, local = np.nonzero(bits)
        return nz_tiles[t] * self.nt + local

    def get(self, i: int) -> bool:
        """Test global bit ``i``."""
        if not (0 <= i < self.n):
            raise ShapeError(f"index {i} out of range for length {self.n}")
        w = self.words[i // self.nt]
        return bool(w & bit_positions(np.array([i % self.nt]), self.nt)[0])

    def nonzero_tile_ids(self) -> np.ndarray:
        """Tiles with at least one set bit."""
        return np.flatnonzero(self.words)

    @property
    def density(self) -> float:
        """Set-bit fraction — the paper's frontier-sparsity parameter."""
        return self.count() / self.n if self.n else 0.0

    # ------------------------------------------------------------------
    # Word-wise algebra (returns new vectors)
    # ------------------------------------------------------------------
    def copy(self) -> "BitVector":
        return BitVector(self.n, self.nt, self.words.copy())

    def __or__(self, other: "BitVector") -> "BitVector":
        self._check_compatible(other)
        return BitVector(self.n, self.nt, self.words | other.words)

    def __ior__(self, other: "BitVector") -> "BitVector":
        """In-place OR — the allocation-free ``m |= y`` of the BFS loop."""
        self._check_compatible(other)
        self.words |= other.words
        return self

    def __and__(self, other: "BitVector") -> "BitVector":
        self._check_compatible(other)
        return BitVector(self.n, self.nt, self.words & other.words)

    def andnot(self, other: "BitVector") -> "BitVector":
        """``self & ~other`` — the "new vertices only" filter of BFS."""
        self._check_compatible(other)
        return BitVector(self.n, self.nt, self.words & ~other.words)

    def invert(self) -> "BitVector":
        """Complement within the ``n`` valid bits (tail stays clear)."""
        out = BitVector.full(self.n, self.nt)
        out.words &= ~self.words
        return out

    def _check_compatible(self, other: "BitVector") -> None:
        if self.n != other.n or self.nt != other.nt:
            raise ShapeError(
                f"BitVector mismatch: ({self.n},{self.nt}) vs "
                f"({other.n},{other.nt})"
            )

    def nbytes(self) -> int:
        """Footprint of the word array, at the native word width the
        paper would use (uint32 for nt<=32, uint64 for nt=64)."""
        word_bytes = 4 if self.nt <= 32 else 8
        return len(self.words) * word_bytes

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<BitVector n={self.n} nt={self.nt} popcount={self.count()}>"


class BitTiledMatrix:
    """Bitmask-compressed tiled adjacency matrix (A1/A2 of Fig. 5).

    Parameters
    ----------
    orientation:
        ``"csc"`` — tiles indexed by tile *column* (CSC-of-tiles), each
        stored tile holding one word per local column whose bits are the
        local rows (the A1 form, used by Push-CSC / Pull-CSC);
        ``"csr"`` — tiles indexed by tile *row*, one word per local row,
        bits are local columns (the A2 form, used by Push-CSR).
    """

    def __init__(self, shape: Tuple[int, int], nt: int, orientation: str,
                 tile_ptr: np.ndarray, tile_otheridx: np.ndarray,
                 words: np.ndarray):
        if nt not in SUPPORTED_TILE_SIZES:
            raise TileError(
                f"unsupported tile size {nt}; allowed: {SUPPORTED_TILE_SIZES}"
            )
        if orientation not in ("csc", "csr"):
            raise TileError(f"orientation must be 'csc' or 'csr', "
                            f"got {orientation!r}")
        self.shape = (int(shape[0]), int(shape[1]))
        self.nt = int(nt)
        self.orientation = orientation
        self.tile_ptr = np.ascontiguousarray(tile_ptr, dtype=np.int64)
        self.tile_otheridx = np.ascontiguousarray(tile_otheridx,
                                                  dtype=np.int64)
        self.words = np.ascontiguousarray(words, dtype=_U64)
        self.validate()

    # ------------------------------------------------------------------
    @property
    def n_tile_rows(self) -> int:
        return ceil_div(self.shape[0], self.nt)

    @property
    def n_tile_cols(self) -> int:
        return ceil_div(self.shape[1], self.nt)

    @property
    def n_nonempty_tiles(self) -> int:
        return len(self.tile_otheridx)

    @property
    def n_major(self) -> int:
        """Length of the tile_ptr axis (tile cols for csc, rows for csr)."""
        return self.n_tile_cols if self.orientation == "csc" else \
            self.n_tile_rows

    @property
    def n_minor(self) -> int:
        return self.n_tile_rows if self.orientation == "csc" else \
            self.n_tile_cols

    def validate(self) -> None:
        if len(self.tile_ptr) != self.n_major + 1:
            raise TileError("tile_ptr length != n_major + 1")
        if self.tile_ptr[0] != 0 or np.any(np.diff(self.tile_ptr) < 0):
            raise TileError("tile_ptr must start at 0 and be non-decreasing")
        if self.tile_ptr[-1] != len(self.tile_otheridx):
            raise TileError("tile_ptr[-1] != number of stored tiles")
        if len(self.tile_otheridx) and (
                self.tile_otheridx.min() < 0
                or self.tile_otheridx.max() >= self.n_minor):
            raise TileError("tile minor index out of range")
        if self.words.shape != (len(self.tile_otheridx), self.nt):
            raise TileError(
                f"words shape {self.words.shape} != "
                f"({len(self.tile_otheridx)}, {self.nt})"
            )
        if self.nt < 64 and self.words.size:
            used = _U64(0xFFFFFFFFFFFFFFFF) >> _U64(64 - self.nt)
            if np.any(self.words & ~used):
                raise TileError("bits set above the used word width")

    # ------------------------------------------------------------------
    @classmethod
    def from_coo(cls, coo: COOMatrix, nt: int,
                 orientation: str) -> "BitTiledMatrix":
        """Compress a pattern (values ignored) into bitmask tiles.

        Any entry order is accepted and duplicates need no summing: the
        stable tile-key sort groups the entries and the words are ORed
        together, which is idempotent.
        """
        if orientation not in ("csc", "csr"):
            raise TileError(f"orientation must be 'csc' or 'csr', "
                            f"got {orientation!r}")
        m, n = coo.shape
        trow, tcol = coo.row // nt, coo.col // nt
        lrow = (coo.row % nt).astype(np.int64)
        lcol = (coo.col % nt).astype(np.int64)
        if orientation == "csc":
            major, minor = tcol, trow
            word_of, bit_of = lcol, lrow
            n_major = ceil_div(n, nt)
        else:
            major, minor = trow, tcol
            word_of, bit_of = lrow, lcol
            n_major = ceil_div(m, nt)

        n_minor_tiles = ceil_div(m if orientation == "csc" else n, nt)
        key = major * n_minor_tiles + minor
        order = np.argsort(key, kind="stable")
        key_s = key[order]
        starts = group_starts(key_s)
        n_tiles = len(starts)
        tile_major = major[order][starts] if n_tiles else \
            np.zeros(0, dtype=np.int64)
        tile_minor = minor[order][starts] if n_tiles else \
            np.zeros(0, dtype=np.int64)
        tile_ptr = compress_indptr(tile_major, n_major)

        words = np.zeros((n_tiles, nt), dtype=_U64)
        if coo.nnz:
            counts = np.diff(np.concatenate([starts, [len(key_s)]]))
            tile_of_entry = np.repeat(np.arange(n_tiles), counts)
            flat = tile_of_entry * nt + word_of[order]
            np.bitwise_or.at(words.reshape(-1), flat,
                             bit_positions(bit_of[order], nt))
        return cls((m, n), nt, orientation, tile_ptr, tile_minor, words)

    # ------------------------------------------------------------------
    def tile_majoridx(self) -> np.ndarray:
        """Major tile index (tile col for csc / tile row for csr) of each
        stored tile (cached — the seed Push-CSR re-expanded ``tile_ptr``
        on every launch)."""
        cached = getattr(self, "_tile_majoridx", None)
        if cached is None:
            cached = expand_indptr(self.tile_ptr)
            self._tile_majoridx = cached
        return cached

    def column_view(self) -> "BitTiledMatrix":
        """The column-compressed (csc) tiling of the same pattern
        (cached).  The active-tile Push-CSR host execution walks tiles
        by *tile column* — the grouping csc storage already has — so the
        BFS plan attaches its A1 here via :meth:`attach_column_view` and
        Push-CSR gathers exactly the tiles under non-zero frontier
        words.  Without an attached sibling the view is rebuilt from the
        pattern (plan-time cost, amortised across launches)."""
        if self.orientation == "csc":
            return self
        cached = getattr(self, "_column_view", None)
        if cached is None:
            cached = BitTiledMatrix.from_coo(self.to_coo(), self.nt,
                                             orientation="csc")
            self._column_view = cached
        return cached

    def attach_column_view(self, csc: "BitTiledMatrix") -> None:
        """Register an already-built csc tiling of the same pattern as
        this matrix's :meth:`column_view` (the BFS plan holds both A1
        and A2, so Push-CSR can reuse A1 instead of re-tiling)."""
        if csc.orientation != "csc":
            raise TileError("column view must be csc-oriented")
        if csc.shape != self.shape or csc.nt != self.nt:
            raise ShapeError(
                f"column view mismatch: {csc.shape}/nt={csc.nt} vs "
                f"{self.shape}/nt={self.nt}"
            )
        self._column_view = csc

    def row_warp_count(self) -> float:
        """Warps launched by the matrix-driven kernel: one per 32 stored
        tiles of each major slot, at least one per occupied slot
        (cached — a per-matrix constant the seed recomputed per
        launch)."""
        cached = getattr(self, "_row_warp_count", None)
        if cached is None:
            tiles_per_major = np.diff(self.tile_ptr)
            cached = float((np.ceil(tiles_per_major / 32.0)).sum())
            self._row_warp_count = cached
        return cached

    def full_mask_words(self) -> np.ndarray:
        """The all-ones word template for vectors of length ``shape[0]``
        (read-only, cached): ``full_mask_words() & ~m.words`` is the
        Pull-CSC unvisited computation without the per-launch
        ``BitVector.full`` scratch the seed allocated."""
        cached = getattr(self, "_full_mask_words", None)
        if cached is None:
            cached = BitVector.full(self.shape[0], self.nt).words
            cached.setflags(write=False)
            self._full_mask_words = cached
        return cached

    def tiles_of_major(self, j: int) -> np.ndarray:
        """Stored-tile indices in major slot ``j``."""
        return np.arange(self.tile_ptr[j], self.tile_ptr[j + 1])

    def to_coo(self) -> COOMatrix:
        """Expand back to the (pattern) COO matrix with unit values."""
        nt = self.nt
        if self.n_nonempty_tiles == 0:
            return COOMatrix.empty(self.shape)
        bits = unpack_words(self.words.reshape(-1), nt)
        tile_flat, bitpos = np.nonzero(bits.reshape(
            self.n_nonempty_tiles, nt, nt).reshape(-1, nt))
        tile = tile_flat // nt
        word = tile_flat % nt
        majors = self.tile_majoridx()[tile]
        minors = self.tile_otheridx[tile]
        if self.orientation == "csc":
            cols = majors * nt + word
            rows = minors * nt + bitpos
        else:
            rows = majors * nt + word
            cols = minors * nt + bitpos
        return COOMatrix(self.shape, rows, cols,
                         np.ones(len(rows), dtype=np.float64))

    def as_reinterpreted(self, orientation: str) -> "BitTiledMatrix":
        """Zero-copy reinterpretation with the opposite orientation.

        For a *symmetric* pattern, the column-compressed (A1) and
        row-compressed (A2) forms hold byte-identical arrays (paper
        §3.2.3: "when the graph is an undirected graph, these two
        compression methods will obtain same arrays, which can save
        about half of the storage space"): word ``j`` of tile ``(R, C)``
        in one form equals word ``j`` of tile ``(C, R)`` in the other.
        This method shares the underlying arrays instead of rebuilding
        them.  The caller must guarantee symmetry — reinterpreting an
        asymmetric matrix silently describes its transpose (use
        :func:`pattern_is_symmetric`).
        """
        if orientation not in ("csc", "csr"):
            raise TileError(f"orientation must be 'csc' or 'csr', "
                            f"got {orientation!r}")
        return BitTiledMatrix((self.shape[1], self.shape[0]), self.nt,
                              orientation, self.tile_ptr,
                              self.tile_otheridx, self.words)

    def shares_storage_with(self, other: "BitTiledMatrix") -> bool:
        """True when the two objects alias the same word array."""
        return self.words is other.words

    def nbytes(self) -> int:
        """Footprint at the native word width (uint32/uint64)."""
        word_bytes = 4 if self.nt <= 32 else 8
        return int(self.tile_ptr.nbytes + self.tile_otheridx.nbytes
                   + self.words.shape[0] * self.nt * word_bytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<BitTiledMatrix {self.shape} nt={self.nt} "
                f"{self.orientation} tiles={self.n_nonempty_tiles}>")


def pattern_is_symmetric(coo: COOMatrix) -> bool:
    """True when the nonzero *pattern* of a square matrix is symmetric.

    The check TileBFS uses to decide whether the A1/A2 bitmask pair can
    share storage (§3.2.3).  O(nnz log nnz) (two sorts), values ignored.
    """
    if coo.shape[0] != coo.shape[1]:
        return False
    n = coo.shape[1]
    fwd = sorted_distinct(coo.row * n + coo.col)
    bwd = sorted_distinct(coo.col * n + coo.row)
    return len(fwd) == len(bwd) and bool(np.array_equal(fwd, bwd))
