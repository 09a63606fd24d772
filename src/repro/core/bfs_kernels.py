"""The three directional-optimization BFS kernels (paper §3.4, Fig. 5).

All three operate on bitmask-compressed tiles over the OR-AND semiring
("the AND operation represents multiplication, and the OR operation
represents addition"), and all three return only *new* vertices:
``y = (A ⊗ x) & ~m`` — the ``sum = (NOT (mask AND sum_x)) AND sum_x``
line shared by Algorithms 5-7.

* :func:`push_csc_kernel` (K1, Alg. 5) — vector-driven over the
  column-compressed tiles (A1): each frontier bit selects one local
  column word of every stored tile in its tile column and ORs it into
  the result row tile atomically.  Cheap when the frontier is tiny.
* :func:`push_csr_kernel` (K2, Alg. 6) — matrix-driven over the
  row-compressed tiles (A2): a warp per row tile ANDs each local row
  word with the frontier word of the tile's column; only tiles whose
  frontier tile is non-empty are touched.  Wins on denser frontiers
  because its accesses stream.
* :func:`pull_csc_kernel` (K3, Alg. 7) — pull from the unvisited side:
  each unvisited vertex scans its column in A1 against the visited
  mask and stops at the first visited parent (the early-exit
  ``x_id = -1`` of Alg. 7, which the counters honour).

Each kernel returns ``(y, counters)`` where ``y`` is the
:class:`~repro.tiles.bitmask.BitVector` of newly found vertices; pass
``out=`` to reuse a workspace vector instead of allocating.  The
TileBFS layer loop runs the result-only fused kernels of
:mod:`repro.fastpath` and calls these only for a layer's counters.

Active-tile execution
---------------------
The modeled counters always priced only the *active* side of each
direction — that is the paper's §3.4 claim — but the seed host
execution still paid O(everything) per layer: Push-CSR gathered a
frontier word for every stored tile and Pull-CSC expanded every
unvisited vertex's tile range through ``np.repeat``.  The kernels now
run on plan-time gather structures cached on
:class:`~repro.tiles.bitmask.BitTiledMatrix` (and warmed through the
operator plan's lazy slots):

* Push-CSC walks only the frontier vertices' tile columns and replaces
  the ``bitwise_or.at`` scatter with the sort + ``reduceat`` fast path
  of :func:`~repro.tiles.bitmask.segmented_scatter_or`;
* Push-CSR walks the plan-attached column view (the csc tiling, i.e.
  the BFS plan's A1) and gathers one stored word per *(frontier bit,
  tile)* pair — cost proportional to the frontier's set bits, not to
  the stored tiles (a chunked streaming sweep takes over near-dense
  frontiers);
* Pull-CSC operates at *word* granularity over ``~m``: one masked AND
  per stored tile of an unvisited column, packed back to words by
  :func:`~repro.tiles.bitmask.pack_hit_words`, with a vertex-level
  regime for unvisited sets too scattered for word batching.

Every regime selects the same logical work, so results **and**
counters are byte-identical to the preserved seed oracles in
:mod:`repro.core.reference_bfs_kernels` — the BFS kernel-equivalence
tests enforce this, keeping all simulated-ms figures and Fig. 10
traces unchanged while host wall-clock drops.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .._util import concat_ranges, gather_ranges
from ..errors import ShapeError
from ..gpusim import KernelCounters
from ..tiles.bitmask import (BitTiledMatrix, BitVector, pack_hit_words,
                             segmented_scatter_or, unpack_words)

__all__ = ["push_csc_kernel", "push_csr_kernel", "pull_csc_kernel",
           "expand_vertex_tiles"]

_U64 = np.uint64

#: Push-CSR regime switch: the bit-gather path touches one stored word
#: per (frontier bit, column tile) pair while the sweep ANDs all
#: ``n_tiles * nt`` stored words; gathered elements cost about this
#: factor more each (fancy indexing vs streaming), so gather wins while
#: ``BIT_GATHER_FACTOR * n_bits <= n_tiles * nt``.  The rule prices the
#: *uncompressed* sweep this kernel (and the numba tier's
#: ``push_sweep``) streams; the fused NumPy tier streams a compressed
#: sweep of the non-zero words only and always sweeps
#: (:func:`repro.fastpath.fused_layers.fused_push_csr`).
BIT_GATHER_FACTOR = 3

#: Stored tiles per chunk of the Push-CSR streaming sweep — bounds the
#: AND/pack intermediates to a few MB so they stay cache-resident
#: instead of materialising an O(n_tiles * nt) array per launch.
_SWEEP_CHUNK = 32768

#: Pull-CSC regime switch: word-level traversal ANDs ``nt`` lanes per
#: stored tile of an unvisited column, vertex-level expansion pays per
#: (vertex, tile) pair; word level wins once the per-pair total exceeds
#: the per-tile total by this factor.
PULL_WORD_COST_FACTOR = 2


def _check_operands(A: BitTiledMatrix, x: BitVector, m: BitVector,
                    orientation: str, kernel: str) -> None:
    if A.orientation != orientation:
        raise ShapeError(
            f"{kernel} requires the {orientation!r}-compressed matrix, "
            f"got {A.orientation!r}"
        )
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"BFS requires a square matrix, got {A.shape}")
    if x.n != A.shape[1] or m.n != A.shape[0]:
        raise ShapeError(
            f"vector length mismatch: A is {A.shape}, x has {x.n}, "
            f"m has {m.n}"
        )
    if x.nt != A.nt or m.nt != A.nt:
        raise ShapeError(
            f"tile size mismatch: A nt={A.nt}, x nt={x.nt}, m nt={m.nt}"
        )


def _result_vector(n: int, nt: int, out: Optional[BitVector]) -> BitVector:
    """A zeroed result vector: ``out`` cleared in place, or a fresh one."""
    if out is None:
        return BitVector.zeros(n, nt)
    if out.n != n or out.nt != nt:
        raise ShapeError(
            f"workspace mismatch: need ({n},{nt}), got ({out.n},{out.nt})"
        )
    out.clear()
    return out


def expand_vertex_tiles(A1: BitTiledMatrix, vertices: np.ndarray
                        ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-vertex tile expansion over the column-compressed tiles.

    For each global vertex ``j`` (a frontier bit in Push-CSC, an
    unvisited bit in vertex-level Pull-CSC), name the stored tiles of
    its tile column and its local column within them.

    Returns ``(lengths, gathered, local_col)`` where ``lengths[v]`` is
    the stored-tile count of vertex ``v``'s column, ``gathered`` the
    concatenated stored-tile indices (``lengths[v]`` entries per
    vertex, column order), and ``local_col`` the vertex's within-tile
    column repeated alongside.
    """
    nt = A1.nt
    jt = vertices // nt
    lengths = A1.tile_ptr[jt + 1] - A1.tile_ptr[jt]
    gathered = concat_ranges(A1.tile_ptr[jt], lengths)
    local_col = np.repeat(vertices % nt, lengths)
    return lengths, gathered, local_col


def push_csc_kernel(A1: BitTiledMatrix, x: BitVector, m: BitVector,
                    out: Optional[BitVector] = None
                    ) -> Tuple[BitVector, KernelCounters]:
    """K1 — warp-level Push-CSC (paper Algorithm 5).

    Vector-driven: every set bit of ``x`` (a frontier vertex ``j``)
    walks the stored tiles of tile column ``j // nt`` and ORs the local
    column word ``A1.words[t, j % nt]`` (its out-neighbours inside that
    row tile) into the result, masked by the visited set.  Host cost is
    proportional to the frontier's tiles; the merge runs through the
    segmented-reduce scatter instead of ``bitwise_or.at``.
    """
    _check_operands(A1, x, m, "csc", "push_csc")
    nt = A1.nt
    y = _result_vector(x.n, nt, out)
    counters = KernelCounters(launches=1)

    frontier = x.to_indices()
    counters.coalesced_read_bytes += len(x.words) * 8.0  # scan frontier words
    if len(frontier) == 0:
        counters.warps = 1.0
        return y, counters

    lengths, gathered, lc_rep = expand_vertex_tiles(A1, frontier)

    if len(gathered):
        col_words = A1.words[gathered, lc_rep]
        row_tiles = A1.tile_otheridx[gathered]
        new_words = col_words & ~m.words[row_tiles]
        segmented_scatter_or(y.words, row_tiles, new_words)

    n_gathered = float(len(gathered))
    # per frontier vertex: tile_ptr lookup (L2) ...
    counters.l2_read_bytes += len(frontier) * 16.0
    # ... then per touched tile: one word (scattered), the mask word
    # (scattered, often L2-hot), one atomicOr into y.
    counters.random_read_count += n_gathered        # A1 word
    counters.l2_read_bytes += n_gathered * 8.0      # mask word
    counters.word_ops += n_gathered * 3.0           # and/not/or
    counters.atomic_ops += 2.0 * n_gathered         # y and flag (Alg.5 l.5-6)
    counters.random_write_count += n_gathered
    counters.warps = max(1.0, len(frontier) / 32.0 + n_gathered / 32.0)
    counters.divergence = 1.0  # lanes process independent tiles
    counters.check()
    return y, counters


def push_csr_kernel(A2: BitTiledMatrix, x: BitVector, m: BitVector,
                    out: Optional[BitVector] = None
                    ) -> Tuple[BitVector, KernelCounters]:
    """K2 — warp-level Push-CSR (paper Algorithm 6).

    Matrix-driven: one warp per row tile streams its stored tiles; a
    tile is processed only when the frontier word of its tile column is
    non-empty (Alg. 6 line 3's ``continue``).  The host mirrors that
    skip through the plan-attached :meth:`column view
    <repro.tiles.bitmask.BitTiledMatrix.column_view>` (the csc tiling —
    the BFS plan's A1): OR-ing a tile's column words selected by the
    frontier bits equals testing its row words against the frontier
    word, so the host gathers one stored word per *(frontier bit,
    column tile)* pair and never touches inactive tiles.  Near-dense
    frontiers switch to a chunked streaming sweep of the row-tile
    storage, which beats gathering almost everything.

    The counters are analytic in ``n_active`` (stored tiles in active
    columns) and match the modeled GPU of the seed exactly; the host
    execution strategy never enters them.
    """
    _check_operands(A2, x, m, "csr", "push_csr")
    nt = A2.nt
    y = _result_vector(x.n, nt, out)
    counters = KernelCounters(launches=1)

    n_tiles = A2.n_nonempty_tiles
    if n_tiles == 0:
        counters.warps = 1.0
        return y, counters

    # all stored tiles read their metadata + frontier word (the modeled
    # GPU streams the whole row-tile structure regardless of activity)
    counters.coalesced_read_bytes += n_tiles * 16.0
    counters.l2_read_bytes += n_tiles * 8.0

    cols = np.flatnonzero(x.words)
    A1v = A2.column_view()
    counts = A1v.tile_ptr[cols + 1] - A1v.tile_ptr[cols]
    n_active = int(counts.sum())

    if n_active:
        xw_cols = x.words[cols]
        bits_per_col = np.bitwise_count(xw_cols).astype(np.int64)
        n_bits = int((counts * bits_per_col).sum())
        if BIT_GATHER_FACTOR * n_bits <= n_tiles * nt:
            _push_csr_bit_gather(A1v, xw_cols, cols, counts,
                                 bits_per_col, y)
        else:
            _push_csr_sweep(A2, x, y)
        # (A | B) & ~m == (A & ~m) | (B & ~m): one mask pass at the end
        y.words &= ~m.words

        counters.coalesced_read_bytes += n_active * nt * 8.0  # tile words
        counters.word_ops += n_active * nt * 2.0              # and + test
        counters.l2_read_bytes += n_active * 8.0              # mask word
        counters.atomic_ops += 2.0 * n_active
        counters.random_write_count += float(n_active)

    # one warp per row tile (long row tiles are split across warps for
    # load balance — §3.4 —, modelled as extra warps, no extra work)
    counters.warps = A2.row_warp_count()
    counters.divergence = max(1.0 / 32.0,
                              min(1.0, n_active / max(1, n_tiles)))
    counters.check()
    return y, counters


def _push_csr_bit_gather(A1v: BitTiledMatrix, xw_cols: np.ndarray,
                         cols: np.ndarray, counts: np.ndarray,
                         bits_per_col: np.ndarray, y: BitVector) -> None:
    """Frontier-proportional Push-CSR execution over the column view.

    For each active tile column and each stored tile in it, OR the
    column words selected by the frontier's set bits straight into the
    tile's result row — one gathered word per (frontier bit, tile)
    pair.  ``y`` accumulates unmasked; the caller applies ``~m`` once.
    """
    tiles_in_cols = gather_ranges(A1v.tile_ptr, cols)
    row_tiles = A1v.tile_otheridx[tiles_in_cols]
    # bits of each (column, tile) pair form one reduce segment
    bc_rep = np.repeat(bits_per_col, counts)
    seg_starts = np.zeros(len(tiles_in_cols), dtype=np.int64)
    np.cumsum(bc_rep[:-1], out=seg_starts[1:])
    n_bits = int(bc_rep.sum())

    # set bits of each frontier word, grouped per active column,
    # ascending local index (= local column in the csc view)
    _, local_bits = np.nonzero(unpack_words(xw_cols, A1v.nt))
    bit_start = np.zeros(len(cols), dtype=np.int64)
    np.cumsum(bits_per_col[:-1], out=bit_start[1:])

    pos = np.arange(n_bits, dtype=np.int64) - np.repeat(seg_starts, bc_rep)
    bit_idx = np.repeat(np.repeat(bit_start, counts), bc_rep) + pos
    words_el = A1v.words[np.repeat(tiles_in_cols, bc_rep),
                         local_bits[bit_idx]]
    tile_or = np.bitwise_or.reduceat(words_el, seg_starts)
    segmented_scatter_or(y.words, row_tiles, tile_or)


def _push_csr_sweep(A2: BitTiledMatrix, x: BitVector,
                    y: BitVector) -> None:
    """Near-dense-frontier Push-CSR execution: stream the row-tile
    storage in order, AND each stored tile's row words with its
    column's frontier word, and pack the hit rows back to result words.

    Chunked so the intermediates stay cache-resident; inactive tiles
    produce zero words, which the OR merge ignores.  ``y`` accumulates
    unmasked; the caller applies ``~m`` once.
    """
    nt = A2.nt
    n_tiles = A2.n_nonempty_tiles
    xw = x.words[A2.tile_otheridx]          # frontier word per stored tile
    out_words = np.empty(n_tiles, dtype=_U64)
    and_buf = np.empty((min(_SWEEP_CHUNK, n_tiles), nt), dtype=_U64)
    hit_buf = np.empty_like(and_buf, dtype=bool)
    for s in range(0, n_tiles, _SWEEP_CHUNK):
        e = min(s + _SWEEP_CHUNK, n_tiles)
        k = e - s
        np.bitwise_and(A2.words[s:e], xw[s:e, None], out=and_buf[:k])
        np.not_equal(and_buf[:k], 0, out=hit_buf[:k])
        out_words[s:e] = pack_hit_words(hit_buf[:k], nt)
    # tile_majoridx is ascending for csr storage, so the scatter takes
    # the segmented-reduce fast path
    segmented_scatter_or(y.words, A2.tile_majoridx(), out_words)


def pull_csc_kernel(A1: BitTiledMatrix, x: BitVector, m: BitVector,
                    out: Optional[BitVector] = None
                    ) -> Tuple[BitVector, KernelCounters]:
    """K3 — warp-level Pull-CSC (paper Algorithm 7).

    Pull from the unvisited side: each *unvisited* vertex (a set bit of
    ``~m``; ``x`` is ignored except for validation, matching the
    paper's "the vector x3 can be obtained by bitwise inversion of
    m3") checks the stored tiles of its own column against the visited
    mask and claims itself as soon as any visited parent appears — the
    early exit of Alg. 7 lines 7-11, which the counters honour by only
    charging tiles scanned up to the first hit.

    Host execution walks only the *unvisited* tile columns.  When the
    unvisited set is dense within its columns, the whole column is
    resolved at word granularity (one masked AND per stored tile, all
    ``nt`` vertices at once); a scattered unvisited set falls back to
    per-vertex expansion.  Both regimes charge the seed's exact
    early-exit counter.
    """
    _check_operands(A1, x, m, "csc", "pull_csc")
    nt = A1.nt
    y = _result_vector(m.n, nt, out)
    counters = KernelCounters(launches=1)

    inv_words = A1.full_mask_words() & ~m.words
    counters.coalesced_read_bytes += len(m.words) * 8.0  # scan mask words
    n_unvisited = int(np.bitwise_count(inv_words).sum())
    if n_unvisited == 0:
        counters.warps = 1.0
        return y, counters

    cols = np.flatnonzero(inv_words)
    counts = A1.tile_ptr[cols + 1] - A1.tile_ptr[cols]
    unvisited_per_col = np.bitwise_count(inv_words[cols]).astype(np.int64)
    # the seed expanded every (unvisited vertex, column tile) pair
    n_gathered = int((counts * unvisited_per_col).sum())

    if n_gathered:
        n_col_tiles = int(counts.sum())
        if n_col_tiles * nt <= PULL_WORD_COST_FACTOR * n_gathered:
            found, scanned = _pull_word_level(A1, m, y, inv_words,
                                              cols, counts)
        else:
            found, scanned = _pull_vertex_level(A1, m, y, inv_words)
        counters.random_read_count += float(scanned)   # A1 words
        counters.l2_read_bytes += float(scanned) * 8.0  # mask words
        counters.word_ops += float(scanned) * 3.0
        counters.atomic_ops += float(found)             # flag OR (Alg.7 l.9)
        counters.random_write_count += float(found)

    counters.l2_read_bytes += n_unvisited * 16.0     # tile_ptr lookups
    counters.warps = max(1.0, n_unvisited / 32.0)
    counters.check()
    return y, counters


def _pull_word_level(A1: BitTiledMatrix, m: BitVector, y: BitVector,
                     inv_words: np.ndarray, cols: np.ndarray,
                     counts: np.ndarray) -> Tuple[int, int]:
    """Word-granularity pull: resolve all ``nt`` vertices of each
    unvisited tile column per stored tile.

    Fills ``y`` and returns ``(found, scanned)`` with the seed's exact
    early-exit tile accounting.
    """
    nt = A1.nt
    nonempty = counts > 0
    cols_ne = cols[nonempty]
    counts_ne = counts[nonempty]
    sel = gather_ranges(A1.tile_ptr, cols_ne)      # tiles grouped by column
    masked = A1.words[sel] & m.words[A1.tile_otheridx[sel]][:, None]
    hits = masked != 0                             # (tiles, nt)

    starts = np.zeros(len(cols_ne), dtype=np.int64)
    np.cumsum(counts_ne[:-1], out=starts[1:])
    col_or = np.bitwise_or.reduceat(pack_hit_words(hits, nt), starts)
    y.words[cols_ne] = col_or & inv_words[cols_ne]
    found = int(np.bitwise_count(y.words).sum())

    # early exit: within each column, a vertex scans tiles until its
    # first hit (all of them when no parent is visited)
    pos = np.arange(len(sel), dtype=np.int64) - np.repeat(starts, counts_ne)
    sentinel = np.iinfo(np.int64).max
    first_hit = np.minimum.reduceat(
        np.where(hits, pos[:, None], sentinel), starts, axis=0)
    scan = np.where(first_hit < sentinel, first_hit + 1,
                    counts_ne[:, None])
    unvisited_bits = unpack_words(inv_words[cols_ne], nt).astype(bool)
    scanned = int(scan[unvisited_bits].sum())
    return found, scanned


def _pull_vertex_level(A1: BitTiledMatrix, m: BitVector, y: BitVector,
                       inv_words: np.ndarray) -> Tuple[int, int]:
    """Per-vertex pull for scattered unvisited sets: the seed's
    expansion, with ``reduceat`` run reductions replacing the
    element-at-a-time ``logical_or.at``."""
    unvisited = BitVector(y.n, A1.nt, inv_words).to_indices()
    lengths, gathered, lc_rep = expand_vertex_tiles(A1, unvisited)
    vertex_of = np.repeat(np.arange(len(unvisited)), lengths)

    col_words = A1.words[gathered, lc_rep]
    parents_visited = (col_words
                       & m.words[A1.tile_otheridx[gathered]]) != 0
    seg_starts = np.zeros(len(unvisited), dtype=np.int64)
    np.cumsum(lengths[:-1], out=seg_starts[1:])
    nonempty = lengths > 0
    found = np.zeros(len(unvisited), dtype=bool)
    if nonempty.any():
        found[nonempty] = np.logical_or.reduceat(
            parents_visited, seg_starts[nonempty])
    y.set_indices(unvisited[found])
    scanned = _tiles_scanned_until_hit(parents_visited, vertex_of,
                                       len(unvisited), lengths)
    return int(found.sum()), scanned


def _tiles_scanned_until_hit(hit: np.ndarray, vertex_of: np.ndarray,
                             n_vertices: int, lengths: np.ndarray) -> int:
    """Total tiles examined across vertices given per-(vertex, tile) hit
    flags in scan order, with per-vertex early exit at the first hit.

    A vertex whose scan hits at position ``p`` examines ``p + 1`` tiles;
    a vertex with no hit examines all ``lengths[v]`` of them.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    if len(hit) == 0:
        return int(lengths.sum())
    seg_start = np.repeat(
        np.concatenate(([0], np.cumsum(lengths)[:-1])), lengths)
    pos = np.arange(len(vertex_of), dtype=np.int64) - seg_start
    sentinel = np.iinfo(np.int64).max
    first_hit = np.full(n_vertices, sentinel, dtype=np.int64)
    hit_idx = np.flatnonzero(hit)
    if len(hit_idx):
        np.minimum.at(first_hit, vertex_of[hit_idx], pos[hit_idx])
    scanned = np.where(first_hit < sentinel, first_hit + 1, lengths)
    return int(scanned.sum())
