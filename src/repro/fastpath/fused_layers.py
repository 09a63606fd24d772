"""Plan-time fused layout + vectorized NumPy layer kernels.

:class:`FusedBFSLayout` is built once per BFS plan (a lazy plan slot)
and holds everything the fused per-layer dispatch needs beyond the
A1/A2 tilings themselves:

* a *compressed word-level sweep* of the row tiles, which runs every
  NumPy-tier Push-CSR layer — the reference sweep ANDs all
  ``n_tiles * nt`` stored words per layer even though only ~10-15% are
  non-zero on power-law graphs; flattening the non-zero (tile, local
  row) words once at plan time turns each layer into a handful of
  in-place vector ops and one ``bitwise_or.reduceat`` per chunk, with
  no per-tile Python iteration and no per-layer allocation (chunks are
  cut at reduce-segment boundaries so the working set stays
  cache-resident);
* a *word-level* CSC index of the extracted very-sparse side edges —
  destination word index + destination bit per edge — so the per-edge
  side traversal gathers exactly the edges leaving the frontier and
  masks them against the visited words directly (``bit & ~m.word``),
  with no per-layer frontier boolean and no visited-bool maintenance.

The layer kernels here are the NumPy tier of the fused fast path;
:mod:`repro.fastpath.numba_kernels` holds the compiled loop tier.  They
are the only producers of TileBFS layer results: all of them are
result-only and byte-identical to the seed kernels in
:mod:`repro.core.reference_bfs_kernels`, and a layer's counters come
from the counter functions of :mod:`repro.core.bfs_kernels` through
:mod:`repro.fastpath.counter_model`.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .._util import (concat_ranges, gather_ranges, group_starts,
                     sorted_distinct)
from ..core.bfs_kernels import PULL_WORD_COST_FACTOR, expand_vertex_tiles
from ..formats.csr import compress_indptr
from ..tiles.bitmask import (BitTiledMatrix, BitVector, bit_positions,
                             bit_weight_vector, pack_hit_words,
                             segmented_scatter_or)
from . import numba_kernels as nb

__all__ = ["FusedBFSLayout", "fused_push_csc", "fused_push_csr",
           "fused_pull_csc", "fused_side"]

_U64 = np.uint64

#: Push-CSR regime switch of the compiled tier: the masked bit gather
#: touches one stored word per (frontier bit, column tile) pair while
#: ``nb.push_sweep`` ANDs all ``n_tiles * nt`` stored words; gathered
#: elements cost about this factor more each (fancy indexing vs
#: streaming), so gather wins while
#: ``BIT_GATHER_FACTOR * n_bits <= n_tiles * nt``.  The NumPy tier
#: streams a compressed sweep of the non-zero words only and always
#: sweeps (:func:`fused_push_csr`).
BIT_GATHER_FACTOR = 3

#: Non-zero stored words per sweep chunk — sized so the chunk buffer
#: plus the streamed value/index/bit slices fit in L2, which beats one
#: monolithic pass by ~20% at scale 17.
_SWEEP_CHUNK = 1 << 16


class FusedBFSLayout:
    """Per-plan gather structures and buffers of the fused BFS tier.

    ``sweep_words`` holds the non-zero A2 words plus one single-bit word
    per extracted side edge — exactly the words :meth:`sweep` streams
    (1.08 M on rmat(16) at ``nt=64``, against the 6.78 M stored words
    the uncompressed sweep reads).
    """

    def __init__(self, A1: BitTiledMatrix, A2: BitTiledMatrix, side,
                 n: int, nt: int):
        self.A1 = A1
        self.A2 = A2
        self.n = n
        self.nt = nt
        # ---- compressed word-level sweep over the row tiles --------
        # every non-zero (stored tile, local row) word: its value, its
        # column tile (frontier word to AND with), and its contributed
        # result bit; equal row tiles form the reduce segments.  A side
        # edge j -> i has exactly the same shape — a single-bit row
        # word (bit of column j) in row tile i//nt contributing the bit
        # of row i — so the side edges fold into the sweep arrays and
        # the dense-frontier layers need no separate side pass at all
        # (the trailing ``& ~m`` covers the side's visited filter).
        bw = bit_weight_vector(nt)
        wt, wr = np.nonzero(A2.words)
        vals = A2.words[wt, wr]
        ctile = A2.tile_otheridx[wt]
        bits = bw[wr]
        rtile = A2.tile_majoridx()[wt]
        if side.nnz:
            vals = np.concatenate((vals, bw[side.col % nt]))
            ctile = np.concatenate((ctile, side.col // nt))
            bits = np.concatenate((bits, bw[side.row % nt]))
            rtile = np.concatenate((rtile, side.row // nt))
            order = np.argsort(rtile, kind="stable")
            vals = vals[order]
            ctile = ctile[order]
            bits = bits[order]
            rtile = rtile[order]
        # int64 indices + mode="clip" keep np.take on its fast path
        # (the int32/bounds-checked combination is ~3x slower)
        self.sweep_words = np.ascontiguousarray(vals)
        self.sweep_ctile = np.ascontiguousarray(ctile, dtype=np.int64)
        self.sweep_bit = np.ascontiguousarray(bits)
        starts = group_starts(rtile)
        rt_unique = rtile[starts]
        # chunk boundaries, snapped to segment starts so every row
        # tile's reduction lives in exactly one chunk
        k = len(self.sweep_words)
        cut = np.searchsorted(starts, np.arange(_SWEEP_CHUNK, k,
                                                _SWEEP_CHUNK))
        bnds = sorted_distinct(np.concatenate(
            ([0], cut, [len(starts)]))).astype(np.int64)
        self.sweep_chunks = []
        max_len = 0
        for a, b in zip(bnds[:-1], bnds[1:]):
            s0 = int(starts[a])
            s1 = int(starts[b]) if b < len(starts) else k
            self.sweep_chunks.append(
                (slice(s0, s1), starts[a:b] - s0, rt_unique[a:b]))
            max_len = max(max_len, s1 - s0)
        self._sweep_buf = np.empty(max_len, dtype=_U64)
        # ---- word-level CSC index of the extracted side edges ------
        self.side_nnz = side.nnz
        if side.nnz:
            order = np.argsort(side.col, kind="stable")
            rows = side.row[order]
            self.side_dst_word = (rows // nt).astype(np.int32)
            self.side_dst_bit = bit_positions(rows % nt, nt)
            self.side_indptr = compress_indptr(side.col[order], n)
        else:
            self.side_dst_word = np.zeros(0, dtype=np.int32)
            self.side_dst_bit = np.zeros(0, dtype=_U64)
            self.side_indptr = np.zeros(n + 1, dtype=np.int64)

    # ------------------------------------------------------------------
    def sweep(self, x_words: np.ndarray, y: BitVector) -> None:
        """The compressed Push-CSR sweep: per chunk, gather each stored
        word's frontier word, AND, collapse hits to the contributed
        bit, and segment-reduce into the result row tiles — all in one
        reused buffer.  ``y`` (cleared by the caller) accumulates
        unmasked; the caller applies ``~m`` once."""
        for sl, seg_starts, rt in self.sweep_chunks:
            buf = self._sweep_buf[:sl.stop - sl.start]
            np.take(x_words, self.sweep_ctile[sl], out=buf, mode="clip")
            np.bitwise_and(self.sweep_words[sl], buf, out=buf)
            # hit words collapse to 0/1, then to the row bit they carry
            np.minimum(buf, 1, out=buf)
            np.multiply(buf, self.sweep_bit[sl], out=buf)
            y.words[rt] = np.bitwise_or.reduceat(buf, seg_starts)


def fused_push_csc(layout: FusedBFSLayout, frontier: np.ndarray,
                   m: BitVector, y: BitVector, use_numba: bool) -> None:
    """Result-only K1: vector-driven push with the mask fused in
    (``OR(words) & ~m == OR(words & ~m)`` — per row tile the mask word
    is constant)."""
    A1 = layout.A1
    if use_numba:
        nb.push_gather_masked(A1.tile_ptr, A1.tile_otheridx, A1.words,
                              layout.nt, frontier, m.words, y.words)
        return
    _, gathered, lc_rep = expand_vertex_tiles(A1, frontier)
    if len(gathered):
        col_words = A1.words[gathered, lc_rep]
        row_tiles = A1.tile_otheridx[gathered]
        segmented_scatter_or(y.words, row_tiles,
                             col_words & ~m.words[row_tiles])


def fused_push_csr(layout: FusedBFSLayout, frontier: np.ndarray,
                   x: BitVector, m: BitVector, y: BitVector,
                   use_numba: bool) -> bool:
    """Result-only K2.  The NumPy tier always runs the compressed
    sweep: Push-CSR is only selected for dense frontiers, and there
    streaming the non-zero words is as fast end to end as switching to
    the bit gather on the sparser layers (EXPERIMENTS.md).  The
    compiled tier switches to the masked bit gather by
    :data:`BIT_GATHER_FACTOR`, since its sweep streams all
    ``n_tiles * nt`` stored words.

    Returns True when the layer's side edges were already applied — the
    NumPy sweep streams them as folded single-bit words, so the caller
    must skip the separate side pass.
    """
    if not use_numba:
        layout.sweep(x.words, y)
        y.words &= ~m.words
        return True
    A2 = layout.A2
    nt = layout.nt
    n_tiles = A2.n_nonempty_tiles
    if n_tiles == 0:
        return False
    A1v = A2.column_view()
    cols = np.flatnonzero(x.words)
    counts = A1v.tile_ptr[cols + 1] - A1v.tile_ptr[cols]
    if not int(counts.sum()):
        return False
    bits_per_col = np.bitwise_count(x.words[cols]).astype(np.int64)
    n_bits = int((counts * bits_per_col).sum())
    if BIT_GATHER_FACTOR * n_bits <= n_tiles * nt:
        # masked gather over the column view == bit-gather regime
        nb.push_gather_masked(A1v.tile_ptr, A1v.tile_otheridx,
                              A1v.words, nt, frontier, m.words,
                              y.words)
        return False
    nb.push_sweep(A2.words, A2.tile_otheridx, A2.tile_majoridx(),
                  nt, x.words, y.words)
    y.words &= ~m.words
    return False


def fused_pull_csc(layout: FusedBFSLayout, m: BitVector, y: BitVector,
                   use_numba: bool) -> None:
    """Result-only K3 with the word/vertex regime switch of
    :func:`~repro.core.bfs_kernels.pull_csc_counters`.

    Skips the first-hit/early-exit scan entirely — that computation
    exists only for the modeled counters, which the counter function
    computes when a layer is priced.
    """
    A1 = layout.A1
    nt = layout.nt
    inv_words = A1.full_mask_words() & ~m.words
    if use_numba:
        nb.pull_columns(A1.tile_ptr, A1.tile_otheridx, A1.words, nt,
                        m.words, inv_words, y.words)
        return
    cols = np.flatnonzero(inv_words)
    if not len(cols):
        return
    counts = A1.tile_ptr[cols + 1] - A1.tile_ptr[cols]
    unvisited_per_col = np.bitwise_count(inv_words[cols]).astype(np.int64)
    n_gathered = int((counts * unvisited_per_col).sum())
    if not n_gathered:
        return
    if int(counts.sum()) * nt <= PULL_WORD_COST_FACTOR * n_gathered:
        nonempty = counts > 0
        cols_ne = cols[nonempty]
        counts_ne = counts[nonempty]
        sel = gather_ranges(A1.tile_ptr, cols_ne)
        masked = A1.words[sel] & m.words[A1.tile_otheridx[sel]][:, None]
        starts = np.zeros(len(cols_ne), dtype=np.int64)
        np.cumsum(counts_ne[:-1], out=starts[1:])
        col_or = np.bitwise_or.reduceat(pack_hit_words(masked != 0, nt),
                                        starts)
        y.words[cols_ne] = col_or & inv_words[cols_ne]
    else:
        unvisited = BitVector(layout.n, nt, inv_words).to_indices()
        lengths, gathered, lc_rep = expand_vertex_tiles(A1, unvisited)
        parents_visited = (A1.words[gathered, lc_rep]
                           & m.words[A1.tile_otheridx[gathered]]) != 0
        seg_starts = np.zeros(len(unvisited), dtype=np.int64)
        np.cumsum(lengths[:-1], out=seg_starts[1:])
        nonempty = lengths > 0
        found = np.zeros(len(unvisited), dtype=bool)
        if nonempty.any():
            found[nonempty] = np.logical_or.reduceat(
                parents_visited, seg_starts[nonempty])
        y.set_indices(unvisited[found])


def fused_side(layout: FusedBFSLayout, frontier: np.ndarray,
               m: BitVector, y: BitVector, want_stats: bool,
               use_numba: bool = False, scatter: bool = True
               ) -> Optional[Tuple[int, int]]:
    """Per-edge traversal of the extracted side COO at word level:
    gather the destination (word, bit) of exactly the edges leaving
    the frontier, drop visited bits against the mask words directly,
    and OR the survivors into ``y``.

    Filters on ``m``'s bits directly, so no per-vertex visited boolean
    is maintained.  With ``want_stats`` (any accounting run), returns
    ``(n_src_active, n_claimed)`` — the edges leaving the frontier and
    those whose destination is unvisited — the two data-dependent
    determinants of :func:`~repro.fastpath.counter_model.side_counters`;
    with ``scatter=False`` (the sweep already streamed the folded side
    edges) only the stats are computed.
    """
    if use_numba and scatter and not want_stats:
        nb.side_push(layout.side_indptr, layout.side_dst_word,
                     layout.side_dst_bit, frontier, m.words, y.words)
        return None
    indptr = layout.side_indptr
    lengths = indptr[frontier + 1] - indptr[frontier]
    sel = concat_ranges(indptr[frontier], lengths)
    widx = layout.side_dst_word[sel]
    new_bits = layout.side_dst_bit[sel] & ~m.words[widx]
    claimed = np.flatnonzero(new_bits)
    if scatter and len(claimed):
        np.bitwise_or.at(y.words, widx[claimed], new_bits[claimed])
    if not want_stats:
        return None
    return len(widx), len(claimed)
