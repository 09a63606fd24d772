"""The modeled counters of the three directional-optimization BFS
kernels (paper §3.4, Fig. 5).

All three kernels operate on bitmask-compressed tiles over the OR-AND
semiring ("the AND operation represents multiplication, and the OR
operation represents addition"), and all three find only *new*
vertices: ``y = (A ⊗ x) & ~m`` — the
``sum = (NOT (mask AND sum_x)) AND sum_x`` line shared by
Algorithms 5-7.

* :func:`push_csc_counters` (K1, Alg. 5) — vector-driven over the
  column-compressed tiles (A1): each frontier bit selects one local
  column word of every stored tile in its tile column and ORs it into
  the result row tile atomically.  Cheap when the frontier is tiny.
* :func:`push_csr_counters` (K2, Alg. 6) — matrix-driven over the
  row-compressed tiles (A2): a warp per row tile ANDs each local row
  word with the frontier word of the tile's column; only tiles whose
  frontier tile is non-empty are touched.  Wins on denser frontiers
  because its accesses stream.
* :func:`pull_csc_counters` (K3, Alg. 7) — pull from the unvisited
  side: each unvisited vertex scans its column in A1 against the
  visited mask and stops at the first visited parent (the early-exit
  ``x_id = -1`` of Alg. 7, which the counters honour).

The paper's cost model depends only on the *active* side of a layer —
frontier bits, active tiles, and the unvisited scans up to their first
hit — never on the result words.  So each function here is a pure
function of the layer inputs ``(A, x, m)`` and returns only the
:class:`~repro.gpusim.KernelCounters`; the result words come from the
fused layer kernels of :mod:`repro.fastpath`, which TileBFS runs.
What each one reads:

* Push-CSC: the frontier size and the summed ``A1.tile_ptr`` lengths
  of the frontier tile columns (popcount × column length per frontier
  word);
* Push-CSR: ``n_active``, the stored tiles under non-zero frontier
  words, counted from the plan-attached :meth:`column view
  <repro.tiles.bitmask.BitTiledMatrix.column_view>`;
* Pull-CSC: ``scanned`` and ``found`` from the early-exit hit scan,
  at word granularity over the unvisited tile columns (one masked AND
  per stored tile) or, for unvisited sets too scattered for word
  batching, per (vertex, tile) pair — the switch bounds the scan's
  memory, not its result.

Every counter is byte-identical to the preserved seed oracles in
:mod:`repro.core.reference_bfs_kernels` — the BFS kernel-equivalence
tests enforce this, keeping all simulated-ms figures and Fig. 10
traces unchanged.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .._util import concat_ranges, gather_ranges
from ..errors import ShapeError
from ..gpusim import KernelCounters
from ..tiles.bitmask import BitTiledMatrix, BitVector, unpack_words

__all__ = ["push_csc_counters", "push_csr_counters", "pull_csc_counters",
           "expand_vertex_tiles"]

#: Pull-CSC regime switch: word-level traversal ANDs ``nt`` lanes per
#: stored tile of an unvisited column, vertex-level expansion pays per
#: (vertex, tile) pair; word level wins once the per-pair total exceeds
#: the per-tile total by this factor.
PULL_WORD_COST_FACTOR = 2

_NO_HIT = np.iinfo(np.int64).max


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


def _column_tiles(A1: BitTiledMatrix, words: np.ndarray
                  ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(cols, tiles, bits)`` of the non-zero ``words``: their tile
    columns, the stored tiles in each, and each word's set bits."""
    cols = np.flatnonzero(words)
    tiles = A1.tile_ptr[cols + 1] - A1.tile_ptr[cols]
    bits = np.bitwise_count(words[cols]).astype(np.int64)
    return cols, tiles, bits


def push_csc_counters(A1: BitTiledMatrix, x: BitVector,
                      m: BitVector) -> KernelCounters:
    """K1 — warp-level Push-CSC (paper Algorithm 5).

    Vector-driven: every set bit of ``x`` (a frontier vertex ``j``)
    walks the stored tiles of tile column ``j // nt`` and ORs the local
    column word ``A1.words[t, j % nt]`` (its out-neighbours inside that
    row tile) into the result, masked by the visited set.  The cost is
    the frontier size plus one gathered word per (frontier vertex,
    column tile) pair, so per frontier word it is the word's popcount
    times its tile column's length.
    """
    _check_operands(A1, x, m, "csc", "push_csc")
    counters = KernelCounters(launches=1)

    _, tiles, bits = _column_tiles(A1, x.words)
    n_frontier = int(bits.sum())
    counters.coalesced_read_bytes += len(x.words) * 8.0  # scan frontier words
    if n_frontier == 0:
        counters.warps = 1.0
        return counters

    n_gathered = float((tiles * bits).sum())
    # per frontier vertex: tile_ptr lookup (L2) ...
    counters.l2_read_bytes += n_frontier * 16.0
    # ... then per touched tile: one word (scattered), the mask word
    # (scattered, often L2-hot), one atomicOr into y.
    counters.random_read_count += n_gathered        # A1 word
    counters.l2_read_bytes += n_gathered * 8.0      # mask word
    counters.word_ops += n_gathered * 3.0           # and/not/or
    counters.atomic_ops += 2.0 * n_gathered         # y and flag (Alg.5 l.5-6)
    counters.random_write_count += n_gathered
    counters.warps = max(1.0, n_frontier / 32.0 + n_gathered / 32.0)
    counters.divergence = 1.0  # lanes process independent tiles
    counters.check()
    return counters


def push_csr_counters(A2: BitTiledMatrix, x: BitVector,
                      m: BitVector) -> KernelCounters:
    """K2 — warp-level Push-CSR (paper Algorithm 6).

    Matrix-driven: one warp per row tile streams its stored tiles; a
    tile is processed only when the frontier word of its tile column is
    non-empty (Alg. 6 line 3's ``continue``).  The counters are
    analytic in ``n_active`` — the stored tiles under non-zero frontier
    words, counted per tile column from the plan-attached
    :meth:`column view <repro.tiles.bitmask.BitTiledMatrix.column_view>`
    (the csc tiling, the BFS plan's A1) — and match the modeled GPU of
    the seed exactly.
    """
    _check_operands(A2, x, m, "csr", "push_csr")
    nt = A2.nt
    counters = KernelCounters(launches=1)

    n_tiles = A2.n_nonempty_tiles
    if n_tiles == 0:
        counters.warps = 1.0
        return counters

    # all stored tiles read their metadata + frontier word (the modeled
    # GPU streams the whole row-tile structure regardless of activity)
    counters.coalesced_read_bytes += n_tiles * 16.0
    counters.l2_read_bytes += n_tiles * 8.0

    _, tiles, _ = _column_tiles(A2.column_view(), x.words)
    n_active = int(tiles.sum())
    if n_active:
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
    return counters


def pull_csc_counters(A1: BitTiledMatrix, x: BitVector,
                      m: BitVector) -> KernelCounters:
    """K3 — warp-level Pull-CSC (paper Algorithm 7).

    Pull from the unvisited side: each *unvisited* vertex (a set bit of
    ``~m``; ``x`` is ignored except for validation, matching the
    paper's "the vector x3 can be obtained by bitwise inversion of
    m3") checks the stored tiles of its own column against the visited
    mask and claims itself as soon as any visited parent appears — the
    early exit of Alg. 7 lines 7-11, which the counters honour by only
    charging tiles scanned up to the first hit.

    ``found`` is the number of unvisited vertices with a hit and
    ``scanned`` the tiles each examined up to it.  When the unvisited
    set is dense within its columns the scan runs at word granularity
    (one masked AND per stored tile, all ``nt`` vertices at once); a
    scattered unvisited set falls back to per-vertex expansion.
    """
    _check_operands(A1, x, m, "csc", "pull_csc")
    nt = A1.nt
    counters = KernelCounters(launches=1)

    inv_words = A1.full_mask_words() & ~m.words
    counters.coalesced_read_bytes += len(m.words) * 8.0  # scan mask words
    cols, tiles, unvisited_per_col = _column_tiles(A1, inv_words)
    n_unvisited = int(unvisited_per_col.sum())
    if n_unvisited == 0:
        counters.warps = 1.0
        return counters

    # the seed expanded every (unvisited vertex, column tile) pair
    n_gathered = int((tiles * unvisited_per_col).sum())
    if n_gathered:
        # the unvisited lanes of each unvisited tile column, (cols, nt)
        unvisited = unpack_words(inv_words[cols], nt).astype(bool)
        if int(tiles.sum()) * nt <= PULL_WORD_COST_FACTOR * n_gathered:
            found, scanned = _pull_scan_words(A1, m, cols, tiles,
                                              unvisited, unvisited_per_col)
        else:
            found, scanned = _pull_scan_vertices(A1, m, cols, unvisited)
        counters.random_read_count += float(scanned)   # A1 words
        counters.l2_read_bytes += float(scanned) * 8.0  # mask words
        counters.word_ops += float(scanned) * 3.0
        counters.atomic_ops += float(found)             # flag OR (Alg.7 l.9)
        counters.random_write_count += float(found)

    counters.l2_read_bytes += n_unvisited * 16.0     # tile_ptr lookups
    counters.warps = max(1.0, n_unvisited / 32.0)
    counters.check()
    return counters


def _first_hits(hits: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Per scan segment, the position of its first hit (``_NO_HIT``
    when none).  ``hits`` holds the segments' rows back to back,
    ``lengths[i]`` rows for segment ``i``; empty segments get
    ``_NO_HIT``."""
    starts = np.cumsum(lengths) - lengths
    pos = np.arange(len(hits), dtype=np.int64) - np.repeat(starts, lengths)
    if hits.ndim > 1:
        pos = pos[:, None]
    first = np.full((len(lengths),) + hits.shape[1:], _NO_HIT,
                    dtype=np.int64)
    nonempty = lengths > 0
    if nonempty.any():
        first[nonempty] = np.minimum.reduceat(
            np.where(hits, pos, _NO_HIT), starts[nonempty], axis=0)
    return first


def _scan_totals(first: np.ndarray, lengths: np.ndarray
                 ) -> Tuple[int, int]:
    """``(found, scanned)``: a vertex whose scan hits at position ``p``
    is found after ``p + 1`` tiles; one with no hit scans all
    ``lengths`` of them."""
    hit = first < _NO_HIT
    scanned = np.where(hit, first + 1, lengths)
    return int(hit.sum()), int(scanned.sum())


def _pull_scan_words(A1: BitTiledMatrix, m: BitVector, cols: np.ndarray,
                     tiles: np.ndarray, unvisited: np.ndarray,
                     unvisited_per_col: np.ndarray) -> Tuple[int, int]:
    """Word-granularity scan: the hit flags of all ``nt`` vertices of
    each unvisited tile column, one masked AND per stored tile, kept
    for the unvisited vertices only."""
    sel = gather_ranges(A1.tile_ptr, cols)          # tiles grouped by column
    hits = (A1.words[sel] & m.words[A1.tile_otheridx[sel]][:, None]) != 0
    first = _first_hits(hits, tiles)                # (cols, nt)
    return _scan_totals(first[unvisited],
                        np.repeat(tiles, unvisited_per_col))


def _pull_scan_vertices(A1: BitTiledMatrix, m: BitVector, cols: np.ndarray,
                        unvisited: np.ndarray) -> Tuple[int, int]:
    """Per-vertex scan for scattered unvisited sets: the seed's
    (vertex, tile) expansion, reduced per vertex by ``reduceat``."""
    word, local = np.nonzero(unvisited)
    lengths, gathered, local_col = expand_vertex_tiles(
        A1, cols[word] * A1.nt + local)
    hits = (A1.words[gathered, local_col]
            & m.words[A1.tile_otheridx[gathered]]) != 0
    return _scan_totals(_first_hits(hits, lengths), lengths)
