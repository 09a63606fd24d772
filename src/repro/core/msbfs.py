"""Bit-parallel multi-source BFS (MS-BFS).

TileBFS packs *vertices* into word bits; MS-BFS packs *sources*: each
vertex carries one machine word whose bit ``b`` means "reached by
source ``b``", so up to 64 independent traversals advance in lockstep
through ordinary word OR/AND-NOT operations — one more way the OR-AND
semiring of the paper's §3.4 pays off, and the batching that makes
multi-pivot analytics (Brandes betweenness, all-pairs-lite distance
sketches) affordable.

The expansion is vector-driven over CSC like Push-CSC: only vertices
whose frontier word is non-empty push, and a vertex is retired from the
frontier once every source has seen it.

A run takes any number of sources: more than 64 traverse as
consecutive 64-source groups, one word each, whose level rows are
concatenated in source order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .._util import concat_ranges
from ..errors import ShapeError
from ..fastpath import fastpath_tier
from ..formats.convert import to_coo
from ..gpusim import Device, KernelCounters
from ..runtime import ScopedOperator
from ..tiles.bitmask import segmented_scatter_or

__all__ = ["MultiSourceBFS", "MSBFSResult", "msbfs_expand"]

_U64 = np.uint64
#: Sources packed per state word.
WORD_SOURCES = 64

#: Newly-visited vertices per level-recording block: the bit-spread
#: matrix is ``chunk x 64`` words, so 8192 keeps it ~4 MB.
_LEVEL_CHUNK = 8192


def msbfs_expand(csc, frontier: np.ndarray
                 ) -> Tuple[np.ndarray, int, int]:
    """One MS-BFS frontier expansion over CSC.

    Every vertex with a non-empty frontier word pushes that word along
    its out-edges; the per-destination merge runs through the sort +
    ``reduceat`` fast path of
    :func:`~repro.tiles.bitmask.segmented_scatter_or` instead of the
    element-at-a-time ``np.bitwise_or.at`` (OR is commutative and
    idempotent, so the result is byte-identical to the preserved seed
    expansion in
    :func:`~repro.core.reference_bfs_kernels.reference_msbfs_expand`).
    With the ``fastpath`` extra installed the whole expansion runs as
    one compiled loop instead.

    Returns ``(next_words, n_active, n_edges)``.
    """
    next_words = np.zeros(len(frontier), dtype=_U64)
    if fastpath_tier() == "numba":  # pragma: no cover - fastpath extra
        from ..fastpath import numba_kernels as nb

        n_active, n_edges = nb.msbfs_expand_words(
            csc.indptr, csc.indices, frontier, next_words)
        return next_words, n_active, n_edges
    active = np.flatnonzero(frontier)
    lengths = csc.indptr[active + 1] - csc.indptr[active]
    gather = concat_ranges(csc.indptr[active], lengths)
    dst = csc.indices[gather]
    contrib = np.repeat(frontier[active], lengths)
    if len(dst):
        segmented_scatter_or(next_words, dst, contrib)
    return next_words, len(active), len(dst)


@dataclass
class MSBFSResult:
    """Output of one batched traversal.

    Attributes
    ----------
    sources:
        The source vertices, in bit order.
    levels:
        ``int64[k, n]``: BFS depth of every vertex from every source
        (``-1`` unreachable).
    simulated_ms:
        Total simulated GPU time (when a device was attached).
    iterations:
        Number of synchronised rounds executed (the most any one
        64-source group ran).
    """

    sources: np.ndarray
    levels: np.ndarray
    simulated_ms: float = 0.0
    iterations: int = 0

    def levels_from(self, source: int) -> np.ndarray:
        """The level array of one source (must be in :attr:`sources`)."""
        hits = np.flatnonzero(self.sources == source)
        if len(hits) == 0:
            raise ShapeError(f"source {source} was not traversed")
        return self.levels[hits[0]]


class MultiSourceBFS(ScopedOperator):
    """Prepared MS-BFS operator for one square adjacency pattern.

    Parameters
    ----------
    matrix:
        Square sparse pattern (values ignored).
    device:
        Optional simulated GPU.
    """

    operator = "msbfs"

    def __init__(self, matrix, device: Optional[Device] = None):
        super().__init__(device)
        coo = to_coo(matrix)
        if coo.shape[0] != coo.shape[1]:
            raise ShapeError(
                f"MS-BFS requires a square matrix, got {coo.shape}"
            )
        self.n = coo.shape[0]
        self.nnz = coo.nnz
        self.csc = coo.to_csc()

    # ------------------------------------------------------------------
    def run(self, sources: Sequence[int],
            max_depth: Optional[int] = None) -> MSBFSResult:
        """Traverse from many sources simultaneously.

        Up to :data:`WORD_SOURCES` sources share one machine word and
        advance in lockstep; more run as consecutive word-sized groups.
        The result concatenates the groups' level rows in source order,
        sums their simulated time, and counts the most rounds any group
        ran.
        """
        sources = np.asarray(list(sources), dtype=np.int64)
        if len(sources) == 0:
            raise ShapeError("MS-BFS needs at least one source")
        if len(np.unique(sources)) != len(sources):
            raise ShapeError("MS-BFS sources must be distinct")
        if sources.min() < 0 or sources.max() >= self.n:
            raise ShapeError(f"source out of range for n={self.n}")
        if len(sources) <= WORD_SOURCES:
            return self._run_word(sources, max_depth)
        groups = [self._run_word(sources[s:s + WORD_SOURCES], max_depth)
                  for s in range(0, len(sources), WORD_SOURCES)]
        return MSBFSResult(
            sources=sources,
            levels=np.concatenate([g.levels for g in groups]),
            simulated_ms=sum(g.simulated_ms for g in groups),
            iterations=max(g.iterations for g in groups))

    def _run_word(self, sources: np.ndarray,
                  max_depth: Optional[int]) -> MSBFSResult:
        """One lockstep traversal of at most :data:`WORD_SOURCES`
        sources, one bit each."""
        k = len(sources)

        visited = np.zeros(self.n, dtype=_U64)
        bits = _U64(1) << np.arange(k, dtype=_U64)
        np.bitwise_or.at(visited, sources, bits)
        frontier = visited.copy()
        levels = np.full((k, self.n), -1, dtype=np.int64)
        levels[np.arange(k), sources] = 0

        depth = 0
        inv = np.empty_like(visited)
        shifts = np.arange(k, dtype=_U64)
        result = MSBFSResult(sources=sources, levels=levels)
        while True:
            if max_depth is not None and depth >= max_depth:
                break
            depth += 1
            if not frontier.any():
                break
            # push: every edge u -> v with a non-empty frontier word at
            # u contributes its word to v
            next_words, n_active, n_edges = msbfs_expand(self.csc,
                                                         frontier)
            np.invert(visited, out=inv)
            np.bitwise_and(next_words, inv, out=next_words)
            new = next_words
            ms = self._account(n_active, n_edges)
            result.simulated_ms += ms
            result.iterations += 1
            newly = np.flatnonzero(new)
            if not len(newly):
                break
            # record levels per source bit: spread each new word over
            # its source bits in blocks and scatter the hits — one
            # vectorized pass, not one frontier-sized index array per
            # source
            for s in range(0, len(newly), _LEVEL_CHUNK):
                chunk = newly[s:s + _LEVEL_CHUNK]
                hits = (new[chunk, None] >> shifts) & _U64(1)
                vi, bi = np.nonzero(hits)
                levels[bi, chunk[vi]] = depth
            visited |= new
            frontier = new
        return result

    # ------------------------------------------------------------------
    def _layer_counters(self, n_active: int, edges: int) -> KernelCounters:
        c = KernelCounters(launches=1)
        c.coalesced_read_bytes += self.n * 8.0          # frontier scan
        c.l2_read_bytes += n_active * 16.0              # column pointers
        c.coalesced_read_bytes += edges * 4.0           # neighbour ids
        c.atomic_ops += float(edges)                    # word atomicOr
        c.random_write_count += float(edges)
        c.coalesced_read_bytes += self.n * 8.0          # visited words
        c.coalesced_write_bytes += self.n * 8.0         # next/visited
        c.word_ops += 3.0 * self.n
        c.warps = max(1.0, edges / 32.0)
        return c

    def _account(self, n_active: int, edges: int) -> float:
        ctx = self.ctx
        if not ctx.accounting:
            return 0.0
        if ctx.production:
            # counters compile out of the round: the closure captures
            # the two determinants and prices the launch at replay time
            ctx.defer("msbfs_expand",
                      lambda: self._layer_counters(n_active, edges),
                      phase="iteration")
            return 0.0
        return ctx.launch("msbfs_expand",
                          self._layer_counters(n_active, edges),
                          phase="iteration")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<MultiSourceBFS n={self.n} nnz={self.nnz}>"
