"""TileBFS — directional-optimization BFS over bitmask tiles (§3.4).

The driver follows the paper's structure exactly:

1. Preprocess: pick ``nt`` from the matrix order (>10,000 → 64, else
   32), compress the adjacency pattern into the column-wise (A1) and
   row-wise (A2) bitmask tile forms, and — when very-sparse-tile
   extraction is on — keep the evicted entries in a COO edge list that
   a simple per-edge kernel traverses alongside every iteration (the
   paper delegates this part to GSwitch; the substitution is our own
   edge-list kernel with the same cost profile).
2. Iterate: each layer picks Push-CSC / Push-CSR / Pull-CSC with the
   §3.4 rule via :class:`~repro.core.selection.KernelSelector`, ORs the
   newly found vertices into the visited mask and promotes them to the
   next frontier, until no new vertex appears.  The layer loop is
   :func:`repro.fastpath.fused_bfs.run_fused`: one fused call per
   layer, with the modeled counters priced inline, deferred to a
   production replay, or skipped, as the launch context asks.

The run records a per-iteration trace (kernel used, frontier size,
simulated ms) — the raw series behind the paper's Figure 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from ..errors import ShapeError
from ..formats.convert import to_coo
from ..formats.coo import COOMatrix
from ..gpusim import Device
from ..runtime import (OperatorPlan, PlanCache, ScopedOperator,
                       default_plan_cache, matrix_token)
from ..tiles.bitmask import BitTiledMatrix, pattern_is_symmetric
from ..tiles.extraction import split_very_sparse_tiles
from ..tiles.tiled_vector import SUPPORTED_TILE_SIZES
from .selection import KernelSelector, select_tile_size

__all__ = ["TileBFS", "BFSResult", "IterationRecord", "tile_bfs"]


@dataclass(frozen=True)
class IterationRecord:
    """Trace of one BFS layer (one point of a Figure-10 series)."""

    depth: int
    kernel: str
    frontier_size: int
    new_vertices: int
    simulated_ms: float


@dataclass
class BFSResult:
    """Output of one TileBFS run.

    Attributes
    ----------
    levels:
        ``int64[n]`` BFS depth per vertex; ``-1`` for unreachable.
    iterations:
        Per-layer trace records.
    simulated_ms:
        Total simulated GPU time of the traversal (kernels only, no
        preprocessing).
    """

    levels: np.ndarray
    iterations: List[IterationRecord] = field(default_factory=list)
    simulated_ms: float = 0.0

    #: Optional BFS tree: ``parents[v]`` is a predecessor of ``v`` on a
    #: shortest path (``-1`` for sources and unreached vertices).
    #: Filled by :meth:`TileBFS.compute_parents`.
    parents: Optional[np.ndarray] = None

    @property
    def n_reached(self) -> int:
        return int((self.levels >= 0).sum())

    @property
    def depth(self) -> int:
        """Eccentricity of the source (max finite level)."""
        reached = self.levels[self.levels >= 0]
        return int(reached.max()) if len(reached) else -1

    def edges_traversed(self, nnz: int) -> int:
        """Edges the traversal logically covers, for GTEPS accounting
        (the standard convention: all edges incident to reached
        vertices; for a connected graph, simply nnz)."""
        return nnz

    def gteps(self, nnz: int) -> float:
        """Giga traversed edges per second at the simulated time."""
        if self.simulated_ms <= 0:
            return float("inf")
        return nnz / (self.simulated_ms * 1e-3) / 1e9


class TileBFS(ScopedOperator):
    """Prepared TileBFS operator for one (square) adjacency matrix.

    Parameters
    ----------
    matrix:
        Square sparse matrix; values are ignored, only the pattern
        matters.  Self-loops are harmless.
    nt:
        Tile size; ``None`` applies the paper's order rule.
    selector:
        Kernel-selection policy (default: the full K1+K2+K3 rule).
    extract_threshold:
        Very-sparse-tile extraction cutoff for the hybrid side edge
        list (paper §3.2.1 / §3.4: the extracted part is traversed
        separately each iteration); 0 disables.  Default 2: bitmask
        tiles pay ``nt`` words of traffic regardless of how few edges
        they hold, so near-empty tiles are cheaper as raw edges.
    device:
        Optional simulated GPU receiving launch records.
    """

    operator = "tilebfs"

    def __init__(self, matrix, nt: Optional[int] = None,
                 selector: Optional[KernelSelector] = None,
                 extract_threshold: int = 2,
                 device: Optional[Device] = None,
                 plan_cache: Optional[PlanCache] = None,
                 parallel=None):
        super().__init__(device)
        self.selector = selector or KernelSelector()
        # deferred import: repro.shards imports core modules
        from ..shards.sharded_matrix import ShardedTiledMatrix
        if isinstance(matrix, ShardedTiledMatrix):
            if matrix.shape[0] != matrix.shape[1]:
                raise ShapeError(
                    f"BFS needs a square matrix, got {matrix.shape}"
                )
            from ..shards.engine import ShardedSpMSpV
            # out-of-core traversal: a level-synchronous loop over the
            # sharded engine's pattern view (per-shard all-ones tiling,
            # cached on the shard plans) — the bitmask A1/A2 forms stay
            # an in-core specialisation.
            self._sharded = ShardedSpMSpV(
                matrix, device=self.ctx, plan_cache=plan_cache,
                pattern_only=True, parallel=parallel)
            self.n = matrix.shape[0]
            self.nnz = matrix.nnz
            self.nt = matrix.nt
            self.side = COOMatrix.empty(matrix.shape)
            self.A1 = self.A2 = None
            self.symmetric = False
            self._plan = None
            return
        cache = plan_cache if plan_cache is not None \
            else default_plan_cache()
        key = ("tilebfs", matrix_token(matrix), nt, extract_threshold)
        self._plan = cache.get_or_build(
            key,
            lambda: _build_bfs_plan(matrix, nt, extract_threshold, key),
            pin=matrix)
        data = self._plan.data
        self.n = data["n"]
        self.nnz = data["nnz"]
        self.nt = data["nt"]
        #: COO edge list of the extracted very-sparse tiles,
        #: traversed by a per-edge kernel each iteration.
        self.side = data["side"]
        #: Column-compressed bitmask tiles (the A1 of Fig. 5).
        self.A1 = data["A1"]
        #: Row-compressed bitmask tiles (the A2 of Fig. 5).
        self.A2 = data["A2"]
        #: Whether the tiled pattern is symmetric — the validity
        #: condition of Pull-CSC (the layer loop falls back to
        #: Push-CSR on asymmetric patterns).
        self.symmetric = data["symmetric"]

    # ------------------------------------------------------------------
    def run(self, source: int, max_depth: Optional[int] = None) -> BFSResult:
        """Traverse from ``source``; returns levels and the iteration
        trace."""
        return self.run_multi([source], max_depth=max_depth)

    def run_multi(self, sources: Sequence[int],
                  max_depth: Optional[int] = None) -> BFSResult:
        """Multi-source BFS (all sources at depth 0)."""
        sources = np.unique(np.asarray(sources, dtype=np.int64))
        if len(sources) == 0:
            raise ShapeError("BFS needs at least one source vertex")
        if sources.min() < 0 or sources.max() >= self.n:
            raise ShapeError(
                f"source vertex out of range for n={self.n}"
            )
        if self._sharded is not None:
            return self._run_sharded(sources, max_depth)
        # looked up at call time: the fused loop is the one in-core
        # layer loop, and tooling may wrap it in its module
        from ..fastpath.fused_bfs import run_fused
        return run_fused(self, sources, max_depth)

    # ------------------------------------------------------------------
    def _run_sharded(self, sources: np.ndarray,
                     max_depth: Optional[int]) -> BFSResult:
        """Level-synchronous BFS over the sharded engine.

        Each layer is one sharded multiply of the frontier indicator
        under plus_times over the pattern view: the result's support is
        exactly the frontier's out-neighbourhood, shards whose row
        strip holds no active tile column are skipped (and never
        loaded), and the visited filter runs on the host like the
        paper's ``y & ~visited``.
        """
        from ..vectors.sparse_vector import SparseVector
        engine = self._sharded
        levels = np.full(self.n, -1, dtype=np.int64)
        levels[sources] = 0
        visited = np.zeros(self.n, dtype=bool)
        visited[sources] = True
        result = BFSResult(levels=levels)
        frontier = sources
        depth = 0
        while len(frontier):
            if max_depth is not None and depth >= max_depth:
                break
            depth += 1
            dev = self.ctx.device
            t0 = dev.elapsed_ms if dev is not None else 0.0
            y = engine.multiply(SparseVector(
                self.n, frontier, np.ones(len(frontier))))
            ms = (dev.elapsed_ms - t0) if dev is not None else 0.0
            new_idx = y.indices[~visited[y.indices]]
            result.iterations.append(IterationRecord(
                depth=depth, kernel="sharded_push",
                frontier_size=len(frontier),
                new_vertices=len(new_idx), simulated_ms=ms))
            result.simulated_ms += ms
            if len(new_idx) == 0:
                break
            levels[new_idx] = depth
            visited[new_idx] = True
            frontier = new_idx
        return result

    def compute_parents(self, result: BFSResult) -> np.ndarray:
        """Derive a BFS parent tree from a finished traversal.

        The bitmask kernels lose edge provenance (an OR of column words
        says *that* a vertex was reached, not *through which* edge), so
        parents are reconstructed in one vectorized pass over the
        stored edges: for every edge ``u -> v`` with
        ``level[u] == level[v] - 1``, ``u`` is a valid parent of ``v``;
        the smallest such ``u`` is chosen deterministically.  Sources
        and unreached vertices get ``-1``.  The array is also stored on
        ``result.parents``.
        """
        levels = result.levels
        parents = np.full(self.n, -1, dtype=np.int64)
        if self._sharded is not None:
            # same edge rule, sourced from the shards (loads each once)
            coo_parts = [self._sharded.matrix.to_coo()]
        else:
            coo_parts = [self.A1.to_coo()]
        if self.side.nnz:
            coo_parts.append(self.side)
        sentinel = np.iinfo(np.int64).max
        best = np.full(self.n, sentinel, dtype=np.int64)
        for coo in coo_parts:
            dst, src = coo.row, coo.col        # A[i, j] is edge j -> i
            lu, lv = levels[src], levels[dst]
            tree_edge = (lu >= 0) & (lv == lu + 1)
            if tree_edge.any():
                np.minimum.at(best, dst[tree_edge], src[tree_edge])
        found = best < sentinel
        parents[found] = best[found]
        result.parents = parents
        return parents

    def format_nbytes(self) -> int:
        """Footprint of the BFS storage (A1 + A2 + side COO); shared
        A1/A2 storage (symmetric patterns) is counted once."""
        if self._sharded is not None:
            return self._sharded.matrix.total_tile_bytes
        side = (self.side.row.nbytes + self.side.col.nbytes)
        a2 = 0 if self.A2.shares_storage_with(self.A1) \
            else self.A2.nbytes()
        return self.A1.nbytes() + a2 + side

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self._sharded is not None:
            return (f"<TileBFS n={self.n} nnz={self.nnz} nt={self.nt} "
                    f"shards={self._sharded.matrix.n_shards}>")
        return (f"<TileBFS n={self.n} nnz={self.nnz} nt={self.nt} "
                f"tiles={self.A1.n_nonempty_tiles}>")


def _build_bfs_plan(matrix, nt: Optional[int], extract_threshold: int,
                    key) -> OperatorPlan:
    """TileBFS preprocessing (the cache-miss path): COO conversion,
    tile-size selection, very-sparse-tile extraction, and the A1/A2
    bitmask compressions of Fig. 5."""
    coo = to_coo(matrix)
    if coo.shape[0] != coo.shape[1]:
        raise ShapeError(f"BFS requires a square matrix, got {coo.shape}")
    n = coo.shape[0]
    if nt is None:
        nt = select_tile_size(n)
    if nt not in SUPPORTED_TILE_SIZES:
        raise ShapeError(
            f"unsupported tile size {nt}; allowed: {SUPPORTED_TILE_SIZES}"
        )
    if extract_threshold > 0:
        hybrid = split_very_sparse_tiles(coo, nt, extract_threshold)
        dense_part = hybrid.tiled.to_coo()
        side = hybrid.side
    else:
        dense_part = coo
        side = COOMatrix.empty(coo.shape)
    A1 = BitTiledMatrix.from_coo(dense_part, nt, "csc")
    # For an undirected graph A1 and A2 hold identical arrays (§3.2.3),
    # so the storage is shared — "about half" the footprint.
    symmetric = pattern_is_symmetric(dense_part)
    if symmetric:
        A2 = A1.as_reinterpreted("csr")
    else:
        A2 = BitTiledMatrix.from_coo(dense_part, nt, "csr")
    plan = OperatorPlan(kind="tilebfs", key=tuple(key),
                        data={"n": n, "nnz": coo.nnz, "nt": nt,
                              "side": side, "A1": A1, "A2": A2,
                              "symmetric": symmetric})
    # A1 *is* the csc tiling of the same pattern, so Push-CSR's
    # active-column bit gather runs over it directly instead of
    # re-tiling A2 (both branches above build A1/A2 from dense_part).
    A2.attach_column_view(A1)
    # Warm the kernels' plan-time gather structures (cached on the
    # matrices, registered as lazy slots so the cost is paid here, in
    # the amortised preprocessing, not on the first traversal layer):
    # the column view and row-major ids driving the Push-CSR active
    # paths, the warp count of its launch model, and the Pull-CSC
    # full-mask template.
    plan.warm(
        a2_column_view=A2.column_view,
        a2_tile_majoridx=A2.tile_majoridx,
        a2_row_warp_count=A2.row_warp_count,
        a1_full_mask_words=A1.full_mask_words,
    )
    return plan


def tile_bfs(matrix, source: int, nt: Optional[int] = None,
             selector: Optional[KernelSelector] = None,
             device: Optional[Device] = None,
             max_depth: Optional[int] = None) -> BFSResult:
    """One-shot convenience wrapper: preprocess + traverse.

    For repeated traversals from different sources, build a
    :class:`TileBFS` once — that is the amortisation argument of the
    paper's §4.6.
    """
    return TileBFS(matrix, nt=nt, selector=selector,
                   device=device).run(source, max_depth=max_depth)
