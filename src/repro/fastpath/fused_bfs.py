"""The TileBFS layer loop: one fused call per layer.

:func:`run_fused` is the in-core traversal behind
:meth:`repro.core.tilebfs.TileBFS.run_multi` (sharded matrices run
their own level loop).  Each layer picks Push-CSC / Push-CSR /
Pull-CSC with the §3.4 rule (including the Pull-CSC symmetry
fallback), runs the result-only fused kernel from
:mod:`repro.fastpath.fused_layers` / :mod:`repro.fastpath.numba_kernels`
and ORs the new vertices into the visited mask.

Accounting is one branch per layer.  The layer's counters are a pure
function of its inputs — the frontier and visited vectors plus the two
side-kernel integers :func:`fused_side` returns — so
:func:`~repro.fastpath.counter_model.layer_counter_closure` computes
them with the counter functions of :mod:`repro.core.bfs_kernels`,
which read only the layer's active side and build no result:

* counters-on (``ctx.active``): the closure runs at once on the live
  vectors, before the mask is updated, and the launch is priced inline;
* production mode: the closure is built on snapshot copies (the live
  vectors ping-pong) and deferred to the context's replay log;
* functional (no device): nothing counter-related is built.

Each layer's result is computed once, by the fused kernel, in every
mode.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..core.selection import PULL_CSC, PUSH_CSC, PUSH_CSR
from ..tiles.bitmask import BitVector
from .counter_model import layer_counter_closure
from .fused_layers import (FusedBFSLayout, fused_pull_csc, fused_push_csc,
                           fused_push_csr, fused_side)
from .runtime import fastpath_tier

__all__ = ["run_fused", "bfs_layout"]

#: Launch names precomputed per kernel — the hot loop must not build
#: format strings per layer (cheap-when-off tracing).
_LAUNCH_NAMES = {PUSH_CSC: "tilebfs_push_csc",
                 PUSH_CSR: "tilebfs_push_csr",
                 PULL_CSC: "tilebfs_pull_csc"}


def bfs_layout(op) -> FusedBFSLayout:
    """The plan's fused layout, built on first use and cached as a lazy
    plan slot (shared with every operator on the same plan)."""
    return op._plan.lazy_get(
        "fastpath_layout",
        lambda: FusedBFSLayout(op.A1, op.A2, op.side, op.n, op.nt))


def run_fused(op, sources: Sequence[int],
              max_depth: Optional[int]) -> "BFSResult":
    """Run one traversal of a prepared in-core
    :class:`~repro.core.tilebfs.TileBFS`.

    Sources are validated/deduplicated by the caller.  Iteration
    records carry the layer's priced ``simulated_ms`` when the context
    is counters-on, and ``0.0`` otherwise — in production mode the
    priced timeline comes from ``op.ctx.replay()``.
    """
    from ..core.tilebfs import BFSResult, IterationRecord

    layout = bfs_layout(op)
    use_numba = fastpath_tier() == "numba"
    ctx = op.ctx
    accounting = ctx.accounting
    active = ctx.active

    levels = np.full(op.n, -1, dtype=np.int64)
    levels[sources] = 0
    plan = op._plan
    workspaces = [
        plan.acquire_scratch(
            "bitvector", lambda: BitVector.zeros(op.n, op.nt))
        for _ in range(3)]
    try:
        x, y, m = workspaces
        x.clear()
        x.set_indices(sources)
        m.words[:] = x.words
        result = BFSResult(levels=levels)
        depth = 0
        frontier_idx = np.asarray(sources, dtype=np.int64)
        frontier_size = len(frontier_idx)
        visited_count = frontier_size

        while frontier_size > 0:
            if max_depth is not None and depth >= max_depth:
                break
            depth += 1
            kernel_name = op.selector.choose(
                frontier_sparsity=frontier_size / op.n,
                unvisited_fraction=(op.n - visited_count) / op.n,
            )
            if kernel_name == PULL_CSC and not op.symmetric:
                # Pull-CSC (Alg. 7) reads a vertex's stored column as
                # its in-edges, which only holds when the tiled pattern
                # is symmetric; on a directed graph pulling would
                # traverse edges backwards, so fall back to the
                # matrix-driven push form for this layer
                kernel_name = PUSH_CSR
            y.clear()
            side_folded = False
            if kernel_name == PUSH_CSC:
                fused_push_csc(layout, frontier_idx, m, y, use_numba)
            elif kernel_name == PUSH_CSR:
                side_folded = fused_push_csr(layout, frontier_idx, x, m,
                                             y, use_numba)
            else:
                fused_pull_csc(layout, m, y, use_numba)
            side_stats = None
            if layout.side_nnz and (not side_folded or accounting):
                side_stats = fused_side(layout, frontier_idx, m, y,
                                        want_stats=accounting,
                                        use_numba=use_numba,
                                        scatter=not side_folded)
            ms = 0.0
            if active:
                # x and m still hold this layer's inputs
                counters = layer_counter_closure(
                    op, kernel_name, x, m, side_stats)()
                ms = ctx.launch(_LAUNCH_NAMES[kernel_name], counters,
                                phase="iteration")
            elif accounting:
                ctx.defer(
                    _LAUNCH_NAMES[kernel_name],
                    layer_counter_closure(op, kernel_name, x.copy(),
                                          m.copy(), side_stats),
                    phase="iteration")

            n_new = y.count()
            result.iterations.append(IterationRecord(
                depth=depth, kernel=kernel_name,
                frontier_size=frontier_size,
                new_vertices=n_new, simulated_ms=ms,
            ))
            result.simulated_ms += ms
            if n_new == 0:
                break
            new_idx = y.to_indices()
            levels[new_idx] = depth
            m |= y
            visited_count += n_new
            x, y = y, x
            frontier_idx = new_idx
            frontier_size = n_new
        return result
    finally:
        for ws in workspaces:
            plan.release_scratch("bitvector", ws)
