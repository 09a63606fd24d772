"""The fused TileBFS driver: one compiled call per layer.

:func:`run_fused` is the fast-path twin of
:meth:`repro.core.tilebfs.TileBFS.run_multi`.  It keeps the reference
loop's structure bit for bit — same scratch ping-pong, same §3.4
kernel selection (including the Pull-CSC symmetry fallback), same
results from each kernel — but every layer runs the
result-only fused kernels from :mod:`repro.fastpath.fused_layers` /
:mod:`repro.fastpath.numba_kernels`: no counter construction, no
launch-name formatting, no tracer plumbing in the loop.

Accounting never happens inline here.  :meth:`TileBFS.run_multi` only
routes to this driver when the context prices nothing (no device) or
defers everything (production mode); in the latter case each layer
appends one counter closure (:mod:`repro.fastpath.counter_model`) to
the context's replay log, so the full modeled timeline stays available
after the fact and matches a counters-on run exactly.
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
    """Run one traversal through the fused tier.

    ``op`` is a prepared in-core :class:`~repro.core.tilebfs.TileBFS`;
    sources are validated/deduplicated by the caller.  Iteration
    records carry ``simulated_ms=0.0`` — in production mode the priced
    timeline comes from ``op.ctx.replay()``.
    """
    from ..core.tilebfs import BFSResult, IterationRecord

    layout = bfs_layout(op)
    use_numba = fastpath_tier() == "numba"
    production = op.ctx.production

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
                kernel_name = PUSH_CSR
            if production:
                x_snap = x.words.copy()
                m_snap = m.words.copy()
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
            if layout.side_nnz and (not side_folded or production):
                side_stats = fused_side(layout, frontier_idx, m, y,
                                        want_stats=production,
                                        use_numba=use_numba,
                                        scatter=not side_folded)
            if production:
                op.ctx.defer(
                    _LAUNCH_NAMES[kernel_name],
                    layer_counter_closure(op, kernel_name, x_snap,
                                          m_snap, side_stats),
                    phase="iteration")

            n_new = y.count()
            result.iterations.append(IterationRecord(
                depth=depth, kernel=kernel_name,
                frontier_size=frontier_size,
                new_vertices=n_new, simulated_ms=0.0,
            ))
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
