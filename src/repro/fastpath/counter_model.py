"""The modeled counters of one TileBFS layer.

The fused layer kernels compute no counters.  Each layer instead builds
a zero-argument closure here over the layer's *inputs* (the frontier
and visited vectors, plus two side-kernel integers the fused side
traversal produces for free) that runs the counter function of
:mod:`repro.core.bfs_kernels` on them.  Those functions read only the
active side of the layer (frontier bits, active tiles, the early-exit
unvisited scan), so no layer's result is computed twice.  A
counters-on run calls the closure at once on the live vectors;
production mode captures snapshot copies (~16 KB each at scale 17) and
defers it to :meth:`~repro.runtime.context.ExecutionContext.replay`.

Exactness is structural, not re-derived: the modeled counters are a
pure function of the kernel inputs — the paper's cost model never
depends on host execution strategy — so both paths yield identical
counters, launch for launch.  The production-replay verify check and
the seed-loop test in ``tests/core/test_tilebfs.py`` enforce this.
"""

from __future__ import annotations

from typing import Callable, Optional, Tuple

from ..core.bfs_kernels import (pull_csc_counters, push_csc_counters,
                                push_csr_counters)
from ..core.selection import PULL_CSC, PUSH_CSC, PUSH_CSR
from ..gpusim import KernelCounters
from ..tiles.bitmask import BitVector

__all__ = ["layer_counter_closure", "side_counters"]


def side_counters(side_nnz: int, n_src_active: int,
                  n_claimed: int) -> KernelCounters:
    """The side-edge kernel's counters from its three determinants:
    stored edges, edges leaving the frontier, and edges whose
    destination was unvisited (one atomic claim each).  The per-edge
    kernel reads the 16-byte edge list once, checks the visited mask
    once per frontier edge and scatters once per claim (DESIGN.md §1).
    """
    c = KernelCounters(launches=1)
    c.coalesced_read_bytes += side_nnz * 16.0
    c.random_read_count += float(n_src_active)
    c.atomic_ops += float(n_claimed)
    c.random_write_count += float(n_claimed)
    c.warps = max(1.0, side_nnz / 32.0)
    return c


def layer_counter_closure(op, kernel_name: str, x: BitVector,
                          m: BitVector,
                          side_stats: Optional[Tuple[int, int]]
                          ) -> Callable[[], KernelCounters]:
    """A deferred computation of one fused BFS layer's merged counters.

    ``x`` / ``m`` are this layer's frontier and visited vectors (the
    live ones when the closure is called at once, snapshot copies when
    it is deferred — the live vectors ping-pong); ``side_stats`` is the
    ``(n_src_active, n_claimed)`` pair from :func:`fused_side`, or
    ``None`` when the plan has no extracted side edges.
    """
    A1, A2, side_nnz = op.A1, op.A2, op.side.nnz

    def compute() -> KernelCounters:
        if kernel_name == PUSH_CSC:
            counters = push_csc_counters(A1, x, m)
        elif kernel_name == PUSH_CSR:
            counters = push_csr_counters(A2, x, m)
        elif kernel_name == PULL_CSC:
            counters = pull_csc_counters(A1, x, m)
        else:  # pragma: no cover - dispatch is exhaustive
            raise ValueError(f"unknown kernel {kernel_name!r}")
        if side_stats is not None:
            counters = counters.merged(side_counters(side_nnz,
                                                     *side_stats))
        return counters

    return compute
