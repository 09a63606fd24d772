"""The TileBFS layer loop: one fused call per layer.

Per-layer Python dispatch — kernel selection, counter tallies, launch
bookkeeping, small-array launches — used to dominate the BFS hot loop.
This package collapses one whole BFS layer into a single call, and is
the only in-core TileBFS layer loop:

* :mod:`~repro.fastpath.numba_kernels` — loop-level fused kernels,
  ``@njit(cache=True)``-compiled when the ``fastpath`` extra is
  installed;
* :mod:`~repro.fastpath.fused_layers` — the plan-time
  :class:`~repro.fastpath.fused_layers.FusedBFSLayout` (compressed
  word-level sweep, side-edge CSC index, reusable buffers) and the
  mega-batched vectorized NumPy tier;
* :mod:`~repro.fastpath.fused_bfs` — the layer loop
  :meth:`~repro.core.tilebfs.TileBFS.run_multi` runs;
* :mod:`~repro.fastpath.counter_model` — each layer's modeled
  counters, priced inline on a counters-on run or deferred to a
  production replay.

:func:`fastpath_tier` picks the Numba or NumPy kernels
(``REPRO_FASTPATH`` env: ``auto`` / ``numba`` / ``numpy``).
"""

from .runtime import FASTPATH_ENV, fastpath_tier, numba_available

__all__ = ["FASTPATH_ENV", "fastpath_tier", "numba_available"]
