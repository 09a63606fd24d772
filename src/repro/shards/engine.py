"""The sharded SpMSpV engine: schedule, stream, execute, combine.

One multiply over a :class:`~repro.shards.sharded_matrix.ShardedTiledMatrix`
runs four modeled stages, all visible on the device timeline:

1. ``sharded_schedule`` — the scheduler ANDs every shard's tile-column
   occupancy bitmap against the input's active tile columns (per-shard
   metadata read charge);
2. ``shard_load`` (per executed shard, only when the resident set
   faulted) — the load/evict byte traffic of the resident-set manager,
   tagged ``shard=<id>``;
3. ``sharded_spmspv_shard`` (per executed shard) — Algorithm 4 over the
   shard's own tiling via :func:`~repro.core.spmspv_kernels.tiled_kernel`,
   plus the shard's metadata charge, tagged ``shard=<id>``;
4. ``sharded_combine`` — the scatter-gather combiner merging the strip
   outputs through :meth:`~repro.semiring.Semiring.scatter_merge`;
   modeled bytes are exactly ``2 * itemsize * sum(executed strip
   rows)`` (read every strip accumulator once, write it into the global
   result once).  The shard-count-invariance check recomputes this
   formula from the timeline tags and asserts equality.

``multiply_batch`` and ``multiply_block`` run the same four stages
with the union kernel (``sharded_spmspv_batch``) or the selector's SpMM
kernel (``sharded_spmm_shard``): all three share one strip loop, and
:func:`execute_shard` is the per-shard step the sequential loop and the
pool workers both run.

Per-shard preprocessing (the warmed active-set accessors) is cached in
the plan cache under ``("sharded-spmspv", matrix-id, shard-id)``; the
entry is pinned while the shard's kernel is in flight and invalidated
when the resident-set manager evicts the shard.

Row strips are tile-row aligned, so each output row is produced by
exactly one shard and the combiner merges disjoint ranges into an
identity-filled accumulator — which is why 1-shard and N-shard
execution are bit-identical, not merely numerically close.

With more than one worker (``REPRO_WORKERS=N`` or ``parallel=N``) the
per-shard stage runs on the worker-pool executor instead of the
sequential loop: a cost-model work scheduler places shards on workers,
each worker executes its chunk against its private resident-set
slice, and the combiner merges results as they land.  Launch records
are re-emitted in ascending shard order with
``device=<id>;worker=<id>`` tag parts, so the timeline (and the
production replay log) stays deterministic and bit-identical to
sequential execution modulo those tag parts —
:meth:`ShardedSpMSpV.multi_timeline` re-partitions it into per-device
clocks to price the overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from ..core.selection import SPMM_MERGE_PATH, KernelSelector
from ..core.spmm import as_dense_block
from ..core.spmm_kernels import (row_tile_imbalance, spmm_merge_path_kernel,
                                 spmm_row_warp_kernel)
from ..core.spmspv import (VectorLike, _warm_active_set,
                           apply_output_mask, as_tiled_vector,
                           shape_output, sparsify)
from ..core.spmspv_kernels import batched_union_kernel, tiled_kernel
from ..errors import ShapeError
from ..gpusim import Device, KernelCounters
from ..runtime import (OperatorPlan, PlanCache, ScopedOperator,
                       default_plan_cache, matrix_token)
from ..semiring import PLUS_TIMES, Semiring
from ..tiles.tiled_matrix import TiledMatrix
from ..tiles.tiled_vector import TiledVector
from ..vectors.sparse_vector import SparseVector
from .scheduler import ShardScheduler
from .sharded_matrix import ShardedTiledMatrix

__all__ = ["ShardedSpMSpV", "ShardResult", "execute_shard"]


def _load_counters(loaded_bytes: int, evicted_bytes: int
                   ) -> KernelCounters:
    """Resident-set traffic of one shard fault: bytes paged in for the
    shard, bytes written back out for whatever its arrival evicted."""
    c = KernelCounters(launches=1)
    c.coalesced_read_bytes += float(loaded_bytes)
    c.coalesced_write_bytes += float(evicted_bytes)
    c.warps = max(1.0, loaded_bytes / (32.0 * 128.0))
    return c


def _combine_counters(merged_rows: int, itemsize: int) -> KernelCounters:
    """The combiner's exact byte formula: every executed strip's
    accumulator is read once and written into the global result once —
    ``2 * itemsize * merged_rows`` total."""
    c = KernelCounters(launches=1)
    c.coalesced_read_bytes += float(merged_rows * itemsize)
    c.coalesced_write_bytes += float(merged_rows * itemsize)
    c.warps = max(1.0, merged_rows / (32.0 * 32.0))
    return c


def _shard_tag(sid: int, caller_tag: Optional[str] = None) -> str:
    """Launch tag of one shard's work.  Callers build it only when the
    context is accounting — the hot loop must not format tag strings
    that no tracer or device will ever see."""
    if caller_tag is None:
        return f"shard={sid}"
    return f"{caller_tag};shard={sid}"


def _pattern_view(tiled: TiledMatrix) -> TiledMatrix:
    """The shard's tiling with all-ones values (same index arrays): a
    multiply under plus_times then counts matched edges per row, which
    is the exact reachability BFS needs regardless of the stored
    values.  ``validate=False`` — the index arrays are the already
    validated ones of the source tiling, whose column order it reuses."""
    return _warm_active_set(TiledMatrix(
        tiled.shape, tiled.nt, tiled.tile_ptr, tiled.tile_colidx,
        tiled.tile_nnz_ptr, tiled.local_row, tiled.local_col,
        np.ones(tiled.nnz, dtype=np.float64), validate=False,
        column_order=tiled.column_order()))


def _shard_plan(key, tiled: TiledMatrix) -> OperatorPlan:
    """A shard's plan: its tiling with the active-set caches warmed."""
    return OperatorPlan(kind="sharded-spmspv", key=key,
                        data={"tiled": _warm_active_set(tiled)})


@dataclass
class ShardResult:
    """One shard's finished work, as shipped back to the strip loop.

    ``outs`` holds one ``(local_row_idx, values)`` pair per output
    accumulator — already compressed to non-identity rows, so a process
    backend pickles the strip's answer, not the strip.
    """

    sid: int
    device: int                     # planned worker (the model's clock)
    worker: str                     # who actually ran it (pid / index)
    outs: List[Tuple[np.ndarray, np.ndarray]]
    counters: Optional[KernelCounters]
    loaded: int = 0
    evicted: int = 0


def execute_shard(host, sid: int, xts, batched: bool, with_counters: bool,
                  spmm_selector=None, device: int = 0,
                  worker: str = "") -> ShardResult:
    """Run one shard start to finish — the step the sequential strip
    loop and every pool worker share.

    ``host`` owns the shard's residency and plan: the
    :class:`ShardedSpMSpV` itself (the matrix's resident set, the
    engine's plan cache) or a pool worker's
    :class:`~repro.parallel.executor.WorkerSlice`.  Its
    ``acquire_shard(sid)`` returns ``(plan, loaded_bytes,
    evicted_bytes)`` with the shard resident and both shard and plan
    pinned; ``release_shard(sid, plan)`` unpins them.

    The kernel: with ``spmm_selector`` the selector's SpMM kernel on the
    shard's own row-tile imbalance (``xts`` holds one dense block);
    with ``batched`` the union kernel over the batch; otherwise
    Algorithm 4 on ``xts[0]``.
    """
    sr = host.semiring
    plan, loaded, evicted = host.acquire_shard(sid)
    try:
        A = plan.data["tiled"]
        if host.pattern_only:
            A = plan.lazy_get(
                "pattern", lambda: _pattern_view(plan.data["tiled"]))
        if spmm_selector is not None:
            imb = plan.lazy_get("spmm_imbalance",
                                lambda: row_tile_imbalance(A))
            fn = spmm_merge_path_kernel \
                if spmm_selector.choose_spmm(imb) == SPMM_MERGE_PATH \
                else spmm_row_warp_kernel
            Y, counters = fn(A, xts[0], semiring=sr,
                             with_counters=with_counters)
            Ys = [Y]
        elif batched:
            Ys, counters = batched_union_kernel(
                A, xts, semiring=sr, with_counters=with_counters)
        else:
            y, counters = tiled_kernel(A, xts[0], semiring=sr,
                                       with_counters=with_counters)
            Ys = [y]
    finally:
        host.release_shard(sid, plan)
    outs = []
    for y in Ys:
        occupied = ~sr.is_identity(y)
        if y.ndim == 2:
            # SpMM strip: ship whole non-identity rows
            occupied = occupied.any(axis=1)
        idx = np.flatnonzero(occupied)
        outs.append((idx, y[idx]))
    return ShardResult(sid=sid, device=device, worker=worker, outs=outs,
                       counters=counters, loaded=loaded, evicted=evicted)


class ShardedSpMSpV(ScopedOperator):
    """SpMSpV over row-strip shards with out-of-core tile storage.

    Parameters
    ----------
    matrix:
        A prebuilt :class:`~repro.shards.sharded_matrix.ShardedTiledMatrix`
        (its own ``nt`` and sharding win), or any library sparse matrix
        / ndarray, sharded here via
        :meth:`~repro.shards.sharded_matrix.ShardedTiledMatrix.from_coo`.
    nt, n_shards, rows_per_shard, store_dir, budget_bytes:
        Forwarded to ``from_coo`` when ``matrix`` is not already
        sharded.
    semiring:
        The ``(add, mul)`` algebra; default ordinary ``(+, *)``.
    device:
        Optional simulated GPU (or shared
        :class:`~repro.runtime.ExecutionContext`).
    pattern_only:
        Execute each shard over its all-ones pattern view instead of
        its stored values (cached per shard plan).  The BFS loop sets
        this: reachability must not depend on stored values cancelling.
    parallel:
        The worker count: ``None`` (default) reads ``REPRO_WORKERS`` on
        every multiply; a positive ``int`` fixes it.  Counts above 1
        route the per-shard stage through the pool executor, whose
        backend the shard store picks (:mod:`repro.parallel.config`) —
        results stay bit-identical to sequential.
    """

    operator = "sharded-spmspv"

    def __init__(self, matrix, nt: int = 16,
                 semiring: Semiring = PLUS_TIMES,
                 device: Optional[Device] = None,
                 n_shards: int = 2,
                 rows_per_shard: Optional[int] = None,
                 store_dir=None,
                 budget_bytes: Optional[int] = None,
                 plan_cache: Optional[PlanCache] = None,
                 pattern_only: bool = False,
                 parallel=None):
        super().__init__(device)
        self.semiring = semiring
        self.pattern_only = bool(pattern_only)
        if isinstance(matrix, ShardedTiledMatrix):
            self.matrix = matrix
        else:
            self.matrix = ShardedTiledMatrix.from_coo(
                matrix, nt=nt,
                n_shards=None if rows_per_shard is not None else n_shards,
                rows_per_shard=rows_per_shard, store_dir=store_dir,
                budget_bytes=budget_bytes)
        self.cache = plan_cache if plan_cache is not None \
            else default_plan_cache()
        self.scheduler = ShardScheduler(self.matrix)
        self.matrix.resident.evict_callbacks.append(
            self._invalidate_plan)
        # validate eagerly; None stays None so the env is re-read on
        # every multiply (tests monkeypatch REPRO_WORKERS)
        if parallel is not None:
            if not isinstance(parallel, int) or isinstance(parallel, bool):
                raise TypeError(f"parallel must be None or an int worker "
                                f"count, got {parallel!r}")
            if parallel < 1:
                raise ValueError(f"workers must be >= 1, got {parallel}")
        self._parallel_arg = parallel
        self._work = None
        self._executor = None
        self._last_plan = None

    # ------------------------------------------------------------------
    @property
    def shape(self):
        return self.matrix.shape

    @property
    def nt(self) -> int:
        return self.matrix.nt

    @property
    def nnz(self) -> int:
        return self.matrix.nnz

    # ------------------------------------------------------------------
    def _plan_key(self, sid: int):
        return ("sharded-spmspv", matrix_token(self.matrix), sid)

    def _invalidate_plan(self, sid: int) -> None:
        self.cache.remove(self._plan_key(sid))

    def acquire_shard(self, sid: int):
        """Fault the shard in and pin it and its plan (the host side of
        :func:`execute_shard`)."""
        tiled, loaded, evicted = self.matrix.shard(sid)
        key = self._plan_key(sid)
        plan = self.cache.get_or_build(
            key, lambda: _shard_plan(key, tiled), pin=self.matrix)
        self.cache.pin(key)
        self.matrix.resident.pin(sid)
        return plan, loaded, evicted

    def release_shard(self, sid: int, plan: OperatorPlan) -> None:
        self.matrix.resident.unpin(sid)
        self.cache.unpin(plan.key)

    def _as_tiled_vector(self, x: VectorLike) -> TiledVector:
        return as_tiled_vector(x, self.matrix.nt,
                               float(self.semiring.add_identity),
                               dtype=self.semiring.dtype)

    # ------------------------------------------------------------------
    # parallel execution
    # ------------------------------------------------------------------
    @property
    def parallel(self) -> int:
        """The worker count of the next multiply (reads
        ``REPRO_WORKERS`` when none was pinned)."""
        from ..parallel.config import env_workers
        return (self._parallel_arg if self._parallel_arg is not None
                else env_workers())

    def _ensure_parallel(self, workers: int):
        """(Re)build the work scheduler and pool executor for
        ``workers`` when the count changed."""
        if self._executor is not None:
            if self._executor.workers == workers:
                return
            self._executor.close()
        from ..parallel.executor import ParallelExecutor
        from ..parallel.work import WorkScheduler
        self._work = WorkScheduler(self.matrix, workers)
        self._executor = ParallelExecutor(
            self.matrix, workers, self.semiring, self.pattern_only,
            plan_cache=self.cache,
            plan_token=matrix_token(self.matrix))

    def seed_affinity_from_residency(self) -> int:
        """Seed the planner's sticky map from current slice residency,
        so the next plan routes shards to the workers already holding
        their pages (the BatchQueue's shard-affinity routing hook).
        Returns how many shard→worker preferences were seeded."""
        if self._executor is None or self._work is None:
            return 0
        seeded = 0
        for slc in self._executor.slices:
            for sid in slc.resident.resident_ids:
                self._work.seed_affinity(sid, slc.wid)
                seeded += 1
        return seeded

    # ------------------------------------------------------------------
    # the strip loop
    # ------------------------------------------------------------------
    def _strip_loop(self, xts, active_cols: np.ndarray, targets, width: int,
                    batched: bool = False, spmm_selector=None,
                    tag: Optional[str] = None) -> None:
        """Schedule, execute, merge, combine — the skeleton of every
        sharded multiply.

        ``targets`` holds one identity-filled accumulator per output
        (a 2-D block accumulator for SpMM); ``width`` is the number of
        output values per strip row, which scales the combiner's byte
        formula.  With more than one worker the executed shards run on
        the pool and merge the moment they land (row strips are
        disjoint, so landing order cannot change a bit); their launch
        records are re-emitted in ascending shard order with
        ``device=`` / ``worker=`` tag parts, so the timeline is
        deterministic and matches the sequential one modulo those
        parts.  Counters stay inline even in production mode (the
        launch defers the priced record): replaying them later would
        have to re-fault evicted shards.
        """
        accounting = self.ctx.accounting
        executed = self.scheduler.schedule(active_cols)
        if accounting:
            self.ctx.launch("sharded_schedule",
                            self.scheduler.schedule_counters(), tag=tag,
                            phase="schedule")
        if spmm_selector is not None:
            name, phase = "sharded_spmm_shard", "spmm"
        elif batched:
            name, phase = "sharded_spmspv_batch", "batch"
        else:
            name, phase = "sharded_spmspv_shard", "multiply"
        if spmm_selector is None:
            # each vector's support is found once here and cached on
            # it, not once per strip (pool workers receive it with x)
            for xt in xts:
                xt.support(self.semiring)
        workers = self.parallel
        if workers > 1 and executed.size:
            self._ensure_parallel(workers)
            self._last_plan = self._work.plan(executed, active_cols)
            landed = {}
            for res in self._executor.run(self._last_plan, xts, batched,
                                          with_counters=accounting,
                                          spmm_selector=spmm_selector):
                self._merge(targets, res)
                landed[res.sid] = res
            if accounting:
                for sid in sorted(landed):
                    res = landed[sid]
                    self._emit_shard(
                        res, name, phase,
                        f"{_shard_tag(sid, tag)};device={res.device}"
                        f";worker={res.worker}")
        else:
            for sid in executed:
                res = execute_shard(self, int(sid), xts, batched,
                                    accounting, spmm_selector)
                self._merge(targets, res)
                if accounting:
                    self._emit_shard(res, name, phase,
                                     _shard_tag(res.sid, tag))
        if accounting:
            merged_rows = int(sum(self.matrix.strip_rows(int(s))
                                  for s in executed))
            self.ctx.launch(
                "sharded_combine",
                _combine_counters(merged_rows * width,
                                  targets[0].dtype.itemsize),
                tag=tag, phase="combine")

    def _merge(self, targets, res: ShardResult) -> None:
        """Fold one shard's rows into the accumulators: scatter-merged
        into vector accumulators, assigned as a row slab into a block
        accumulator (every output row belongs to exactly one strip)."""
        lo, _hi = self.matrix.strips[res.sid]
        for target, (idx, vals) in zip(targets, res.outs):
            if idx.size:
                if vals.ndim == 2:
                    target[idx + lo] = vals
                else:
                    self.semiring.scatter_merge(target, idx + lo, vals)

    def _emit_shard(self, res: ShardResult, name: str, phase: str,
                    tag: str) -> None:
        """One executed shard's launch records: its resident-set
        traffic, then its kernel plus the shard's metadata charge."""
        if res.loaded or res.evicted:
            self.ctx.launch("shard_load",
                            _load_counters(res.loaded, res.evicted),
                            tag=tag, phase="load")
        res.counters.coalesced_read_bytes += float(
            self.matrix.metadata_nbytes_per_shard())
        self.ctx.launch(name, res.counters, tag=tag, phase=phase)

    def multi_timeline(self, n_devices: Optional[int] = None):
        """The multi-device view of the recorded timeline.

        Re-partitions the context's launch records by their
        ``device=`` tags (see
        :meth:`~repro.gpusim.MultiDeviceTimeline.from_device`); in
        production mode the replay log is priced first, so deferred
        per-worker counters land on the merged timeline identically.
        """
        from ..gpusim import MultiDeviceTimeline
        if self.ctx.production:
            dev = self.ctx.replay()
        else:
            dev = self.ctx.device
        if dev is None:
            raise ValueError("multi_timeline needs a device-attached "
                             "or production context")
        return MultiDeviceTimeline.from_device(dev, n_devices)

    # ------------------------------------------------------------------
    def multiply(self, x: VectorLike, output: str = "sparse",
                 mask: Optional[VectorLike] = None,
                 mask_complement: bool = False,
                 ) -> Union[SparseVector, TiledVector, np.ndarray]:
        """Compute ``y = A x`` across the executed shards.

        Same contract as :meth:`repro.core.TileSpMSpV.multiply`
        (output modes, masking) — callers switch matrix type, not API.
        """
        if output not in ("sparse", "tiled", "dense"):
            raise ShapeError(f"unknown output mode {output!r}")
        sr = self.semiring
        m, n = self.matrix.shape
        xt = self._as_tiled_vector(x)
        if xt.n != n:
            raise ShapeError(
                f"SpMSpV shape mismatch: A is {self.matrix.shape}, "
                f"x has length {xt.n}"
            )
        y = np.full(m, sr.add_identity, dtype=sr.dtype)
        self._strip_loop([xt], np.flatnonzero(xt.x_ptr >= 0), [y], 1)
        if mask is not None:
            y = apply_output_mask(y, mask, mask_complement, sr, self.ctx)
        return shape_output(y, output, sr, self.matrix.nt)

    def multiply_batch(self, xs, output: str = "sparse",
                       tag: Optional[str] = None):
        """Batched multiply: one scheduling pass over the *union* of
        the batch's active tile columns, one
        :func:`~repro.core.spmspv_kernels.batched_union_kernel` launch
        per executed shard, one combiner for the whole batch."""
        if output not in ("sparse", "dense"):
            raise ShapeError(f"unknown output mode {output!r}")
        sr = self.semiring
        m, n = self.matrix.shape
        xts = [self._as_tiled_vector(x) for x in xs]
        if not xts:
            raise ShapeError("batched SpMSpV needs at least one vector")
        for xt in xts:
            if xt.n != n:
                raise ShapeError(
                    f"SpMSpV shape mismatch: A is {self.matrix.shape}, "
                    f"x has length {xt.n}"
                )
        union_active = np.zeros(xts[0].x_ptr.shape[0], dtype=bool)
        for xt in xts:
            union_active |= xt.x_ptr >= 0
        Y = np.full((len(xts), m), sr.add_identity, dtype=sr.dtype)
        self._strip_loop(xts, np.flatnonzero(union_active), list(Y),
                         len(xts), batched=True, tag=tag)
        if output == "dense":
            return Y
        return [sparsify(y, sr) for y in Y]

    def multiply_block(self, X, output: str = "dense",
                       tag: Optional[str] = None, selector=None):
        """SpMM strip by strip: one scheduling pass over the union of
        the block's active tile columns, one selector-chosen SpMM
        kernel launch per executed shard (``sharded_spmm_shard``), one
        combiner for the whole ``(m, B)`` result.

        Row strips are disjoint, so each shard's 2-D row slab is
        *assigned* into the identity-filled accumulator — which is why
        1-shard, N-shard, and multi-worker execution are all
        bit-identical to each other, and column ``j`` of the result is
        bit-identical to :meth:`multiply` on column ``j`` of the block.
        """
        if output not in ("dense", "sparse"):
            raise ShapeError(f"unknown output mode {output!r}")
        if selector is None:
            selector = KernelSelector()
        sr = self.semiring
        m, n = self.matrix.shape
        Xb = as_dense_block(X, self.matrix.nt,
                            float(sr.add_identity), dtype=sr.dtype)
        if Xb.n != n:
            raise ShapeError(
                f"SpMM shape mismatch: A is {self.matrix.shape}, "
                f"X has {Xb.n} rows"
            )
        # a tile column is active when any column of the block has a
        # non-sentinel value in it — the same activity test the SpMM
        # fold applies per column, unioned across the block
        tiles = Xb.data.reshape(-1, Xb.nt, Xb.B)
        if np.isnan(Xb.fill):  # pragma: no cover - defensive
            active = np.any(~np.isnan(tiles), axis=(1, 2))
        else:
            active = np.any(tiles != Xb.fill, axis=(1, 2))
        Y = np.full((m, Xb.B), sr.add_identity, dtype=sr.dtype)
        self._strip_loop([Xb], np.flatnonzero(active), [Y], Xb.B,
                         spmm_selector=selector, tag=tag)
        if output == "dense":
            return Y
        return [sparsify(Y[:, j], sr) for j in range(Xb.B)]

    # ------------------------------------------------------------------
    def stats(self) -> dict:
        """Scheduler skip counts and resident-set traffic, merged.

        When the pool executor is active, worker-slice traffic (loads,
        hits, evictions, bytes) is summed into the resident-set keys,
        and the work scheduler's placement counters ride along.
        """
        out = dict(self.scheduler.stats())
        res = dict(self.matrix.resident.stats())
        if self._executor is not None:
            ex = self._executor.stats()
            for key in ("loads", "hits", "evictions", "loaded_bytes",
                        "evicted_bytes", "resident_shards",
                        "resident_bytes"):
                res[key] = res.get(key, 0) + ex.get(key, 0)
            out["prefetches"] = ex["prefetches"]
            out["workers"] = self._executor.workers
            out["backend"] = self._executor.backend
            out.update(self._work.stats())
        out.update(res)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ShardedSpMSpV {self.matrix.shape} "
                f"nt={self.matrix.nt} "
                f"shards={self.matrix.n_shards}>")
