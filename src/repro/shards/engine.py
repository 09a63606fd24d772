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
   shard's own tiling, priced by
   :func:`~repro.core.spmspv_kernels.tiled_counters`, plus the shard's
   metadata charge, tagged ``shard=<id>``;
4. ``sharded_combine`` — the scatter-gather combiner merging the strip
   outputs; modeled bytes are exactly ``2 * itemsize * sum(executed
   strip rows)`` (read every strip accumulator once, write it into the
   global result once).  The shard-count-invariance check recomputes
   this formula from the timeline tags and asserts equality.

``multiply_batch`` and ``multiply_block`` run the same four stages
priced as the union kernel (``sharded_spmspv_batch``) or the selector's
SpMM kernel (``sharded_spmm_shard``): all three share one strip loop,
and :func:`execute_shard` is the per-shard step the sequential loop and
the pool workers both run.

On the host a strip runs what an in-core multiply runs (see
:mod:`repro.core.spmspv_kernels`, "Matched-entry execution"): the
support of ``x`` is matched once against the strip's column
:class:`~repro.tiles.tiled_matrix.EntryIndex` and the products are
reduced by row into the strip's sparse result — no strip-length
accumulator unless the product is dense enough to want one.  A sparse
input goes straight to its support; its :class:`TiledVector` is built
only for the counters.  A shard stored on disk carries its entry index
(:func:`~repro.tiles.io.save_tiled_mmap`), so a fault maps it instead
of rebuilding it.

Per-shard preprocessing (the warmed active-set accessors) is cached in
the plan cache under ``("sharded-spmspv", matrix-id, shard-id)``; the
entry is pinned while the shard's kernel is in flight and invalidated
when the resident-set manager evicts the shard.

Row strips are tile-row aligned and ascending, so each output row is
produced by exactly one shard: a sparse result is the strips' results
concatenated in shard order, and a dense one assigns them into an
identity-filled accumulator — which is why 1-shard and N-shard
execution are bit-identical, not merely numerically close.

With more than one worker (``REPRO_WORKERS=N`` or ``parallel=N``) the
per-shard stage runs on the worker-pool executor instead of the
sequential loop: a cost-model work scheduler places shards on workers,
each worker executes its chunk against its private resident-set
slice, and the combiner assembles the landed results in shard
order.  Launch records are re-emitted in ascending shard order with
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

from .._util import group_starts, sorted_distinct
from ..core.selection import SPMM_MERGE_PATH, KernelSelector
from ..core.spmm import as_dense_block
from ..core.spmm_kernels import (row_tile_imbalance, spmm_merge_path_kernel,
                                 spmm_row_warp_kernel)
# the repository benchmark's per-layer timers patch as_tiled_vector
# and tiled_kernel by this path
from ..core.spmspv import as_tiled_vector  # noqa: F401
from ..core.spmspv import (VectorInput, VectorLike, _warm_active_set,
                           apply_output_mask, shape_output)
from ..core.spmspv_kernels import tiled_kernel  # noqa: F401
from ..core.spmspv_kernels import (batched_union_counters,
                                   matched_product, reduce_sparse,
                                   sparsify, tiled_counters)
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

    ``outs`` holds one ``(local_row_idx, values)`` pair per output —
    the strip's non-identity rows, ascending — so a process backend
    pickles the strip's answer, not the strip.
    """

    sid: int
    device: int                     # planned worker (the model's clock)
    worker: str                     # who actually ran it (pid / index)
    outs: List[Tuple[np.ndarray, np.ndarray]]
    counters: Optional[KernelCounters]
    loaded: int = 0
    evicted: int = 0


def execute_shard(host, sid: int, xs, batched: bool, with_counters: bool,
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

    With ``spmm_selector``, ``xs`` holds one dense block and the
    selector's SpMM kernel runs on the shard's own row-tile imbalance.
    Otherwise ``xs`` holds one ``(xt, (cols, xvals))`` input per vector
    (:meth:`~repro.core.spmspv.VectorInput._input`): every vector's
    support is matched against the strip's column entry index and
    reduced by row, and the counters — the union kernel's with
    ``batched``, else Algorithm 4's — read the ``xt``.
    """
    sr = host.semiring
    plan, loaded, evicted = host.acquire_shard(sid)
    try:
        A = plan.data["tiled"]
        if host.pattern_only:
            A = plan.lazy_get(
                "pattern", lambda: _pattern_view(plan.data["tiled"]))
        counters = None
        if spmm_selector is not None:
            imb = plan.lazy_get("spmm_imbalance",
                                lambda: row_tile_imbalance(A))
            fn = spmm_merge_path_kernel \
                if spmm_selector.choose_spmm(imb) == SPMM_MERGE_PATH \
                else spmm_row_warp_kernel
            Y, counters = fn(A, xs[0], semiring=sr,
                             with_counters=with_counters)
            # ship whole non-identity rows
            idx = np.flatnonzero((~sr.is_identity(Y)).any(axis=1))
            outs = [(idx, Y[idx])]
        else:
            entries = A.column_entries()
            outs = []
            for _, (cols, xvals) in xs:
                y = reduce_sparse(*matched_product(entries, cols, xvals, sr),
                                  sr, A.shape[0])
                outs.append((y.indices, y.values))
            if with_counters:
                xts = [xt for xt, _ in xs]
                counters = (batched_union_counters(A, xts) if batched
                            else tiled_counters(A, xts[0]))
    finally:
        host.release_shard(sid, plan)
    return ShardResult(sid=sid, device=device, worker=worker, outs=outs,
                       counters=counters, loaded=loaded, evicted=evicted)


class ShardedSpMSpV(VectorInput, ScopedOperator):
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

    def _inputs(self, xs) -> Tuple[list, np.ndarray]:
        """``(inputs, active_cols)`` of a multiply: every vector's
        :meth:`_input` — its :class:`TiledVector` only when counting —
        and the tile columns the scheduler sees active, unioned over
        the vectors.  A tile column is active when the vector stores
        an index in it, identity values included: for a sparse vector
        the distinct ``indices // nt``, else ``x_ptr >= 0``."""
        accounting = self.ctx.accounting
        inputs, active = [], []
        for x in xs:
            xt, support = self._input(x, accounting)
            if xt is None:
                tiles = x.indices // self.nt
                active.append(tiles[group_starts(tiles)])
            else:
                active.append(np.flatnonzero(xt.x_ptr >= 0))
            inputs.append((xt, support))
        if not inputs:
            raise ShapeError("batched SpMSpV needs at least one vector")
        cols = (active[0] if len(active) == 1
                else sorted_distinct(np.concatenate(active)))
        return inputs, cols

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
    def _strip_loop(self, xs, active_cols: np.ndarray, width: int,
                    batched: bool = False, spmm_selector=None,
                    tag: Optional[str] = None) -> List[ShardResult]:
        """Schedule, execute, combine — the skeleton of every sharded
        multiply.  Returns the executed shards' results in ascending
        shard order.

        ``width`` is the number of output values per strip row, which
        scales the combiner's byte formula.  With more than one worker
        the executed shards run on the pool and are ordered by shard id
        once they land (row strips are disjoint, so landing order
        cannot change a bit); their launch records are re-emitted in
        ascending shard order with ``device=`` / ``worker=`` tag parts,
        so the timeline is deterministic and matches the sequential one
        modulo those parts.  Counters stay inline even in production
        mode (the launch defers the priced record): replaying them
        later would have to re-fault evicted shards.
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
        workers = self.parallel
        if workers > 1 and executed.size:
            self._ensure_parallel(workers)
            self._last_plan = self._work.plan(executed, active_cols)
            landed = {res.sid: res for res in self._executor.run(
                self._last_plan, xs, batched, with_counters=accounting,
                spmm_selector=spmm_selector)}
            results = [landed[sid] for sid in sorted(landed)]
            if accounting:
                for res in results:
                    self._emit_shard(
                        res, name, phase,
                        f"{_shard_tag(res.sid, tag)};device={res.device}"
                        f";worker={res.worker}")
        else:
            results = []
            for sid in executed:
                res = execute_shard(self, int(sid), xs, batched,
                                    accounting, spmm_selector)
                results.append(res)
                if accounting:
                    self._emit_shard(res, name, phase,
                                     _shard_tag(res.sid, tag))
        if accounting:
            merged_rows = int(sum(self.matrix.strip_rows(int(s))
                                  for s in executed))
            self.ctx.launch(
                "sharded_combine",
                _combine_counters(merged_rows * width,
                                  np.dtype(self.semiring.dtype).itemsize),
                tag=tag, phase="combine")
        return results

    def _scatter(self, target: np.ndarray, results: List[ShardResult],
                 j: int = 0) -> np.ndarray:
        """Assign output ``j`` of every shard into the identity-filled
        ``target`` — row by row into a vector, as a row slab into a
        block (every output row belongs to exactly one strip)."""
        for res in results:
            idx, vals = res.outs[j]
            target[idx + self.matrix.strips[res.sid][0]] = vals
        return target

    def _concat(self, results: List[ShardResult], j: int = 0
                ) -> SparseVector:
        """Output ``j`` as a sparse vector: the strips' rows offset to
        global rows and concatenated — ascending, since the results
        and their strips are."""
        sr = self.semiring
        idx = [np.zeros(0, dtype=np.int64)]
        vals = [np.zeros(0, dtype=sr.dtype)]
        for res in results:
            r, v = res.outs[j]
            idx.append(r + self.matrix.strips[res.sid][0])
            vals.append(v)
        return SparseVector.trusted(self.shape[0], np.concatenate(idx),
                                    np.concatenate(vals))

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
        inputs, active_cols = self._inputs([x])
        results = self._strip_loop(inputs, active_cols, 1)
        if mask is None and output != "dense":
            return shape_output(self._concat(results), output, sr,
                                self.nt)
        y = self._scatter(np.full(self.shape[0], sr.add_identity,
                                  dtype=sr.dtype), results)
        if mask is not None:
            y = apply_output_mask(y, mask, mask_complement, sr, self.ctx)
        return shape_output(y, output, sr, self.nt)

    def multiply_batch(self, xs, output: str = "sparse",
                       tag: Optional[str] = None):
        """Batched multiply: one scheduling pass over the *union* of
        the batch's active tile columns, one union-kernel launch
        (:func:`~repro.core.spmspv_kernels.batched_union_counters`)
        per executed shard, one combiner for the whole batch.  On the
        host every vector runs the single-vector strip product."""
        if output not in ("sparse", "dense"):
            raise ShapeError(f"unknown output mode {output!r}")
        sr = self.semiring
        inputs, active_cols = self._inputs(xs)
        results = self._strip_loop(inputs, active_cols, len(inputs),
                                   batched=True, tag=tag)
        if output == "sparse":
            return [self._concat(results, j) for j in range(len(inputs))]
        Y = np.full((len(inputs), self.shape[0]), sr.add_identity,
                    dtype=sr.dtype)
        for j, y in enumerate(Y):
            self._scatter(y, results, j)
        return Y

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
        Y = self._scatter(
            np.full((m, Xb.B), sr.add_identity, dtype=sr.dtype),
            self._strip_loop([Xb], np.flatnonzero(active), Xb.B,
                             spmm_selector=selector, tag=tag))
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
