"""The worker-pool shard executor: slices, backends, prefetch.

Each worker owns a :class:`WorkerSlice` — a private attachment of the
shard store (:meth:`~repro.shards.store.DirectoryShardStore.attach`),
its own byte-budgeted :class:`~repro.shards.store.ResidentSetManager`
(``engine budget // workers``), and its own warmed per-shard plans — so
workers share *no* mutable state and a shard's pages stay hot on the
worker that keeps running it (see sticky affinity in
:mod:`repro.parallel.work`).

Two backends behind one ``run()`` generator, picked by the shard
store (:mod:`repro.parallel.config`):

* ``thread`` — a process-wide shared
  :class:`~concurrent.futures.ThreadPoolExecutor`; chunk results are
  yielded as futures land (the asynchronous combine).
* ``process`` — ``fork``-context ``multiprocessing`` pools; each
  worker process lazily builds its slices from a pickled descriptor
  (the directory store ships as its root path and re-attaches), and
  chunk results stream back as they complete.

Whatever the backend, results are **bit-identical** to the sequential
engine: row strips are disjoint and assembled in shard order, and each
shard's product runs on the same warmed tiling the sequential path
would use.  The coordinator re-emits launch
records in ascending shard order, so the modeled timeline (and the
production replay log) is deterministic too — only the ``device=`` /
``worker=`` tag parts say where a shard actually ran.

Prefetch: while a chunk computes shard *i*, a lookahead walker touches
the mmap pages of shards ``i+1 .. i+PREFETCH_DEPTH`` of the same
chunk, so the page-in cost overlaps the current kernel.  Load/evict
bytes caused by a prefetch are parked per shard and claimed by the
compute that consumes it — without eviction pressure the launch record
stream is the one the sequential engine, which never prefetches,
emits.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..runtime import OperatorPlan, PlanCache
from ..semiring import Semiring
from ..shards.engine import ShardResult, _shard_plan, execute_shard
from ..shards.store import ResidentSetManager
from ..tiles.tiled_matrix import TiledMatrix
from .config import _backend_for, _slice_budget
from .work import WorkPlan

__all__ = ["ShardResult", "WorkerSlice", "ParallelExecutor"]

#: The arrays of a tiled shard whose pages the prefetcher touches.
_TILED_ARRAYS = ("tile_ptr", "tile_colidx", "tile_nnz_ptr",
                 "local_row", "local_col", "values")

_PAGE = 4096

#: How many upcoming shards of a chunk the prefetcher touches ahead of
#: the compute loop.
PREFETCH_DEPTH = 1


def _touch_pages(tiled: TiledMatrix) -> int:
    """Read one byte per page of every payload array (best effort).

    Forces the OS to fault mmap pages in ahead of the kernel; on an
    in-memory store it is a cheap strided read.  Returns pages touched.
    """
    touched = 0
    for name in _TILED_ARRAYS:
        arr = np.ascontiguousarray(getattr(tiled, name)) \
            if not getattr(tiled, name).flags["C_CONTIGUOUS"] \
            else getattr(tiled, name)
        raw = arr.view(np.uint8).reshape(-1)
        if raw.size:
            touched += int(raw[::_PAGE].size)
            # the sum forces the reads; the value is irrelevant
            int(raw[::_PAGE].sum())
    return touched


class WorkerSlice:
    """One worker's private store attachment, resident slice, plans."""

    def __init__(self, wid: int, store, budget_bytes: Optional[int],
                 semiring: Semiring, pattern_only: bool,
                 plan_cache: Optional[PlanCache] = None,
                 plan_token=None):
        self.wid = int(wid)
        self.store = store
        self.resident = ResidentSetManager(store, budget_bytes)
        self.resident.evict_callbacks.append(self._drop_plan)
        self.semiring = semiring
        self.pattern_only = bool(pattern_only)
        # a process worker has no shared cache: it keeps a private one
        self.cache = plan_cache if plan_cache is not None else PlanCache()
        self.plan_token = plan_token
        self._lock = threading.Lock()
        # load/evict bytes a prefetch caused, claimed by the compute
        # that consumes the shard (keeps the launch stream identical
        # with prefetch on or off)
        self._pending_loads: Dict[int, int] = {}
        self._pending_evicts: Dict[int, int] = {}
        self.prefetches = 0

    # ------------------------------------------------------------------
    def _plan_key(self, sid: int):
        return ("sharded-spmspv", self.plan_token, sid, "w", self.wid)

    def _drop_plan(self, sid: int) -> None:
        self.cache.remove(self._plan_key(sid))

    # ------------------------------------------------------------------
    def prefetch(self, sid: int) -> None:
        """Fault the shard into this slice and touch its pages; the
        I/O bytes are parked for the compute that will claim them."""
        sid = int(sid)
        with self._lock:
            if sid in self.resident.resident_ids:
                return
            tiled, loaded, evicted = self.resident.get(sid)
            if loaded:
                self._pending_loads[sid] = \
                    self._pending_loads.get(sid, 0) + loaded
            if evicted:
                self._pending_evicts[sid] = \
                    self._pending_evicts.get(sid, 0) + evicted
        _touch_pages(tiled)
        self.prefetches += 1

    def acquire_shard(self, sid: int):
        """Fault the shard into this slice (claiming any bytes a
        prefetch parked for it) and pin it and its plan — the host side
        of :func:`~repro.shards.engine.execute_shard`."""
        with self._lock:
            tiled, loaded, evicted = self.resident.get(sid)
            loaded += self._pending_loads.pop(sid, 0)
            evicted += self._pending_evicts.pop(sid, 0)
            self.resident.pin(sid)
        key = self._plan_key(sid)
        try:
            plan = self.cache.get_or_build(
                key, lambda: _shard_plan(key, tiled), pin=self.store)
        except BaseException:
            with self._lock:
                self.resident.unpin(sid)
            raise
        self.cache.pin(key)
        return plan, loaded, evicted

    def release_shard(self, sid: int, plan: OperatorPlan) -> None:
        self.cache.unpin(plan.key)
        with self._lock:
            self.resident.unpin(sid)

    def stats(self) -> Dict[str, int]:
        out = self.resident.stats()
        out["prefetches"] = self.prefetches
        return out


# ----------------------------------------------------------------------
# chunk execution (shared by every backend; runs where the slice lives)
# ----------------------------------------------------------------------
def _run_chunk(slc: WorkerSlice, sids, xs, batched: bool,
               with_counters: bool,
               spmm_selector=None) -> List[ShardResult]:
    """Run one chunk's shards in order, with lookahead prefetch.

    A short-lived background walker keeps up to
    :data:`PREFETCH_DEPTH` shards ahead of the compute loop, so
    page-in overlaps the current kernel.
    """
    progress = {"done": 0}
    walker = None
    if len(sids) > 1:
        def _walk():
            for j in range(1, len(sids)):
                while j > progress["done"] + PREFETCH_DEPTH:
                    time.sleep(0.0005)
                try:
                    slc.prefetch(sids[j])
                except Exception:      # prefetch is best-effort only
                    return
        walker = threading.Thread(target=_walk, daemon=True)
        walker.start()
    results = []
    for i, sid in enumerate(sids):
        # the worker label is the stable scheduler worker id, not the
        # OS pid: launch tags must be deterministic run to run so
        # production replay and the parallel-invariance check can
        # compare them
        results.append(execute_shard(slc, int(sid), xs, batched,
                                     with_counters, spmm_selector,
                                     device=slc.wid,
                                     worker=str(slc.wid)))
        progress["done"] = i + 1
    if walker is not None:
        walker.join(timeout=10.0)
    return results


# ----------------------------------------------------------------------
# shared thread pool (thread backend)
# ----------------------------------------------------------------------
#: One process-wide pool serves every thread-backend executor.  Worker
#: identity lives in the WorkerSlice an executor hands each chunk, not
#: in which OS thread runs it, so sharing threads is semantically
#: neutral — and it avoids spawning (then GC-finalizing) a pool per
#: engine, which under an env-wide REPRO_WORKERS setting meant
#: thousands of short-lived threads per test run and a rare
#: Thread.start()-during-GC deadlock.
_THREAD_POOL = None
_THREAD_POOL_SIZE = 16
_THREAD_POOL_GUARD = threading.Lock()


def _shared_thread_pool():
    global _THREAD_POOL
    with _THREAD_POOL_GUARD:
        if _THREAD_POOL is None:
            from concurrent.futures import ThreadPoolExecutor
            _THREAD_POOL = ThreadPoolExecutor(
                max_workers=_THREAD_POOL_SIZE,
                thread_name_prefix="repro-shard")
        return _THREAD_POOL


# ----------------------------------------------------------------------
# process backend plumbing (module-level for picklability)
# ----------------------------------------------------------------------
_PROC_PAYLOAD: Optional[dict] = None
_PROC_SLICES: Dict[int, WorkerSlice] = {}


def _process_init(payload: dict) -> None:
    global _PROC_PAYLOAD
    _PROC_PAYLOAD = payload
    _PROC_SLICES.clear()


def _process_slice(wid: int) -> WorkerSlice:
    slc = _PROC_SLICES.get(wid)
    if slc is None:
        p = _PROC_PAYLOAD
        slc = WorkerSlice(wid, p["store"].attach(), p["budget"],
                          p["semiring"], p["pattern_only"],
                          plan_cache=None, plan_token=p["plan_token"])
        _PROC_SLICES[wid] = slc
    return slc


def _process_chunk(task) -> Tuple[List[ShardResult], Tuple[int, int],
                                  Dict[str, int]]:
    wid, sids, xs, batched, with_counters, spmm_selector = task
    slc = _process_slice(wid)
    results = _run_chunk(slc, sids, xs, batched, with_counters,
                         spmm_selector)
    # the real pid travels back in the snapshot key
    return results, (os.getpid(), wid), slc.stats()


# ----------------------------------------------------------------------
@dataclass
class _ExecStats:
    chunks: int = 0
    results: int = 0
    slice_snapshots: Dict[Tuple[int, int], Dict[str, int]] = \
        field(default_factory=dict)


class ParallelExecutor:
    """Dispatches a :class:`~repro.parallel.work.WorkPlan` over a pool.

    Owns the worker slices (thread backend) or the process pools and
    their slice descriptor (process backend).  ``run()`` is a
    generator yielding :class:`ShardResult` in **completion order**;
    the coordinator orders the landed results by shard id before it
    assembles the output and re-emits the launch records.
    """

    def __init__(self, matrix, workers: int,
                 semiring: Semiring, pattern_only: bool,
                 plan_cache: Optional[PlanCache] = None,
                 plan_token=None):
        self.matrix = matrix
        self.workers = int(workers)
        self.backend = _backend_for(matrix.store)
        self.semiring = semiring
        self.pattern_only = bool(pattern_only)
        budget = _slice_budget(matrix.resident.budget_bytes, self.workers)
        self._stats = _ExecStats()
        self._pools: List = []
        self.slices: List[WorkerSlice] = []
        if self.backend == "thread":
            self.slices = [
                WorkerSlice(w, matrix.store.attach(), budget, semiring,
                            pattern_only, plan_cache=plan_cache,
                            plan_token=plan_token)
                for w in range(self.workers)]
        else:
            self._payload = {"store": matrix.store, "budget": budget,
                             "semiring": semiring,
                             "pattern_only": bool(pattern_only),
                             "plan_token": plan_token}

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        if self.backend == "process" and not self._pools:
            import multiprocessing
            ctx = multiprocessing.get_context("fork")
            # one dedicated single-process pool per worker id: a
            # shared pool would hand chunks to arbitrary processes, so
            # which slice's resident set a shard warms (and hence the
            # shard_load launch stream) would vary run to run.  Pinning
            # chunk ``c.worker`` to pool ``c.worker`` makes residency —
            # and every counter downstream of it — deterministic, same
            # as the thread backend's stable in-process slices.
            self._pools = [ctx.Pool(1, initializer=_process_init,
                                    initargs=(self._payload,))
                           for _ in range(self.workers)]

    def run(self, plan: WorkPlan, xs, batched: bool,
            with_counters: bool,
            spmm_selector=None) -> Iterator[ShardResult]:
        """Execute the plan; yield results as they complete."""
        chunks = plan.chunks
        self._stats.chunks += len(chunks)
        if self.backend == "thread":
            from concurrent.futures import as_completed
            spawn = _shared_thread_pool().submit
            futs = [spawn(_run_chunk, self.slices[c.worker], c.sids, xs,
                          batched, with_counters, spmm_selector)
                    for c in chunks]
            for fut in as_completed(futs):
                for res in fut.result():
                    self._stats.results += 1
                    yield res
        else:
            self._ensure_pool()
            pending = [self._pools[c.worker].apply_async(
                           _process_chunk,
                           ((c.worker, c.sids, xs, batched,
                             with_counters, spmm_selector),))
                       for c in chunks]
            while pending:
                still = []
                for ar in pending:
                    if ar.ready():
                        results, key, snap = ar.get()
                        self._stats.slice_snapshots[key] = snap
                        for res in results:
                            self._stats.results += 1
                            yield res
                    else:
                        still.append(ar)
                pending = still
                if pending:
                    pending[0].wait(0.002)

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Aggregated slice traffic (summed across workers)."""
        snaps = ([s.stats() for s in self.slices]
                 or list(self._stats.slice_snapshots.values()))
        keys = ("loads", "hits", "evictions", "loaded_bytes",
                "evicted_bytes", "resident_shards", "resident_bytes",
                "prefetches")
        out = {k: sum(int(s.get(k, 0)) for s in snaps) for k in keys}
        out["chunks"] = self._stats.chunks
        out["results"] = self._stats.results
        pids = sorted({pid for pid, _ in
                       self._stats.slice_snapshots})
        if pids:
            out["worker_pids"] = pids
        return out

    def close(self) -> None:
        for pool in self._pools:
            pool.terminate()
            pool.join()
        self._pools = []

    def __del__(self):  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ParallelExecutor backend={self.backend} "
                f"workers={self.workers}>")
