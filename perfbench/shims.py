"""Timing shims around the layer entry points of ``repro``.

A traced run installs one wrapper per entry point listed in
:data:`TARGETS`, patched where the caller looks the name up (a module
global such as ``repro.core.spmspv.tiled_kernel``, or a class attribute
such as ``repro.core.spmspv.TileSpMSpV.multiply``).  Every wrapper
opens a span on a :class:`Recorder`: spans nest, so a layer's self time
is its duration minus the time of the shimmed calls it made.

An untraced run installs nothing; :func:`installed` lists any wrapper
still in place so the runner can prove it.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

#: Marker attribute every wrapper carries.
MARK = "__perfbench_shim__"

#: (module, attribute path, span name).  One span name may cover
#: several lookup sites of the same layer function.
TARGETS: List[Tuple[str, str, str]] = [
    ("repro.core.spmspv", "tiled_kernel", "core.spmspv_kernel"),
    ("repro.core.spmspv", "csc_tiled_kernel", "core.spmspv_kernel"),
    ("repro.shards.engine", "tiled_kernel", "core.spmspv_kernel"),
    ("repro.core.spmspv", "coo_side_kernel", "core.side_kernel"),
    ("repro.core.batched", "coo_side_kernel", "core.side_kernel"),
    ("repro.core.batched", "batched_union_kernel", "core.union_kernel"),
    ("repro.core.spmspv", "as_tiled_vector", "tiles.coerce"),
    ("repro.core.batched", "as_tiled_vector", "tiles.coerce"),
    ("repro.shards.engine", "as_tiled_vector", "tiles.coerce"),
    ("repro.core.spmspv", "TileSpMSpV.multiply", "core.multiply"),
    ("repro.core.spmspv", "split_very_sparse_tiles", "tiles.tiling"),
    ("repro.core.tilebfs", "split_very_sparse_tiles", "tiles.tiling"),
    ("repro.runtime.plan", "OperatorPlan.warm", "runtime.plan_warm"),
    ("repro.runtime.plan", "PlanCache.get", "runtime.plan_get"),
    ("repro.fastpath.fused_bfs", "run_fused", "fastpath.traversal"),
    ("repro.fastpath.fused_bfs", "bfs_layout", "fastpath.layout"),
    ("repro.serving.service", "GraphQueryService.submit_nowait",
     "serving.submit"),
    ("repro.runtime.batch_queue", "BatchQueue.submit", "runtime.enqueue"),
    ("repro.core.batched", "BatchedSpMSpV.multiply_batch",
     "runtime.dispatch"),
    ("repro.shards.store", "ResidentSetManager.get", "shards.get"),
    ("repro.shards.engine", "ShardedSpMSpV.multiply", "shards.multiply"),
]


def _resolve(module: str, path: str):
    """(owner object, attribute name) for a dotted attribute path."""
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


def installed() -> List[str]:
    """``module:path`` of every target currently holding a shim."""
    found = []
    for module, path, _ in TARGETS:
        owner, attr = _resolve(module, path)
        if getattr(owner.__dict__.get(attr), MARK, False):
            found.append(f"{module}:{path}")
    return found


class Recorder:
    """Span and count sink for one traced run.

    ``phase`` labels what the runner is doing ("setup", "timed" or
    "fixed"); time spans are kept only outside the fixed-count pass,
    counts are kept per phase.
    """

    def __init__(self) -> None:
        self.phase = "setup"
        self.total: Dict[Tuple[str, str], float] = defaultdict(float)
        self.self_time: Dict[Tuple[str, str], float] = defaultdict(float)
        self.calls: Dict[Tuple[str, str], int] = defaultdict(int)
        self.counts: Dict[Tuple[str, str], float] = defaultdict(float)
        self._stack: List[float] = []
        self._enqueued: Dict[int, float] = {}
        self.queue_waits: List[float] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _close(self, name: str, t0: float) -> float:
        dur = time.perf_counter() - t0
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += dur
        if self.phase != "fixed":
            key = (self.phase, name)
            self.total[key] += dur
            self.self_time[key] += dur - child
            self.calls[key] += 1
        return dur

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[(self.phase, name)] += amount

    def _wrap(self, name: str, fn: Callable) -> Callable:
        hook = _HOOKS.get(name)

        def shim(*args, **kwargs):
            if hook is not None:
                hook.before(self, args, kwargs)
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(name, t0)
                raise
            dur = self._close(name, t0)
            if hook is not None:
                hook.after(self, args, kwargs, result, dur)
            return result

        setattr(shim, MARK, True)
        shim.__wrapped__ = fn
        return shim

    # -- install / remove ----------------------------------------------
    def install(self) -> None:
        for module, path, name in TARGETS:
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- readout -------------------------------------------------------
    def mean_ms(self, name: str, phase: str = "timed",
                self_only: bool = False) -> float:
        key = (phase, name)
        calls = self.calls.get(key, 0)
        if not calls:
            return 0.0
        src = self.self_time if self_only else self.total
        return src[key] * 1e3 / calls

    def total_s(self, name: str, phase: str = "setup") -> float:
        return self.total.get((phase, name), 0.0)


class _Hook:
    """Extra bookkeeping around one span kind."""

    def before(self, rec: Recorder, args, kwargs) -> None:
        pass

    def after(self, rec: Recorder, args, kwargs, result, dur) -> None:
        pass


class _PlanLookup(_Hook):
    def after(self, rec, args, kwargs, result, dur):
        rec.count("plan_hits" if result is not None else "plan_misses")


class _Enqueue(_Hook):
    # BatchQueue.submit(self, x, ...): stamp the vector's arrival
    def before(self, rec, args, kwargs):
        x = args[1] if len(args) > 1 else kwargs["x"]
        rec._enqueued[id(x)] = time.perf_counter()


class _Dispatch(_Hook):
    # BatchedSpMSpV.multiply_batch(self, xs, ...): each vector's wait
    # ends when its batch starts executing
    def before(self, rec, args, kwargs):
        now = time.perf_counter()
        xs = args[1] if len(args) > 1 else kwargs["xs"]
        for x in xs:
            t = rec._enqueued.pop(id(x), None)
            if t is not None and rec.phase == "timed":
                rec.queue_waits.append(now - t)


class _Submit(_Hook):
    # inline BFS / PageRank queries are the "direct" path
    def after(self, rec, args, kwargs, result, dur):
        query = args[1] if len(args) > 1 else kwargs["query"]
        if type(query).__name__ != "MultiplyQuery":
            rec.count("direct_calls")
            rec.count("direct_s", dur)


class _ResidentGet(_Hook):
    # ResidentSetManager.get returns (tiled, loaded_bytes, evicted)
    def after(self, rec, args, kwargs, result, dur):
        if result[1]:
            rec.count("shard_loads")
            rec.count("shard_load_s", dur)


_HOOKS: Dict[str, _Hook] = {
    "runtime.plan_get": _PlanLookup(),
    "runtime.enqueue": _Enqueue(),
    "runtime.dispatch": _Dispatch(),
    "serving.submit": _Submit(),
    "shards.get": _ResidentGet(),
}
