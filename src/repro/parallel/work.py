"""Cost-model work scheduling for the parallel shard executor.

The skip-scheduler (:class:`~repro.shards.scheduler.ShardScheduler`)
decides *which* shards run; this module decides *where* and *in what
order*.  Per executed shard it estimates work from the same metadata
the skip pass already reads — the shard's tile-column occupancy bitmap
ANDed with the input's active tile columns — scaled by the shard's
nnz-per-occupied-column, so a hub-heavy strip with every column active
prices higher than a sparse strip grazed by the frontier.

Assignment is longest-processing-time-first onto the least-loaded
worker, with **sticky affinity**: a shard prefers the worker that ran
it last (whose resident-set slice already holds its pages) and is
stolen away only when that worker's queue is already heavier than the
lightest queue by more than the shard's own cost — the classic
balance-vs-locality trade, resolved in favour of locality until it
costs more than it saves.

Each busy worker's ordered shard list (:attr:`WorkPlan.per_worker`) is
one task: the worker that owns a queue is the only one that runs it,
the way each row tile of the paper's kernel has one owner, so a
worker's resident-set slice sees the same shard sequence on every run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

__all__ = ["WorkItem", "WorkPlan", "WorkScheduler"]


@dataclass(frozen=True)
class WorkItem:
    """One shard's planned execution."""

    sid: int
    cost: float
    worker: int
    stolen: bool = False    # moved off its sticky worker this plan


@dataclass
class WorkPlan:
    """The placement of one multiply's executed shards."""

    workers: int
    items: List[WorkItem] = field(default_factory=list)

    @property
    def per_worker(self) -> List[List[int]]:
        """Each worker's shard queue in execution order — one task per
        busy worker."""
        out: List[List[int]] = [[] for _ in range(self.workers)]
        for item in self.items:
            out[item.worker].append(item.sid)
        return out

    @property
    def loads(self) -> List[float]:
        out = [0.0] * self.workers
        for item in self.items:
            out[item.worker] += item.cost
        return out

    @property
    def stolen(self) -> int:
        return sum(1 for item in self.items if item.stolen)

    @property
    def imbalance(self) -> float:
        """max/mean worker load — 1.0 is a perfect balance."""
        loads = self.loads
        mean = sum(loads) / self.workers
        return (max(loads) / mean) if mean > 0 else 1.0

    @property
    def predicted_speedup(self) -> float:
        """Cost-model speedup bound: total work / longest worker queue
        (what a perfectly overlapped execution of this placement would
        achieve; the multi-device timeline's measured
        ``modeled_speedup`` should land close to it)."""
        loads = self.loads
        longest = max(loads) if loads else 0.0
        return (sum(loads) / longest) if longest > 0 else 1.0


class WorkScheduler:
    """Shard → worker placement with cost estimates and affinity.

    Parameters
    ----------
    matrix:
        The :class:`~repro.shards.sharded_matrix.ShardedTiledMatrix`
        being executed (occupancy bitmaps + per-shard nnz drive the
        cost model).
    workers:
        Worker count (fixed for the scheduler's lifetime).
    """

    def __init__(self, matrix, workers: int):
        self.matrix = matrix
        self.workers = int(workers)
        #: sid -> worker that last executed it (updated every plan).
        self.sticky: Dict[int, int] = {}
        self.plans = 0
        self.stolen_total = 0
        self.affinity_hits = 0
        # per-shard constants of the cost model, computed once
        occ = matrix.occupancy
        self._occ = occ
        ones = np.unpackbits(occ.view(np.uint8), axis=1).sum(axis=1)
        self._occupied_cols = np.maximum(1, ones.astype(np.float64))
        self._nnz = np.maximum(
            1.0, np.asarray(matrix.shard_nnz, dtype=np.float64))

    # ------------------------------------------------------------------
    def estimate(self, sid: int, active_mask: np.ndarray) -> float:
        """Modeled work of one shard for this input.

        ``popcount(occupancy & active) / popcount(occupancy)`` is the
        fraction of the shard's occupied tile columns the input
        touches; scaled by the shard's nnz it approximates the edges
        the kernel will traverse, plus a constant launch charge.
        """
        hit_words = self._occ[sid] & active_mask
        hit = int(np.unpackbits(hit_words.view(np.uint8)).sum())
        frac = hit / self._occupied_cols[sid]
        return 1.0 + frac * self._nnz[sid]

    def active_mask(self, active_tile_cols: np.ndarray) -> np.ndarray:
        """The uint64 bitmap of active tile columns (same layout as the
        occupancy rows)."""
        mask = np.zeros(self._occ.shape[1], dtype=np.uint64)
        if active_tile_cols.size:
            cols = np.asarray(active_tile_cols, dtype=np.int64)
            np.bitwise_or.at(
                mask, cols // 64,
                np.uint64(1) << (cols % 64).astype(np.uint64))
        return mask

    # ------------------------------------------------------------------
    def plan(self, executed, active_tile_cols: np.ndarray) -> WorkPlan:
        """Place ``executed`` shards onto workers (deterministic)."""
        mask = self.active_mask(active_tile_cols)
        costs = [(self.estimate(int(s), mask), int(s)) for s in executed]
        # LPT: heaviest first; ties broken by shard id for determinism
        costs.sort(key=lambda cs: (-cs[0], cs[1]))
        loads = [0.0] * self.workers
        plan = WorkPlan(self.workers)
        for cost, sid in costs:
            lightest = min(range(self.workers), key=lambda w: (loads[w], w))
            target, stolen = lightest, False
            pref = self.sticky.get(sid)
            if pref is not None:
                if loads[pref] <= loads[lightest] + cost:
                    target = pref
                    self.affinity_hits += 1
                else:
                    stolen = True
                    self.stolen_total += 1
            loads[target] += cost
            plan.items.append(WorkItem(sid, cost, target, stolen))
            self.sticky[sid] = target
        self.plans += 1
        return plan

    def seed_affinity(self, sid: int, worker: int) -> None:
        """Pin a shard's preferred worker ahead of planning (the batch
        queue routes hot shards to the worker already holding them)."""
        self.sticky[int(sid)] = int(worker) % self.workers

    def stats(self) -> Dict[str, float]:
        return {"plans": self.plans,
                "stolen": self.stolen_total,
                "affinity_hits": self.affinity_hits,
                "sticky_shards": len(self.sticky)}
