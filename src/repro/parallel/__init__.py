"""Parallel multi-worker shard execution.

Runs the row-strip shards of a
:class:`~repro.shards.sharded_matrix.ShardedTiledMatrix` concurrently:
a cost-model work scheduler places shards on workers
(:mod:`repro.parallel.work`), a pool executor runs each busy worker's
shard queue as one task on that worker's private resident-set slice
(:mod:`repro.parallel.executor`), and the engine assembles the landed
results in shard order — bit-identical to sequential execution, with
the overlap priced honestly on a
:class:`~repro.gpusim.MultiDeviceTimeline`.

The worker count is the only setting: ``REPRO_WORKERS=N`` or
``parallel=N`` on any sharded operator.  The pool backend and the
per-worker budget follow from it (:mod:`repro.parallel.config`).
"""

from .config import WORKERS_ENV, env_workers
from .executor import ParallelExecutor, ShardResult, WorkerSlice
from .work import WorkItem, WorkPlan, WorkScheduler

__all__ = [
    "WORKERS_ENV", "env_workers",
    "WorkScheduler", "WorkPlan", "WorkItem",
    "ParallelExecutor", "WorkerSlice", "ShardResult",
]
