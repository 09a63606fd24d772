"""Parallel multi-worker shard execution.

Runs the row-strip shards of a
:class:`~repro.shards.sharded_matrix.ShardedTiledMatrix` concurrently:
a cost-model work scheduler places shards on workers
(:mod:`repro.parallel.work`), a pool executor runs them with private
resident-set slices and lookahead prefetch
(:mod:`repro.parallel.executor`), and the engine merges results as
they land — bit-identical to sequential execution, with the overlap
priced honestly on a
:class:`~repro.gpusim.MultiDeviceTimeline`.

The worker count is the only setting: ``REPRO_WORKERS=N`` or
``parallel=N`` on any sharded operator.  The pool backend, the
per-worker budget, prefetch and stealing all follow from it
(:mod:`repro.parallel.config`).
"""

from .config import WORKERS_ENV, env_workers
from .executor import ParallelExecutor, ShardResult, WorkerSlice
from .work import WorkChunk, WorkItem, WorkPlan, WorkScheduler

__all__ = [
    "WORKERS_ENV", "env_workers",
    "WorkScheduler", "WorkPlan", "WorkItem", "WorkChunk",
    "ParallelExecutor", "WorkerSlice", "ShardResult",
]
