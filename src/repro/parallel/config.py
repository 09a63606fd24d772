"""The worker count — the one parallel setting — and what it implies.

Worker-pool shard execution is off by default; it turns on either
explicitly (pass a worker count as ``parallel=`` to any sharded
operator) or globally with ``REPRO_WORKERS=N``.  The variable is read
per call (like ``REPRO_FASTPATH``), so tests monkeypatch
``os.environ`` without reload tricks.

Everything else follows from the count and the shard store.  The pool
backend is ``thread`` for in-memory stores (shards are already in RAM;
a process pool would only pay pickling) and ``process`` for
directory-backed stores when the platform can ``fork`` (each worker
re-attaches the mmap directory itself — real page-in parallelism),
falling back to ``thread`` otherwise.  Each worker's resident-set
slice gets an even share of the engine's byte budget, and each busy
worker runs its shard queue as one task per multiply.  A single worker
never builds a pool: the engine runs its sequential strip loop.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Optional

__all__ = ["WORKERS_ENV", "env_workers"]

WORKERS_ENV = "REPRO_WORKERS"


def env_workers() -> int:
    """The ``REPRO_WORKERS`` worker count (1 when unset/garbage)."""
    raw = os.environ.get(WORKERS_ENV, "").strip()
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def _fork_available() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


def _backend_for(store) -> str:
    """The pool backend for ``store``: ``process`` for a directory
    store on a platform that can fork, ``thread`` otherwise."""
    if hasattr(store, "root") and _fork_available():
        return "process"
    return "thread"


def _slice_budget(total: Optional[int], workers: int) -> Optional[int]:
    """One worker's share of the engine's resident-set budget."""
    if total is None:
        return None
    return max(1, total // workers)
