"""Kernel-execution runtime: the single path every operator launches
through.

The paper's pipeline is *preprocess once, multiply many times* (the
Fig. 11 amortisation argument).  This package owns that lifecycle for
every operator in the repo — core algorithms and baselines alike:

* :class:`ExecutionContext` — wraps the simulated
  :class:`~repro.gpusim.Device`; every kernel launch goes through
  :meth:`ExecutionContext.launch`, so None-device accounting is skipped
  in exactly one place and structured tracing sees every launch.
* :class:`ScopedOperator` — the base every prepared operator shares:
  its tag named once as a class attribute, the ``device=`` argument
  wrapped into a context scoped to that tag, and the one ``device``
  property that rebinds it (reaching a delegated sharded engine too).
* :class:`PlanCache` / :class:`OperatorPlan` — memoises the expensive
  preprocessing (tiling, COO extraction, bitmask compression) keyed by
  ``(matrix id, nt, extract_threshold, semiring, mode)``, so repeated
  operator construction over the same matrix reuses it.  Hit/miss
  stats are exposed for benchmarks.
* :class:`Tracer` — per-launch trace events (operator, phase,
  counters, priced time) exportable as JSONL or Chrome
  ``trace_event`` JSON (``python -m repro.bench trace``).
* the operator registry — maps names like ``"tilespmspv"`` or
  ``"enterprise"`` to factories, so the bench harness and the CLI
  dispatch by name instead of hard-coded imports.
* :class:`BatchQueue` — request coalescing in front of the batched
  multi-vector engine: enqueue ``(vector, semiring)`` requests against
  one matrix handle, dispatch compatible groups through a single
  coalesced launch under size/latency budgets.
"""

from .batch_queue import BatchQueue, BatchTicket
from .context import ExecutionContext, ScopedOperator
from .plan import (OperatorPlan, PlanCache, default_plan_cache,
                   matrix_token, plan_cache_stats, reset_plan_cache)
from .registry import (OperatorEntry, available_operators,
                      create_operator, operator_aliases, operator_kind,
                      register_operator, resolve_operator)
from .tracing import Tracer, TraceEvent

__all__ = [
    "BatchQueue", "BatchTicket",
    "ExecutionContext", "ScopedOperator",
    "OperatorPlan", "PlanCache", "default_plan_cache", "matrix_token",
    "plan_cache_stats", "reset_plan_cache",
    "Tracer", "TraceEvent",
    "register_operator", "create_operator", "resolve_operator",
    "available_operators", "operator_aliases", "operator_kind",
    "OperatorEntry",
]
