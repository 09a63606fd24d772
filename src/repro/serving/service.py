"""The async graph-query service over :class:`~repro.runtime.BatchQueue`.

This is the front door the batching engine was missing: clients
``await service.submit(query)`` and the service coalesces, routes,
admits, and accounts.  One :class:`GraphQueryService` hosts many named
matrices; each gets its own :class:`~repro.runtime.BatchQueue` (so a
hot matrix's batches never wait on a cold one) plus lazily built
TileBFS / PageRank paths sharing the same tenant-partitioned plan
cache.

Query types
-----------
* :class:`MultiplyQuery` — ``y = A x`` under any semiring.  Coalesced:
  compatible requests (same matrix, same semiring) share one
  :class:`~repro.core.batched.BatchedSpMSpV` union launch, dispatched
  by size budget (``max_batch``), latency budget (``max_delay_ms``),
  or an explicit flush.  Routing to the sharded / parallel engines is
  automatic: register a
  :class:`~repro.shards.ShardedTiledMatrix` and every dispatched batch
  streams shards (with the queue's residency-affinity seeding); set a
  ``parallel`` worker count and shard batches fan out across workers.
  A batch whose engine call raises fails every request in it: each
  record closes with status ``error`` and each awaiter gets the
  exception, while the dispatch loop keeps serving.
* :class:`BFSQuery` — level-synchronous traversal via
  :class:`~repro.core.tilebfs.TileBFS`, executed at submit on a plan
  shared through the tenant's cache partition.
* :class:`PageRankQuery` — power iteration, memoized per
  ``(matrix, damping, tol, max_iter)``: the first request pays, repeat
  requests are cache hits (the hot/cold working-set effect the serving
  benchmark measures).

Time and determinism
--------------------
Every timestamp the service takes — submit, completion, latency
budgets, backlog — comes from one injectable ``clock`` (seconds,
monotonic).  The async dispatch loop computes its deadlines solely
through :meth:`~repro.runtime.BatchQueue.next_deadline_ms` on that
clock (asyncio only bounds the sleep), so handing the service a
:class:`~repro.serving.VirtualClock` makes an entire traffic run
deterministic: the fake-clock hypothesis tests and the CI-guarded
serving benchmark both rely on this.

With a virtual clock the service also runs a single-server completion
model: each dispatch costs its simulated device milliseconds
(``time_scale`` virtual ms per modeled ms), completions queue behind
``busy_until``, and admission control can bound the backlog — which is
what produces honest queueing latency (and a saturation knee) in
simulated open-loop runs.

Observability
-------------
Every admitted request gets a :class:`~repro.serving.RequestRecord`;
batched launches are tagged ``mat=<name>;batch=<id> size=<B>`` so a
request id resolves to its launches in the Chrome trace
(:meth:`RequestLog.events_for`), and :meth:`GraphQueryService.stats`
rolls up p50/p99 latency per query kind next to queue, admission,
tenant-cache, and memo counters.
"""

from __future__ import annotations

import asyncio
import logging
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..core.spmspv import spmspv_plan_key
from ..core.tilebfs import TileBFS
from ..graphs.pagerank import pagerank
from ..runtime import BatchQueue, ExecutionContext
from ..semiring import PLUS_TIMES, Semiring
from .admission import AdmissionController
from .clock import VirtualClock
from .errors import ServiceSaturated, UnknownMatrixError
from .observability import RequestLog
from .tenancy import DEFAULT_TENANT, TenantPlanCache

__all__ = ["GraphQueryService", "MultiplyQuery", "BFSQuery",
           "PageRankQuery", "ServingTicket"]

_log = logging.getLogger(__name__)


# ----------------------------------------------------------------------
# query types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MultiplyQuery:
    """``y = A x`` against the named matrix (coalesced)."""

    matrix: str
    x: Any
    semiring: Semiring = PLUS_TIMES
    output: str = "sparse"


@dataclass(frozen=True)
class BFSQuery:
    """BFS levels from ``source`` over the named matrix's pattern."""

    matrix: str
    source: int
    max_depth: Optional[int] = None


@dataclass(frozen=True)
class PageRankQuery:
    """PageRank over the named matrix (memoized per parameters)."""

    matrix: str
    damping: float = 0.85
    tol: float = 1e-10
    max_iter: int = 200


class ServingTicket:
    """Handle for one admitted request.

    ``done`` flips when the request's batch dispatches (immediately
    for BFS / PageRank / size-budget dispatches).  ``result()`` is the
    blocking get — it forces the pending group out early, exactly like
    :meth:`BatchTicket.result`.  The async path awaits the same ticket
    through :meth:`GraphQueryService.submit`.
    """

    __slots__ = ("record", "query", "value", "done",
                 "_batch_ticket", "_future")

    def __init__(self, record, query):
        self.record = record
        self.query = query
        self.value = None
        self.done = False
        self._batch_ticket = None
        self._future: Optional[asyncio.Future] = None

    @property
    def request_id(self) -> int:
        return self.record.request_id

    def result(self):
        """The request's result, flushing its group if still pending;
        re-raises the engine error when its batch failed."""
        bt = self._batch_ticket
        return self.value if bt is None else bt.result()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "done" if self.done else "pending"
        return (f"<ServingTicket #{self.record.request_id} "
                f"{self.record.kind} {state}>")


@dataclass
class _ServedMatrix:
    """One registered matrix and its serving machinery."""

    name: str
    matrix: Any
    tenant: str
    queue: BatchQueue
    nt: int
    extract_threshold: int
    _bfs: Optional[TileBFS] = field(default=None, repr=False)


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------
class GraphQueryService:
    """Async serving layer: admission -> coalescing -> engines.

    Parameters
    ----------
    device:
        Simulated GPU (or shared :class:`ExecutionContext`) every
        dispatched launch lands on; ``None`` serves functionally with
        no accounting.
    tracer:
        Optional :class:`~repro.runtime.Tracer`; ignored when
        ``device`` is already a context carrying one.
    clock:
        Injectable monotonic time source in seconds (defaults to
        ``time.monotonic``).  Passing a :class:`VirtualClock` switches
        completion accounting to the deterministic server model.
    max_batch / max_delay_ms / nt / extract_threshold:
        Per-matrix defaults, overridable at :meth:`register_matrix`.
    admission:
        Admission policy (default: depth-bounded at 256 pending).
    tenants:
        The partitioned plan cache; a default one is created if not
        supplied.
    parallel:
        Optional worker count forwarded to every queue and BFS engine
        (sharded matrices then dispatch multi-worker).
    time_scale:
        Virtual seconds charged per modeled second of device time in
        virtual-clock mode (1.0: one modeled ms costs one virtual ms).
    """

    def __init__(self, device=None, tracer=None,
                 clock: Callable[[], float] = time.monotonic,
                 max_batch: int = 32,
                 max_delay_ms: Optional[float] = 2.0,
                 nt: int = 16, extract_threshold: int = 2,
                 admission: Optional[AdmissionController] = None,
                 tenants: Optional[TenantPlanCache] = None,
                 parallel=None, time_scale: float = 1.0):
        if isinstance(device, ExecutionContext):
            self.ctx = device.scoped("serving")
        else:
            self.ctx = ExecutionContext(device, tracer=tracer,
                                        operator="serving")
        self._clock = clock
        self._virtual = isinstance(clock, VirtualClock)
        self.time_scale = float(time_scale)
        self.max_batch = int(max_batch)
        self.max_delay_ms = max_delay_ms
        self.nt = int(nt)
        self.extract_threshold = int(extract_threshold)
        self.admission = admission if admission is not None \
            else AdmissionController()
        self.tenants = tenants if tenants is not None \
            else TenantPlanCache()
        self._parallel = parallel
        self.log = RequestLog()
        self._served: Dict[str, _ServedMatrix] = {}
        # multiply bookkeeping: BatchTicket id -> ServingTicket for
        # enqueued-but-undispatched requests; BatchTicket id ->
        # completion info for dispatches that fired inside the submit
        # call that created the ticket (before it could be registered)
        self._inflight: Dict[int, ServingTicket] = {}
        self._completions: Dict[int, tuple] = {}
        self._busy_until = 0.0
        self._pagerank_memo: Dict[tuple, tuple] = {}
        self._pagerank_hits = 0
        self._wake: Optional[asyncio.Event] = None
        self._task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register_matrix(self, name: str, matrix,
                        tenant: str = DEFAULT_TENANT,
                        max_batch: Optional[int] = None,
                        max_delay_ms: Optional[float] = "default",
                        nt: Optional[int] = None,
                        extract_threshold: Optional[int] = None,
                        pin: bool = False) -> None:
        """Register ``matrix`` under ``name`` for ``tenant``.

        Builds the matrix's :class:`BatchQueue` on the tenant's plan
        cache partition.  ``pin=True`` additionally pre-tiles the
        default-semiring plan and pins it against the tenant's quota
        (the hot-working-set move).  ``max_delay_ms`` defaults to the
        service-wide budget; pass ``None`` explicitly to disable
        time-based dispatch for this matrix.
        """
        if name in self._served:
            raise ValueError(f"matrix {name!r} already registered")
        nt = self.nt if nt is None else int(nt)
        extract_threshold = self.extract_threshold \
            if extract_threshold is None else int(extract_threshold)
        delay = self.max_delay_ms if max_delay_ms == "default" \
            else max_delay_ms
        queue = BatchQueue(
            matrix, nt=nt, extract_threshold=extract_threshold,
            device=self.ctx.scoped(f"serve:{name}"),
            max_batch=max_batch if max_batch is not None
            else self.max_batch,
            max_delay_ms=delay, clock=self._clock,
            plan_cache=self.tenants.partition(tenant),
            parallel=self._parallel,
            on_dispatch=self._batch_callback(name),
            tag_prefix=f"mat={name};")
        self._served[name] = _ServedMatrix(
            name=name, matrix=matrix, tenant=tenant, queue=queue,
            nt=nt, extract_threshold=extract_threshold)
        if pin:
            self.pin_plans(name)

    def pin_plans(self, name: str,
                  semiring: Semiring = PLUS_TIMES) -> bool:
        """Pre-tile and pin the matrix's plan for ``semiring`` against
        its tenant's quota.

        Returns ``False`` when there is no single cacheable plan to
        pin (sharded matrices hold per-shard plans the resident-set
        manager pins during kernels instead); raises
        :class:`~repro.serving.errors.TenantQuotaError` at quota.
        """
        served = self._lookup(name)
        served.queue.warm(semiring)
        key = spmspv_plan_key(served.matrix, served.nt,
                              served.extract_threshold, semiring)
        return self.tenants.pin(served.tenant, key)

    def unpin_plans(self, name: str,
                    semiring: Semiring = PLUS_TIMES) -> bool:
        served = self._lookup(name)
        key = spmspv_plan_key(served.matrix, served.nt,
                              served.extract_threshold, semiring)
        return self.tenants.unpin(served.tenant, key)

    def _lookup(self, name: str) -> _ServedMatrix:
        served = self._served.get(name)
        if served is None:
            raise UnknownMatrixError(name, self._served)
        return served

    @property
    def matrices(self) -> tuple:
        return tuple(self._served)

    # ------------------------------------------------------------------
    # time / load accounting
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Requests enqueued but not yet dispatched."""
        return sum(s.queue.pending for s in self._served.values())

    @property
    def backlog_ms(self) -> float:
        """How far the modeled server runs ahead of now (virtual-clock
        mode; 0.0 under a wall clock, where compute happens inline)."""
        return max(0.0, (self._busy_until - self._clock()) * 1e3)

    def _complete_time(self, modeled_ms: float) -> float:
        """Completion timestamp for work costing ``modeled_ms`` of
        device time, on the single-server model."""
        now = self._clock()
        if self._virtual:
            start = max(now, self._busy_until)
            done = start + modeled_ms * 1e-3 * self.time_scale
            self._busy_until = done
            return done
        self._busy_until = now
        return now

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit_nowait(self, query,
                      tenant: Optional[str] = None) -> ServingTicket:
        """Admit and enqueue one query; returns its ticket.

        Multiply queries may stay pending (awaiting their batch); BFS
        and PageRank execute before returning.  Raises
        :class:`ServiceSaturated` when admission rejects (the request
        is recorded as rejected in the log), or
        :class:`UnknownMatrixError` for an unregistered matrix.
        """
        if isinstance(query, MultiplyQuery):
            return self._submit_multiply(query, tenant)
        if isinstance(query, BFSQuery):
            return self._submit_direct(query, "bfs", tenant,
                                       self._run_bfs)
        if isinstance(query, PageRankQuery):
            return self._submit_direct(query, "pagerank", tenant,
                                       self._run_pagerank)
        raise TypeError(f"unknown query type {type(query).__name__}")

    async def submit(self, query, tenant: Optional[str] = None):
        """Async submit: admit, enqueue, and await the result.

        The awaiting request is completed by whichever event dispatches
        its batch — a batchmate filling the size budget, the dispatch
        loop firing the latency budget, or a drain.
        """
        ticket = self.submit_nowait(query, tenant)
        if ticket.done:
            return ticket.value
        fut = asyncio.get_running_loop().create_future()
        ticket._future = fut
        self._kick()
        return await fut

    # -- multiply ------------------------------------------------------
    def _submit_multiply(self, query: MultiplyQuery,
                         tenant: Optional[str]) -> ServingTicket:
        served = self._lookup(query.matrix)
        served.queue.check_vector(query.x, query.semiring)
        rec = self.log.open(tenant or served.tenant, "multiply",
                            query.matrix, query.semiring.name,
                            self._clock())
        self._admit(rec)
        ticket = ServingTicket(rec, query)
        try:
            bt = served.queue.submit(query.x, semiring=query.semiring,
                                     output=query.output)
        except Exception:
            # a dispatch this submit triggered failed; the callback
            # parked this request's completion under a ticket the
            # caller never receives
            self._completions.clear()
            self.log.fail(rec, self._clock())
            raise
        ticket._batch_ticket = bt
        if bt.done:
            # dispatched inside submit (size budget / overdue sweep):
            # the callback parked our completion info under the ticket
            info = self._completions.pop(id(bt))
            self._resolve_multiply(ticket, *info)
        else:
            self._inflight[id(bt)] = ticket
        return ticket

    def _batch_callback(self, name: str):
        def on_dispatch(tickets, batch_id: int,
                        modeled_ms: float) -> None:
            done_s = self._complete_time(modeled_ms)
            tag = f"mat={name};batch={batch_id}"
            size = len(tickets)
            per_req = modeled_ms / size if size else 0.0
            for bt in tickets:
                st = self._inflight.pop(id(bt), None)
                info = (batch_id, size, per_req, done_s, tag)
                if st is None:
                    self._completions[id(bt)] = info
                else:
                    self._resolve_multiply(st, *info)
        return on_dispatch

    def _resolve_multiply(self, ticket: ServingTicket, batch_id: int,
                          batch_size: int, modeled_ms: float,
                          done_s: float, tag: str) -> None:
        bt = ticket._batch_ticket
        ticket.done = True
        fut = ticket._future
        if bt._error is not None:
            self.log.fail(ticket.record, done_s)
            if fut is not None and not fut.done():
                fut.set_exception(bt._error)
            return
        self.log.complete(ticket.record, done_s, batch_id=batch_id,
                          batch_size=batch_size, modeled_ms=modeled_ms,
                          launch_tag=tag)
        ticket.value = bt._result
        if fut is not None and not fut.done():
            fut.set_result(ticket.value)

    # -- direct (BFS / PageRank) ---------------------------------------
    def _submit_direct(self, query, kind: str, tenant: Optional[str],
                       run) -> ServingTicket:
        served = self._lookup(query.matrix)
        rec = self.log.open(tenant or served.tenant, kind,
                            query.matrix, None, self._clock())
        self._admit(rec)
        ticket = ServingTicket(rec, query)
        tracer = self.ctx.tracer
        seq0 = len(tracer.events) if tracer is not None else None
        elapsed0 = self.ctx.elapsed_ms
        try:
            ticket.value = run(served, query)
        except Exception:
            self.log.fail(rec, self._clock())
            raise
        modeled_ms = self.ctx.elapsed_ms - elapsed0
        done_s = self._complete_time(modeled_ms)
        self.log.complete(
            rec, done_s, modeled_ms=modeled_ms, seq_start=seq0,
            seq_end=len(tracer.events) if tracer is not None else None)
        ticket.done = True
        return ticket

    def _run_bfs(self, served: _ServedMatrix, query: BFSQuery):
        if served._bfs is None:
            served._bfs = TileBFS(
                served.matrix, nt=served.nt,
                extract_threshold=served.extract_threshold,
                device=self.ctx.scoped(f"serve:{served.name}"),
                plan_cache=self.tenants.partition(served.tenant),
                parallel=self._parallel)
        return served._bfs.run(int(query.source),
                               max_depth=query.max_depth)

    def _run_pagerank(self, served: _ServedMatrix,
                      query: PageRankQuery):
        key = (served.name, query.damping, query.tol, query.max_iter)
        hit = self._pagerank_memo.get(key)
        if hit is not None:
            self._pagerank_hits += 1
            ranks, iters = hit
            return ranks.copy(), iters
        ranks, iters = pagerank(
            served.matrix, damping=query.damping, tol=query.tol,
            max_iter=query.max_iter, nt=served.nt,
            device=self.ctx.scoped(f"serve:{served.name}"))
        self._pagerank_memo[key] = (ranks, iters)
        return ranks.copy(), iters

    def _admit(self, rec) -> None:
        try:
            self.admission.admit(self.pending, self.backlog_ms)
        except ServiceSaturated:
            self.log.reject(rec)
            raise

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def next_deadline_ms(self) -> Optional[float]:
        """Milliseconds until the earliest latency-budget deadline
        across every queue (injectable clock); ``None`` when nothing
        is armed."""
        deadlines = [d for d in (s.queue.next_deadline_ms()
                                 for s in self._served.values())
                     if d is not None]
        return min(deadlines) if deadlines else None

    def pump(self) -> int:
        """Dispatch every overdue group on every queue; returns the
        number of requests served.  The manual stepping hook for
        fake-clock tests and the virtual-time load generator."""
        return sum(s.queue.dispatch_overdue()
                   for s in self._served.values())

    def drain(self) -> int:
        """Flush everything pending (all queues, all groups)."""
        return sum(s.queue.flush() for s in self._served.values())

    def _kick(self) -> None:
        if self._wake is not None:
            self._wake.set()

    async def start(self) -> None:
        """Start the background dispatch loop (idempotent)."""
        if self._task is not None:
            return
        self._wake = asyncio.Event()
        self._task = asyncio.create_task(self._dispatch_loop())

    async def stop(self, drain: bool = True) -> None:
        """Stop the dispatch loop; by default flush stragglers first."""
        if self._task is not None:
            self._task.cancel()
            try:
                await self._task
            except asyncio.CancelledError:
                pass
            self._task = None
            self._wake = None
        if drain:
            self.drain()

    async def _dispatch_loop(self) -> None:
        # Deadline decisions come exclusively from the queues'
        # injectable clock (next_deadline_ms); asyncio only bounds how
        # long we sleep before looking again.
        while True:
            try:
                await self._dispatch_step()
            except Exception:
                # a failed batch has already failed its own requests;
                # the loop must keep serving everyone else
                _log.exception("batch dispatch failed")

    async def _dispatch_step(self) -> None:
        delay_ms = self.next_deadline_ms()
        if delay_ms is not None and delay_ms <= 0:
            # A group is already overdue: dispatch now, never sleep a
            # negative timeout.  If nothing fires (the queue's own
            # overdue check can trail the reported deadline by one
            # clock read), yield to the event loop instead of spinning
            # on it.
            if self.pump() == 0:
                await asyncio.sleep(0)
            return
        try:
            if delay_ms is None:
                await self._wake.wait()
            else:
                await asyncio.wait_for(self._wake.wait(),
                                       timeout=delay_ms / 1e3)
            self._wake.clear()
        except asyncio.TimeoutError:
            self.pump()

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def events_for(self, request_id: int) -> list:
        """The tracer events belonging to one request (empty without
        an attached tracer)."""
        if self.ctx.tracer is None:
            return []
        return self.log.events_for(request_id, self.ctx.tracer)

    def stats(self) -> Dict[str, Any]:
        """Service-wide counters: request totals, per-kind p50/p99
        latency rollups, queue coalescing stats, admission and tenant
        accounting."""
        return {
            "requests": len(self.log),
            "completed": self.log.completed,
            "rejected": self.log.rejected,
            "pending": self.pending,
            "backlog_ms": self.backlog_ms,
            "latency": self.log.rollups(),
            "queues": {name: s.queue.stats()
                       for name, s in self._served.items()},
            "admission": self.admission.stats(),
            "tenants": self.tenants.stats(),
            "pagerank_memo": {"entries": len(self._pagerank_memo),
                              "hits": self._pagerank_hits},
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<GraphQueryService matrices={list(self._served)} "
                f"pending={self.pending} requests={len(self.log)}>")
