"""Request coalescing: many callers, one batched launch.

A service multiplying one matrix against heavy query traffic should
not pay one kernel launch (and one pass over the stored tiles) per
request — the batched engine
(:class:`~repro.core.batched.BatchedSpMSpV`) amortises both across a
batch.  :class:`BatchQueue` is the scheduler in front of it: callers
enqueue ``(vector, semiring)`` requests against a matrix handle and
get a :class:`BatchTicket` back; the queue groups *compatible*
requests (same semiring — different algebras cannot share a launch)
and dispatches a group through the batched kernel when any of:

* the group reaches ``max_batch`` requests (size budget);
* the group's oldest request has waited ``max_delay_ms`` (latency
  budget, checked on every submit);
* the caller forces it — :meth:`BatchQueue.flush`, or
  :meth:`BatchTicket.result` on a pending ticket.

Every dispatch launches under a ``batch=<id> size=<B>`` tag, so traces
and the device timeline attribute each launch to its batch; results
are extracted per request, so callers never see their batchmates.

The coalescing policy is deliberately deterministic (no background
thread): time only enters through the injectable ``clock`` callable,
which tests replace with a fake to pin down the latency budget.  An
external scheduler (the asyncio service layer in
:mod:`repro.serving`) drives time-based dispatch through the same
clock via :meth:`BatchQueue.next_deadline_ms` /
:meth:`BatchQueue.dispatch_overdue` — no caller ever needs a bare
``time.monotonic()`` next to the queue, so fake-clock determinism
extends all the way up the stack.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from ..errors import ShapeError
from ..semiring import PLUS_TIMES, Semiring
from .context import ExecutionContext

__all__ = ["BatchQueue", "BatchTicket"]


class BatchTicket:
    """A pending (or completed) request enqueued on a
    :class:`BatchQueue`.

    Attributes
    ----------
    semiring:
        The request's algebra (its compatibility group).
    output:
        Requested result form (``"sparse"`` or ``"dense"``).
    done:
        Whether the request has been dispatched (successfully or not).
    batch_id / batch_size:
        Set at dispatch time: which batch served the request and how
        many requests shared its launch.
    """

    __slots__ = ("_queue", "_x", "semiring", "output", "done",
                 "batch_id", "batch_size", "_result", "_error")

    def __init__(self, queue: "BatchQueue", x, semiring: Semiring,
                 output: str):
        self._queue = queue
        self._x = x
        self.semiring = semiring
        self.output = output
        self.done = False
        self.batch_id: Optional[int] = None
        self.batch_size: Optional[int] = None
        self._result = None
        self._error: Optional[BaseException] = None

    def result(self):
        """The request's result, dispatching its group if still
        pending (a blocking ``get``); re-raises the engine error when
        the request's batch failed."""
        if not self.done:
            self._queue.flush(self.semiring)
        if self._error is not None:
            raise self._error
        return self._result

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = (f"batch={self.batch_id} size={self.batch_size}"
                 if self.done else "pending")
        return f"<BatchTicket {self.semiring.name} {state}>"


class BatchQueue:
    """Request-coalescing scheduler over one matrix handle.

    Parameters
    ----------
    matrix:
        The shared sparse matrix (any form
        :class:`~repro.core.batched.BatchedSpMSpV` accepts).
    nt, extract_threshold:
        Forwarded to the engine; the underlying tiling is shared with
        any ``TileSpMSpV``/``BatchedSpMSpV`` over the same matrix via
        the plan cache.
    device:
        Optional simulated GPU or shared
        :class:`~repro.runtime.ExecutionContext`; all dispatched
        launches land on it.
    max_batch:
        Size budget: a compatibility group dispatches as soon as it
        holds this many requests (``1`` degenerates to the
        single-vector path, launch for launch).
    max_delay_ms:
        Latency budget: on every submit, any group whose oldest
        request is at least this old (per ``clock``) is dispatched.
        ``None`` (default) disables time-based dispatch — groups wait
        for the size budget or an explicit flush.
    clock:
        Monotonic time source in seconds (injectable for tests);
        defaults to :func:`time.monotonic`.
    plan_cache:
        Forwarded to the engine.
    parallel:
        Optional worker count forwarded to the engine (``None`` reads
        ``REPRO_WORKERS`` per dispatch).  When the matrix is sharded
        and runs multi-worker, every dispatch first seeds the work
        scheduler's sticky shard→worker map from each worker's current
        resident set, so a batch's shards route to the workers that
        already hold them resident.
    on_dispatch:
        Optional callback invoked after every dispatch with
        ``(tickets, batch_id, modeled_ms)`` — the just-served tickets
        (already ``done``; a failed batch's tickets carry its error,
        which :meth:`BatchTicket.result` re-raises), the batch id
        stamped on their launches,
        and the simulated device milliseconds the batch cost (0.0
        with no device attached or in production mode).  The serving
        layer uses this to resolve awaiting futures and to price
        completions on its virtual-time server model.
    tag_prefix:
        Prepended verbatim to every ``batch=<id> size=<B>`` launch
        tag.  A service hosting several queues on one tracer sets
        this (e.g. ``"mat=hot;"``) so batch ids stay unambiguous
        across queues.
    """

    def __init__(self, matrix, nt: int = 16, extract_threshold: int = 2,
                 device=None, max_batch: int = 32,
                 max_delay_ms: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic,
                 plan_cache=None, parallel=None,
                 on_dispatch: Optional[Callable] = None,
                 tag_prefix: str = ""):
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_delay_ms is not None and max_delay_ms < 0:
            raise ValueError(
                f"max_delay_ms must be >= 0, got {max_delay_ms}")
        self._matrix = matrix
        self._nt = nt
        self._extract_threshold = extract_threshold
        self._plan_cache = plan_cache
        self._parallel = parallel
        self._affinity_seeded = 0
        self.max_batch = int(max_batch)
        self.max_delay_ms = max_delay_ms
        self._clock = clock
        self._on_dispatch = on_dispatch
        self._tag_prefix = str(tag_prefix)
        self.ctx = ExecutionContext.wrap(device, operator="batch_queue")
        self._engines: Dict[Semiring, object] = {}
        self._pending: Dict[Semiring, List[BatchTicket]] = {}
        self._oldest: Dict[Semiring, float] = {}
        self._next_batch_id = 0
        self._requests = 0
        self._batches = 0
        self._dispatched = 0

    # ------------------------------------------------------------------
    def _engine(self, semiring: Semiring):
        engine = self._engines.get(semiring)
        if engine is None:
            from ..core.batched import BatchedSpMSpV
            engine = BatchedSpMSpV(
                self._matrix, nt=self._nt,
                extract_threshold=self._extract_threshold,
                semiring=semiring, device=self.ctx,
                plan_cache=self._plan_cache,
                parallel=self._parallel)
            self._engines[semiring] = engine
        return engine

    def warm(self, semiring: Semiring = PLUS_TIMES) -> None:
        """Build the engine (and therefore the cached preprocessing
        plan) for ``semiring`` now, ahead of the first dispatch — the
        hook the serving layer uses to pre-tile and pin hot matrices
        before traffic arrives."""
        self._engine(semiring)

    # ------------------------------------------------------------------
    def submit(self, x, semiring: Semiring = PLUS_TIMES,
               output: str = "sparse") -> BatchTicket:
        """Enqueue one multiply request; returns its ticket.

        The request may be dispatched before this returns (size or
        latency budget hit) — check ``ticket.done``.  A request that
        fails :meth:`check_request` raises here and is never enqueued.
        """
        self.check_request(x, semiring, output)
        ticket = BatchTicket(self, x, semiring, output)
        group = self._pending.setdefault(semiring, [])
        if not group:
            self._oldest[semiring] = self._clock()
        group.append(ticket)
        self._requests += 1
        if len(group) >= self.max_batch:
            self._dispatch(semiring)
        self.dispatch_overdue()
        return ticket

    def check_request(self, x, semiring: Semiring = PLUS_TIMES,
                     output: str = "sparse") -> None:
        """Reject a request before it is enqueued: a ``semiring`` that is
        not a :class:`~repro.semiring.Semiring` raises ``TypeError`` and
        an unknown ``output`` ``ValueError`` — both before an engine (and
        its plan) is built for them — and ``x`` without the matrix's
        column count :class:`~repro.errors.ShapeError`.  :meth:`submit`
        checks before enqueueing, so a bad request fails its own caller
        instead of the batch it would have joined."""
        if not isinstance(semiring, Semiring):
            raise TypeError(f"semiring must be a Semiring, got "
                            f"{type(semiring).__name__}")
        if output not in ("sparse", "dense"):
            raise ValueError(f"unknown output mode {output!r}")
        n = self._engine(semiring).shape[1]
        length = getattr(x, "n", None)
        if length is None:
            length = len(x)
        if length != n:
            raise ShapeError(f"vector length {length} != matrix columns "
                             f"{n}")

    def flush(self, semiring: Optional[Semiring] = None) -> int:
        """Dispatch pending requests now; returns how many were
        served.  With ``semiring`` only that compatibility group is
        flushed, otherwise all of them (in first-enqueued order)."""
        if semiring is not None:
            return self._dispatch(semiring)
        served = 0
        for s in sorted(self._pending, key=lambda s: self._oldest.get(
                s, float("inf"))):
            served += self._dispatch(s)
        return served

    @property
    def pending(self) -> int:
        """Requests enqueued but not yet dispatched."""
        return sum(len(g) for g in self._pending.values())

    def stats(self) -> Dict[str, float]:
        """Coalescing effectiveness counters."""
        return {
            "requests": self._requests,
            "batches": self._batches,
            "dispatched": self._dispatched,
            "pending": self.pending,
            "mean_batch_size": (self._dispatched / self._batches
                                if self._batches else 0.0),
            "affinity_seeded": self._affinity_seeded,
        }

    def next_deadline_ms(self) -> Optional[float]:
        """Milliseconds (per the injectable clock) until the earliest
        latency-budget deadline among pending groups — possibly
        negative when a group is already overdue; ``None`` when no
        deadline is armed (no ``max_delay_ms``, or nothing pending).

        This is the only deadline arithmetic an external dispatch loop
        needs, and it runs entirely on the injectable clock, so a
        fake-clock test of the async service layer stays deterministic.
        """
        if self.max_delay_ms is None:
            return None
        oldest = [self._oldest[s] for s in self._pending
                  if self._pending[s]]
        if not oldest:
            return None
        deadline = min(oldest) + self.max_delay_ms / 1e3
        return (deadline - self._clock()) * 1e3

    def dispatch_overdue(self) -> int:
        """Dispatch every group whose oldest request has exhausted the
        latency budget (per the injectable clock); returns how many
        requests were served.  Called implicitly on every submit and
        explicitly by external dispatch loops."""
        if self.max_delay_ms is None:
            return 0
        served = 0
        now = self._clock()
        for s in list(self._pending):
            # Same expression as next_deadline_ms() — a group whose
            # reported deadline is <= 0 ms is guaranteed to dispatch
            # here, so an external loop never spins on a deadline this
            # method disagrees with by one float rounding step.
            if (self._pending[s]
                    and now >= self._oldest[s]
                    + self.max_delay_ms / 1e3):
                served += self._dispatch(s)
        return served

    # ------------------------------------------------------------------
    def _dispatch(self, semiring: Semiring) -> int:
        group = self._pending.get(semiring) or []
        if not group:
            return 0
        self._pending[semiring] = []
        self._oldest.pop(semiring, None)
        batch_id = self._next_batch_id
        self._next_batch_id += 1
        engine = self._engine(semiring)
        sharded = engine._sharded
        if sharded is not None:
            self._affinity_seeded += sharded.seed_affinity_from_residency()
        elapsed_before = self.ctx.elapsed_ms
        error = None
        try:
            Y = engine.multiply_batch([t._x for t in group],
                                      output="dense",
                                      tag=f"{self._tag_prefix}"
                                          f"batch={batch_id} "
                                          f"size={len(group)}")
        except Exception as exc:
            # the group is already off the queue: every batchmate
            # learns of the failure, not only the triggering caller
            error = exc
        modeled_ms = self.ctx.elapsed_ms - elapsed_before
        for b, ticket in enumerate(group):
            if error is not None:
                ticket._error = error
            elif ticket.output == "dense":
                ticket._result = Y[b].copy()
            else:
                ticket._result = engine.sparsify(Y[b])
            ticket.done = True
            ticket.batch_id = batch_id
            ticket.batch_size = len(group)
            ticket._x = None          # release the enqueued vector
        self._batches += 1
        self._dispatched += len(group)
        if self._on_dispatch is not None:
            self._on_dispatch(group, batch_id, modeled_ms)
        if error is not None:
            raise error
        return len(group)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        s = self.stats()
        return (f"<BatchQueue max_batch={self.max_batch} "
                f"pending={s['pending']} requests={s['requests']} "
                f"batches={s['batches']}>")
