"""The launch context: one API between operators and the device.

Before the runtime existed, every operator hand-rolled the same three
lines at each kernel boundary::

    if self.device is not None:
        ms = self.device.submit(name, counters).total_ms

:class:`ExecutionContext` centralises that: operators call
:meth:`ExecutionContext.launch` unconditionally; the None-device case
(functional execution with no accounting) is handled here, once, and a
:class:`~repro.runtime.tracing.Tracer` — when attached — observes every
priced launch with its operator tag and phase.

Operators accept either a raw :class:`~repro.gpusim.Device` (the
historical API, still supported everywhere) or an
:class:`ExecutionContext`; :meth:`ExecutionContext.wrap` normalises the
two.  Passing one shared context to several operators is how a traced
multi-operator workload is assembled — each operator scopes the context
with its own tag, while the device timeline and the tracer are shared.
Every prepared operator derives that plumbing — its tag, its context
and the ``device`` property that rebinds it — from
:class:`ScopedOperator`.

Production mode
---------------
``ExecutionContext(device, mode="production")`` compiles gpusim
accounting out of the hot path: :meth:`launch` stops submitting to the
device (and the compiled fast path skips building counters at all) and
instead appends the launch — or a zero-argument *counter closure* via
:meth:`defer` — to a replay log shared by every scoped view.
:meth:`replay` prices that log into a modeled timeline on demand, so
the full trace stays available after the fact and matches a
counters-on run launch for launch.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple, Union

from ..gpusim import Device, KernelCounters, KernelTime
from .tracing import Tracer

__all__ = ["ExecutionContext", "ScopedOperator"]

_MODES = ("modeled", "production")

#: Keyword names of the kernels' in-place accumulator arguments.
_ACCUMULATORS = ("y_dense", "Y")


class ExecutionContext:
    """Execution state shared by an operator's kernel launches.

    Parameters
    ----------
    device:
        The simulated GPU receiving priced launch records, or ``None``
        for functional-only execution (no accounting at all — the
        single place that check lives).
    tracer:
        Optional structured-trace collector; sees every priced launch.
    operator:
        Tag naming the operator this context is scoped to (e.g.
        ``"tilespmspv"``); recorded on trace events.
    mode:
        ``"modeled"`` (default) prices every launch inline;
        ``"production"`` records launches (or deferred counter
        closures) into a replay log instead — see :meth:`replay`.
    """

    def __init__(self, device: Optional[Device] = None,
                 tracer: Optional[Tracer] = None,
                 operator: Optional[str] = None,
                 mode: str = "modeled",
                 _replay_log: Optional[list] = None):
        if mode not in _MODES:
            raise ValueError(f"unknown execution mode {mode!r}; "
                             f"expected one of {_MODES}")
        self.device = device
        self.tracer = tracer
        self.operator = operator
        self.mode = mode
        # shared across every scoped view so one replay covers a whole
        # multi-operator workload in launch order
        self._replay_log: List[Tuple] = ([] if _replay_log is None
                                         else _replay_log)

    # ------------------------------------------------------------------
    @classmethod
    def wrap(cls, device: Union["ExecutionContext", Device, None],
             operator: Optional[str] = None) -> "ExecutionContext":
        """Normalise a ``device=`` argument into a context.

        A raw :class:`Device` (or ``None``) gets a fresh private
        context; an existing context is scoped to ``operator`` while
        sharing its device, tracer, mode, and replay log.
        """
        if isinstance(device, ExecutionContext):
            return device.scoped(operator)
        return cls(device, operator=operator)

    def scoped(self, operator: Optional[str]) -> "ExecutionContext":
        """A view of this context tagged with ``operator`` (device,
        tracer, mode, and replay log shared)."""
        return ExecutionContext(self.device, tracer=self.tracer,
                                operator=operator or self.operator,
                                mode=self.mode,
                                _replay_log=self._replay_log)

    # ------------------------------------------------------------------
    @property
    def production(self) -> bool:
        """True when accounting is deferred to :meth:`replay`."""
        return self.mode == "production"

    @property
    def active(self) -> bool:
        """True when launches are priced inline right now — the guard
        hot loops test *before* building counters, tags, or launch
        names (the cheap-when-off contract)."""
        return self.device is not None and self.mode == "modeled"

    @property
    def accounting(self) -> bool:
        """True when a launch leaves any record at all (inline pricing
        or the production replay log) — the guard for building launch
        *metadata* such as shard tags."""
        return self.active or self.mode == "production"

    # ------------------------------------------------------------------
    def launch(self, name: str, counters: KernelCounters,
               tag: Optional[str] = None,
               phase: Optional[str] = None) -> float:
        """Submit one kernel launch; returns its priced time in ms.

        With no device attached this is a no-op returning ``0.0`` — the
        functional result of the caller is identical either way.  In
        production mode the launch is appended to the replay log (the
        counters are kept as-is, not priced) and ``0.0`` is returned.
        The launch record appended to the device timeline is exactly
        what a direct ``device.submit(name, counters, tag)`` would
        append.
        """
        if self.mode == "production":
            self._replay_log.append((name, counters, tag, phase,
                                     self.operator))
            return 0.0
        if self.device is None:
            return 0.0
        t: KernelTime = self.device.submit(name, counters, tag)
        if self.tracer is not None:
            self.tracer.record(name=name, counters=counters, time=t,
                               operator=self.operator, phase=phase,
                               tag=tag)
        return t.total_ms

    def run(self, name: str, kernel: Callable, *args,
            tag: Optional[str] = None, phase: Optional[str] = None,
            **kwargs):
        """Run one kernel and account for it as this context asks.

        ``kernel(*args, **kwargs)`` must return ``(result, counters)``
        and accept ``with_counters``.  It runs counters-on and its
        launch is priced inline when :attr:`active`; otherwise it runs
        counters-off, and production mode defers a closure that re-runs
        it counters-on at :meth:`replay`.  The replay drops any
        in-place accumulator argument (:data:`_ACCUMULATORS`) and runs
        on a fresh one — counters never depend on it, and the closure
        must not write into a result the caller already holds.
        Returns the kernel's result.
        """
        result, counters = kernel(*args, with_counters=self.active,
                                  **kwargs)
        if counters is not None:
            self.launch(name, counters, tag=tag, phase=phase)
        elif self.production:
            fresh = {k: v for k, v in kwargs.items()
                     if k not in _ACCUMULATORS}
            self.defer(name, lambda: kernel(*args, **fresh)[1],
                       tag=tag, phase=phase)
        return result

    def defer(self, name: str,
              counter_fn: Callable[[], KernelCounters],
              tag: Optional[str] = None,
              phase: Optional[str] = None) -> None:
        """Record a production-mode launch whose counters are computed
        lazily at :meth:`replay` time.

        The fast path uses this to compile accounting out entirely:
        ``counter_fn`` captures the (cheap, immutable) inputs the
        modeled counters are a pure function of, and nothing counter-
        related runs until someone asks for the timeline.  No-op
        outside production mode.
        """
        if self.mode == "production":
            self._replay_log.append((name, counter_fn, tag, phase,
                                     self.operator))

    # ------------------------------------------------------------------
    @property
    def deferred_launches(self) -> int:
        """Entries currently in the production replay log."""
        return len(self._replay_log)

    def replay(self, device: Optional[Device] = None,
               tracer: Optional[Tracer] = None) -> Device:
        """Price the production replay log into a modeled timeline.

        Walks the log in launch order, resolving deferred counter
        closures, and submits each launch to ``device`` (a fresh
        :class:`~repro.gpusim.Device` when omitted) exactly as a
        counters-on run would have; ``tracer`` observes every replayed
        launch with its original operator tag and phase.  The log is
        left intact so the timeline can be re-derived; call
        :meth:`clear_replay` to start a new measurement window.
        """
        if device is None:
            device = Device()
        for name, counters, tag, phase, operator in list(self._replay_log):
            c = counters() if callable(counters) else counters
            t = device.submit(name, c, tag)
            if tracer is not None:
                tracer.record(name=name, counters=c, time=t,
                              operator=operator, phase=phase, tag=tag)
        return device

    def clear_replay(self) -> None:
        """Drop the production replay log."""
        self._replay_log.clear()

    # ------------------------------------------------------------------
    @property
    def elapsed_ms(self) -> float:
        """Total simulated ms on the attached device (0.0 if none)."""
        return self.device.elapsed_ms if self.device is not None else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"<ExecutionContext operator={self.operator!r} "
                f"device={self.device!r} "
                f"traced={self.tracer is not None}>")


class ScopedOperator:
    """The launch-context plumbing every prepared operator shares.

    A subclass names its tag once, as the class attribute
    :attr:`operator`; :meth:`__init__` wraps the ``device=`` argument
    into :attr:`ctx` scoped to that tag, and assigning :attr:`device`
    rebinds it later: a context is rescoped to the tag, while a raw
    :class:`~repro.gpusim.Device` (or ``None``) replaces the device and
    keeps the tracer, mode and replay log.  An operator that delegates
    to a sharded engine stores it in :attr:`_sharded`, and every
    rebinding reaches the engine too.
    """

    #: Operator tag of the launch context (trace events carry it).
    operator: Optional[str] = None
    #: The sharded engine this operator delegates to, if any.
    _sharded = None

    def __init__(self, device: Union[ExecutionContext, Device, None]):
        self.ctx = ExecutionContext.wrap(device, operator=self.operator)

    @property
    def device(self) -> Optional[Device]:
        """The attached simulated GPU (held by the launch context)."""
        return self.ctx.device

    @device.setter
    def device(self, device) -> None:
        if isinstance(device, ExecutionContext):
            self.ctx = device.scoped(self.operator)
        else:
            self.ctx.device = device
        if self._sharded is not None:
            self._sharded.device = self.ctx
