"""The request-coalescing scheduler: dispatch policy, grouping,
stats, and the degenerate-batch property.

The property test is the PR's oracle: a queue with ``max_batch=1``
(every request dispatched alone, so the batched kernel runs at B=1)
must reproduce the single-vector path *exactly* — result values,
device-timeline counters, and trace events (same counters and priced
times; only kernel names and phase labels differ by design)."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TileSpMSpV
from repro.errors import ShapeError
from repro.formats import COOMatrix
from repro.gpusim import Device
from repro.matrices import erdos_renyi
from repro.runtime import BatchQueue, ExecutionContext, Tracer
from repro.semiring import MIN_PLUS, PLUS_TIMES
from repro.vectors import SparseVector

from ..conftest import random_dense

N = 120


@pytest.fixture(scope="module")
def coo():
    return COOMatrix.from_dense(random_dense(N, N, 0.05, seed=71))


def vec(seed, k=8):
    r = np.random.default_rng(seed)
    idx = np.sort(r.choice(N, size=k, replace=False))
    return SparseVector(N, idx, 1.0 + r.random(k))


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, seconds):
        self.t += seconds


# ----------------------------------------------------------------------
# dispatch policy
# ----------------------------------------------------------------------
class TestDispatchPolicy:
    def test_size_budget(self, coo):
        q = BatchQueue(coo, nt=8, max_batch=3)
        t1, t2 = q.submit(vec(1)), q.submit(vec(2))
        assert not t1.done and not t2.done and q.pending == 2
        t3 = q.submit(vec(3))
        assert t1.done and t2.done and t3.done and q.pending == 0
        assert t1.batch_id == t2.batch_id == t3.batch_id
        assert t1.batch_size == 3

    def test_explicit_flush(self, coo):
        q = BatchQueue(coo, nt=8, max_batch=100)
        tickets = [q.submit(vec(s)) for s in range(4)]
        assert q.pending == 4
        assert q.flush() == 4
        assert all(t.done for t in tickets)
        assert q.flush() == 0

    def test_result_forces_flush(self, coo):
        q = BatchQueue(coo, nt=8, max_batch=100)
        t = q.submit(vec(5))
        y = t.result()
        assert t.done and q.pending == 0
        y_ref = TileSpMSpV(coo, nt=8).multiply(vec(5))
        assert np.array_equal(y.to_dense(), y_ref.to_dense())

    def test_latency_budget_with_fake_clock(self, coo):
        clock = FakeClock()
        q = BatchQueue(coo, nt=8, max_batch=100, max_delay_ms=50.0,
                       clock=clock)
        t1 = q.submit(vec(1))
        clock.advance(0.020)                  # 20 ms: still within
        t2 = q.submit(vec(2))
        assert not t1.done and not t2.done
        clock.advance(0.035)                  # oldest is now 55 ms old
        t3 = q.submit(vec(3))
        assert t1.done and t2.done and t3.done
        assert t1.batch_size == 3

    def test_no_time_dispatch_without_budget(self, coo):
        clock = FakeClock()
        q = BatchQueue(coo, nt=8, max_batch=100, clock=clock)
        t = q.submit(vec(1))
        clock.advance(1e6)
        q.submit(vec(2))
        assert not t.done and q.pending == 2

    def test_semiring_groups_are_separate(self, coo):
        q = BatchQueue(coo, nt=8, max_batch=2)
        a1 = q.submit(vec(1), semiring=PLUS_TIMES)
        b1 = q.submit(vec(2), semiring=MIN_PLUS)
        assert q.pending == 2 and not a1.done and not b1.done
        a2 = q.submit(vec(3), semiring=PLUS_TIMES)
        # the plus_times group filled; min_plus still waits
        assert a1.done and a2.done and not b1.done
        assert q.flush(MIN_PLUS) == 1
        assert b1.done
        y_ref = TileSpMSpV(coo, nt=8, semiring=MIN_PLUS).multiply(vec(2))
        assert np.array_equal(b1.result().to_dense(), y_ref.to_dense())

    def test_stats(self, coo):
        q = BatchQueue(coo, nt=8, max_batch=2)
        for s in range(5):
            q.submit(vec(s))
        stats = q.stats()
        assert stats == {"requests": 5, "batches": 2, "dispatched": 4,
                         "pending": 1, "mean_batch_size": 2.0,
                         "affinity_seeded": 0}

    def test_validation(self, coo):
        with pytest.raises(ValueError):
            BatchQueue(coo, max_batch=0)
        with pytest.raises(ValueError):
            BatchQueue(coo, max_delay_ms=-1.0)
        q = BatchQueue(coo, nt=8)
        with pytest.raises(ValueError):
            q.submit(vec(1), output="list")

    def test_dense_output(self, coo):
        q = BatchQueue(coo, nt=8, max_batch=1)
        t = q.submit(vec(9), output="dense")
        y_ref = TileSpMSpV(coo, nt=8).multiply(vec(9), output="dense")
        assert np.array_equal(t.result(), y_ref)

    def test_dispatch_tags_reach_trace(self, coo):
        tracer = Tracer()
        ctx = ExecutionContext(device=Device(), tracer=tracer)
        q = BatchQueue(coo, nt=8, max_batch=2, device=ctx)
        q.submit(vec(1))
        q.submit(vec(2))
        tags = [ev.tag for ev in tracer.events]
        assert "batch=0 size=2" in tags


# ----------------------------------------------------------------------
# external dispatch surface (what the serving layer drives)
# ----------------------------------------------------------------------
class TestExternalDispatch:
    def test_next_deadline_tracks_oldest(self, coo):
        clock = FakeClock()
        q = BatchQueue(coo, nt=8, max_batch=100, max_delay_ms=10.0,
                       clock=clock)
        assert q.next_deadline_ms() is None       # nothing pending
        q.submit(vec(1))
        assert q.next_deadline_ms() == pytest.approx(10.0)
        clock.advance(0.004)
        assert q.next_deadline_ms() == pytest.approx(6.0)
        clock.advance(0.008)                      # 2 ms overdue
        assert q.next_deadline_ms() == pytest.approx(-2.0)

    def test_next_deadline_none_without_budget(self, coo):
        q = BatchQueue(coo, nt=8, max_batch=100)
        q.submit(vec(1))
        assert q.next_deadline_ms() is None

    def test_dispatch_overdue(self, coo):
        clock = FakeClock()
        q = BatchQueue(coo, nt=8, max_batch=100, max_delay_ms=10.0,
                       clock=clock)
        t = q.submit(vec(1))
        assert q.dispatch_overdue() == 0 and not t.done
        clock.advance(0.011)
        assert q.dispatch_overdue() == 1 and t.done
        assert q.dispatch_overdue() == 0

    def test_on_dispatch_callback(self, coo):
        calls = []
        q = BatchQueue(coo, nt=8, max_batch=2, device=Device(),
                       on_dispatch=lambda tk, bid, ms:
                       calls.append((tk, bid, ms)))
        t1, t2 = q.submit(vec(1)), q.submit(vec(2))
        assert len(calls) == 1
        tickets, batch_id, modeled_ms = calls[0]
        assert tickets == [t1, t2] and batch_id == 0
        assert all(t.done for t in tickets)       # done before callback
        assert modeled_ms > 0                     # priced by the device
        q.submit(vec(3))
        assert q.flush() == 1 and len(calls) == 2
        assert calls[1][1] == 1 and len(calls[1][0]) == 1

    def test_on_dispatch_modeled_ms_without_device(self, coo):
        calls = []
        q = BatchQueue(coo, nt=8, max_batch=1,
                       on_dispatch=lambda tk, bid, ms: calls.append(ms))
        q.submit(vec(1))
        assert calls == [0.0]

    def test_warm_prebuilds_cached_plan(self, coo):
        from repro.runtime import PlanCache
        cache = PlanCache()
        q = BatchQueue(coo, nt=8, plan_cache=cache)
        assert cache.stats()["size"] == 0
        q.warm()
        assert cache.stats()["size"] == 1
        misses = cache.stats()["misses"]
        t = q.submit(vec(1))
        t.result()
        assert cache.stats()["misses"] == misses  # dispatch reused it

    def test_tag_prefix_reaches_trace(self, coo):
        tracer = Tracer()
        ctx = ExecutionContext(device=Device(), tracer=tracer)
        q = BatchQueue(coo, nt=8, max_batch=2, device=ctx,
                       tag_prefix="mat=hot;")
        q.submit(vec(1))
        q.submit(vec(2))
        assert "mat=hot;batch=0 size=2" in [ev.tag
                                            for ev in tracer.events]


# ----------------------------------------------------------------------
# the degenerate-batch property: max_batch=1 == the single-vector path
# ----------------------------------------------------------------------
@given(st.lists(st.integers(min_value=0, max_value=2**16),
                min_size=1, max_size=4),
       st.sampled_from([PLUS_TIMES, MIN_PLUS]))
@settings(max_examples=25, deadline=None)
def test_batch_size_one_reproduces_single_path(seeds, semiring):
    coo = COOMatrix.from_dense(random_dense(N, N, 0.05, seed=71))

    single_tracer = Tracer()
    single_ctx = ExecutionContext(device=Device(),
                                  tracer=single_tracer)
    single = TileSpMSpV(coo, nt=8, semiring=semiring,
                        device=single_ctx)

    queue_tracer = Tracer()
    queue_ctx = ExecutionContext(device=Device(), tracer=queue_tracer)
    q = BatchQueue(coo, nt=8, max_batch=1, device=queue_ctx)

    for seed in seeds:
        x = vec(seed)
        t = q.submit(x, semiring=semiring)
        assert t.done and t.batch_size == 1    # dispatched immediately
        y_ref = single.multiply(x)
        y = t.result()
        # results: exact, values and pattern
        assert np.array_equal(y.indices, y_ref.indices)
        assert np.array_equal(y.values, y_ref.values)

    # trace events: same count, and pairwise identical counters and
    # priced durations — only the kernel name and phase label differ
    assert len(queue_tracer.events) == len(single_tracer.events)
    for qe, se in zip(queue_tracer.events, single_tracer.events):
        assert qe.dur_ms == se.dur_ms
        for f in dataclasses.fields(se.counters):
            assert getattr(qe.counters, f.name) == \
                getattr(se.counters, f.name), f.name
    # and therefore the device timelines agree to the microsecond
    assert queue_ctx.elapsed_ms == single_ctx.elapsed_ms


def test_wrong_length_vector_fails_only_its_caller():
    """A bad request is rejected at submit; its would-be batchmates
    still dispatch, bit-identical to a batch that never saw it."""
    A = erdos_renyi(256, 4)

    def good(seed):
        r = np.random.default_rng(seed)
        idx = np.sort(r.choice(256, size=10, replace=False))
        return SparseVector(256, idx, 1.0 + r.random(10))

    q = BatchQueue(A, max_batch=3)
    t1, t2 = q.submit(good(1)), q.submit(good(2))
    with pytest.raises(ShapeError):
        q.submit(SparseVector(200, np.array([3]), np.array([1.0])))
    assert q.pending == 2 and not t1.done
    q.flush()

    clean = BatchQueue(A, max_batch=3)
    r1, r2 = clean.submit(good(1)), clean.submit(good(2))
    clean.flush()
    for t, r in ((t1, r1), (t2, r2)):
        assert t.done and t.batch_size == 2
        assert np.array_equal(t.result().indices, r.result().indices)
        assert np.array_equal(t.result().values, r.result().values)


def test_failing_batch_resolves_every_batchmate(coo):
    """An engine error fails the whole batch, not only the caller whose
    submit dispatched it: every ticket is done and re-raises the error,
    ``on_dispatch`` still reports the batch, and the queue keeps
    serving afterwards."""
    served = []
    q = BatchQueue(coo, max_batch=3,
                   on_dispatch=lambda ts, bid, ms: served.append(ts))
    engine = q._engine(PLUS_TIMES)

    def boom(*args, **kwargs):
        raise RuntimeError("engine failure")

    engine.multiply_batch = boom
    t1, t2 = q.submit(vec(1)), q.submit(vec(2))
    with pytest.raises(RuntimeError, match="engine failure"):
        q.submit(vec(3))                  # triggers the size dispatch
    assert q.pending == 0 and t1.done and t2.done
    for t in (t1, t2):
        with pytest.raises(RuntimeError, match="engine failure"):
            t.result()
    assert len(served) == 1 and len(served[0]) == 3
    assert all(t.done for t in served[0])

    del engine.multiply_batch
    t4 = q.submit(vec(4))
    y_ref = TileSpMSpV(coo).multiply(vec(4))
    assert np.array_equal(t4.result().indices, y_ref.indices)
    assert np.array_equal(t4.result().values, y_ref.values)
