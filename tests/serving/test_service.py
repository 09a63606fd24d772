"""The graph-query service: registration, routing, coalescing, the
async submit path, and request-level observability."""

import asyncio

import numpy as np
import pytest

from repro.core import BatchedSpMSpV, TileBFS, TileSpMSpV
from repro.errors import ShapeError
from repro.formats import COOMatrix
from repro.gpusim import Device
from repro.graphs import pagerank
from repro.runtime import Tracer
from repro.semiring import MIN_PLUS, PLUS_TIMES
from repro.serving import (BFSQuery, GraphQueryService, MultiplyQuery,
                           PageRankQuery, UnknownMatrixError,
                           VirtualClock)

from ..conftest import random_dense

N = 96


@pytest.fixture(scope="module")
def coo():
    return COOMatrix.from_dense(random_dense(N, N, 0.06, seed=31))


def vec(seed, k=8):
    r = np.random.default_rng(seed)
    idx = np.sort(r.choice(N, size=k, replace=False))
    from repro.vectors import SparseVector
    return SparseVector(N, idx, 1.0 + r.random(k))


def make_service(coo, **kw):
    kw.setdefault("device", Device())
    kw.setdefault("clock", VirtualClock())
    svc = GraphQueryService(**kw)
    svc.register_matrix("m", coo)
    return svc


class TestRegistration:
    def test_duplicate_name_rejected(self, coo):
        svc = make_service(coo)
        with pytest.raises(ValueError):
            svc.register_matrix("m", coo)
        assert svc.matrices == ("m",)

    def test_unknown_matrix(self, coo):
        svc = make_service(coo)
        with pytest.raises(UnknownMatrixError) as ei:
            svc.submit_nowait(MultiplyQuery("nope", vec(1)))
        assert "m" in ei.value.known

    def test_unknown_query_type(self, coo):
        svc = make_service(coo)
        with pytest.raises(TypeError):
            svc.submit_nowait("just a string")

    def test_pin_registers_against_quota(self, coo):
        svc = make_service(coo)
        svc.register_matrix("pinned", coo, pin=True)
        assert svc.tenants.pinned("default") == 1
        assert svc.unpin_plans("pinned") is True
        assert svc.tenants.pinned("default") == 0


    def test_pin_plans_pins_the_engine_plan(self, coo):
        svc = make_service(coo)
        assert svc.pin_plans("m") is True
        served = svc._lookup("m")
        engine = served.queue._engine(PLUS_TIMES)
        assert svc.tenants.partition(served.tenant).is_pinned(
            engine._plan.key)


class TestQueryPaths:
    def test_multiply_matches_direct_engine(self, coo):
        svc = make_service(coo, max_batch=100)
        t = svc.submit_nowait(MultiplyQuery("m", vec(3)))
        assert not t.done
        y = t.result()                    # blocking get forces flush
        y_ref = TileSpMSpV(coo).multiply(vec(3))
        assert np.array_equal(y.indices, y_ref.indices)
        assert np.array_equal(y.values, y_ref.values)

    def test_multiply_semiring_and_dense_output(self, coo):
        svc = make_service(coo, max_batch=1)
        t = svc.submit_nowait(MultiplyQuery("m", vec(4),
                                            semiring=MIN_PLUS,
                                            output="dense"))
        assert t.done
        y_ref = TileSpMSpV(coo, semiring=MIN_PLUS).multiply(
            vec(4), output="dense")
        assert np.array_equal(t.value, y_ref)

    def test_bfs_matches_direct_engine(self, coo):
        svc = make_service(coo)
        t = svc.submit_nowait(BFSQuery("m", 0))
        assert t.done and t.record.kind == "bfs"
        ref = TileBFS(coo).run(0)
        assert np.array_equal(t.value.levels, ref.levels)

    def test_pagerank_matches_direct_and_memoizes(self, coo):
        svc = make_service(coo)
        t1 = svc.submit_nowait(PageRankQuery("m"))
        ranks_ref, iters_ref = pagerank(coo)
        assert np.allclose(t1.value[0], ranks_ref)
        assert t1.value[1] == iters_ref
        t2 = svc.submit_nowait(PageRankQuery("m"))
        assert svc.stats()["pagerank_memo"]["hits"] == 1
        # memo hands out copies: mutating a result must not poison it
        t2.value[0][:] = -1.0
        t3 = svc.submit_nowait(PageRankQuery("m"))
        assert np.allclose(t3.value[0], ranks_ref)
        # different parameters are a different memo entry
        svc.submit_nowait(PageRankQuery("m", damping=0.7))
        assert svc.stats()["pagerank_memo"]["entries"] == 2

    def test_per_matrix_queues_are_independent(self, coo):
        svc = make_service(coo, max_batch=2)
        svc.register_matrix("other", coo)
        t1 = svc.submit_nowait(MultiplyQuery("m", vec(1)))
        t2 = svc.submit_nowait(MultiplyQuery("other", vec(2)))
        assert not t1.done and not t2.done and svc.pending == 2
        t3 = svc.submit_nowait(MultiplyQuery("m", vec(3)))
        # m's queue filled its size budget; other's still waits
        assert t1.done and t3.done and not t2.done


class TestAsyncPath:
    def test_await_resolves_on_size_budget(self, coo):
        svc = make_service(coo, max_batch=2, max_delay_ms=None)

        async def main():
            await svc.start()
            try:
                return await asyncio.gather(
                    svc.submit(MultiplyQuery("m", vec(1))),
                    svc.submit(MultiplyQuery("m", vec(2))))
            finally:
                await svc.stop()

        y1, y2 = asyncio.run(main())
        assert np.array_equal(
            y1.to_dense(), TileSpMSpV(coo).multiply(vec(1)).to_dense())
        assert np.array_equal(
            y2.to_dense(), TileSpMSpV(coo).multiply(vec(2)).to_dense())

    def test_await_resolves_on_latency_budget(self, coo):
        # real clock: the background loop must fire the 5 ms budget
        import time
        svc = GraphQueryService(device=Device(), clock=time.monotonic,
                                max_batch=100, max_delay_ms=5.0)
        svc.register_matrix("m", coo)

        async def main():
            await svc.start()
            try:
                return await asyncio.wait_for(
                    svc.submit(MultiplyQuery("m", vec(7))), timeout=10)
            finally:
                await svc.stop()

        y = asyncio.run(main())
        assert np.array_equal(
            y.to_dense(), TileSpMSpV(coo).multiply(vec(7)).to_dense())

    def test_stop_drains_pending(self, coo):
        svc = make_service(coo, max_batch=100, max_delay_ms=None)

        async def main():
            await svc.start()
            task = asyncio.ensure_future(
                svc.submit(MultiplyQuery("m", vec(9))))
            await asyncio.sleep(0)         # let it enqueue
            assert svc.pending == 1
            await svc.stop(drain=True)
            return await task

        y = asyncio.run(main())
        assert svc.pending == 0
        assert np.array_equal(
            y.to_dense(), TileSpMSpV(coo).multiply(vec(9)).to_dense())


class TestDeadlineDispatch:
    def test_request_landing_exactly_on_deadline_dispatches(self, coo):
        clk = VirtualClock(start=1 / 3)       # awkward float origin
        svc = make_service(coo, clock=clk, max_batch=100,
                           max_delay_ms=5.0)
        t = svc.submit_nowait(MultiplyQuery("m", vec(1)))
        assert svc.pump() == 0                # budget not exhausted yet
        clk.advance(5.0 / 1e3)                # exactly on the deadline
        d = svc.next_deadline_ms()
        assert d is not None and d <= 0.0
        assert svc.pump() == 1                # must fire, not spin
        assert t.done

    def test_overdue_request_dispatches(self, coo):
        clk = VirtualClock()
        svc = make_service(coo, clock=clk, max_batch=100,
                           max_delay_ms=5.0)
        t = svc.submit_nowait(MultiplyQuery("m", vec(2)))
        clk.advance(0.007)                    # well past the budget
        assert svc.next_deadline_ms() < 0
        assert svc.pump() == 1 and t.done

    def test_deadline_and_overdue_check_agree(self, coo):
        # Regression: next_deadline_ms() and dispatch_overdue() must
        # never disagree by a float rounding step, or the async loop
        # busy-spins on a deadline the queue refuses to fire.
        for start in (0.0, 1 / 3, 0.1, 12345.6789, 2.0 ** 31):
            clk = VirtualClock(start=start)
            svc = make_service(coo, clock=clk, max_batch=100,
                               max_delay_ms=5.0)
            svc.submit_nowait(MultiplyQuery("m", vec(3)))
            clk.advance(5.0 / 1e3)
            d = svc.next_deadline_ms()
            assert d is not None and d <= 0.0, f"start={start}"
            assert svc.pump() == 1, f"would spin at start={start}"

    def test_async_loop_fires_overdue_virtual_deadline(self, coo):
        # The dispatch loop must serve a request whose deadline has
        # already passed on the virtual clock without sleeping a
        # negative timeout or spinning.
        clk = VirtualClock(start=0.125)
        svc = make_service(coo, clock=clk, max_batch=100,
                           max_delay_ms=5.0)

        async def main():
            await svc.start()
            try:
                fut = asyncio.ensure_future(
                    svc.submit(MultiplyQuery("m", vec(4))))
                await asyncio.sleep(0)        # enqueue the request
                clk.advance(5.0 / 1e3)        # lands exactly on deadline
                svc._kick()                   # wake the loop
                return await asyncio.wait_for(fut, timeout=5)
            finally:
                await svc.stop()

        y = asyncio.run(main())
        assert np.array_equal(
            y.to_dense(), TileSpMSpV(coo).multiply(vec(4)).to_dense())

    def test_failed_batch_fails_its_awaiters_and_keeps_serving(self,
                                                               coo):
        # the dispatch loop fires the failing batch on its latency
        # budget: both awaiters get the engine error, their records
        # close as errors, and the loop survives to serve a clean
        # request bit-identical to a direct engine call
        clk = VirtualClock()
        svc = make_service(coo, clock=clk, max_batch=100,
                           max_delay_ms=5.0)
        engine = svc._served["m"].queue._engine(PLUS_TIMES)

        def boom(*args, **kwargs):
            raise RuntimeError("engine failure")

        async def batch(seeds):
            futs = [asyncio.ensure_future(
                        svc.submit(MultiplyQuery("m", vec(s))))
                    for s in seeds]
            await asyncio.sleep(0)            # enqueue the requests
            clk.advance(5.0 / 1e3)
            svc._kick()
            return await asyncio.wait_for(
                asyncio.gather(*futs, return_exceptions=True), timeout=5)

        async def main():
            await svc.start()
            try:
                engine.multiply_batch = boom
                failed = await batch((1, 2))
                del engine.multiply_batch
                return failed, await batch((3,))
            finally:
                await svc.stop()

        failed, (y,) = asyncio.run(main())
        assert [str(e) for e in failed] == ["engine failure"] * 2
        assert all(isinstance(e, RuntimeError) for e in failed)
        for rec in svc.log.records[:2]:
            assert rec.status == "error" and rec.done_s is not None
        assert svc.log.records[2].status == "ok"
        (y_ref,) = BatchedSpMSpV(coo).multiply_batch([vec(3)])
        assert np.array_equal(y.indices, y_ref.indices)
        assert np.array_equal(y.values.view(np.uint8),
                              y_ref.values.view(np.uint8))


class TestObservability:
    def test_multiply_requests_resolve_to_batch_events(self, coo):
        svc = make_service(coo, tracer=Tracer(), max_batch=2)
        svc.register_matrix("m2", coo)
        ta = svc.submit_nowait(MultiplyQuery("m", vec(1)))
        tb = svc.submit_nowait(MultiplyQuery("m", vec(2)))
        tc = svc.submit_nowait(MultiplyQuery("m2", vec(3)))
        td = svc.submit_nowait(MultiplyQuery("m2", vec(4)))
        ev_a = svc.events_for(ta.request_id)
        ev_c = svc.events_for(tc.request_id)
        assert ev_a and ev_c
        # batchmates share their launches; other queues' batches (with
        # the same batch id) never leak in
        assert ev_a == svc.events_for(tb.request_id)
        assert ev_c == svc.events_for(td.request_id)
        assert not set(id(e) for e in ev_a) & set(id(e) for e in ev_c)
        assert all(e.tag.startswith("mat=m;") for e in ev_a)
        assert ta.record.launch_tag == "mat=m;batch=0"

    def test_direct_requests_get_seq_window(self, coo):
        svc = make_service(coo, tracer=Tracer())
        t = svc.submit_nowait(BFSQuery("m", 0))
        evs = svc.events_for(t.request_id)
        assert evs
        assert t.record.seq_end - t.record.seq_start == len(evs)
        assert all("bfs" in e.name for e in evs)

    def test_wrong_length_multiply_opens_no_record(self, coo):
        svc = make_service(coo)
        with pytest.raises(ShapeError):
            svc.submit_nowait(MultiplyQuery("m", np.ones(N + 5)))
        assert len(svc.log) == 0 and svc.pending == 0

    def test_bad_semiring_or_output_builds_nothing(self, coo):
        """A non-Semiring is rejected before an engine (and its tiling
        plan) is built for it, and a bad output before a record opens;
        a pending batchmate is untouched."""
        svc = make_service(coo, max_batch=8)
        good = svc.submit_nowait(MultiplyQuery("m", vec(1)))
        queue = svc._lookup("m").queue
        cache = svc.tenants.partition("default")
        plans, engines = len(cache), dict(queue._engines)
        for bad in ("plus_times", None):
            with pytest.raises(TypeError):
                svc.submit_nowait(MultiplyQuery("m", vec(2), semiring=bad))
        with pytest.raises(ValueError):
            svc.submit_nowait(MultiplyQuery("m", vec(3), output="tiled"))
        assert len(cache) == plans
        assert queue._engines == engines
        assert len(svc.log) == 1 and svc.pending == 1
        svc.drain()
        assert good.done and good.record.status == "ok"

    def test_failed_direct_query_closes_its_record(self, coo):
        svc = make_service(coo)
        with pytest.raises(Exception):
            svc.submit_nowait(BFSQuery("m", 10**6))
        rec = svc.log.records[-1]
        assert rec.status == "error"
        assert rec.done_s is not None

    def test_stats_shape(self, coo):
        svc = make_service(coo, max_batch=2)
        for s in range(4):
            svc.submit_nowait(MultiplyQuery("m", vec(s)))
        svc.submit_nowait(BFSQuery("m", 1))
        stats = svc.stats()
        assert stats["requests"] == 5 and stats["completed"] == 5
        assert stats["rejected"] == 0 and stats["pending"] == 0
        assert stats["latency"]["multiply"]["count"] == 4
        assert stats["latency"]["bfs"]["count"] == 1
        assert stats["latency"]["all"]["p99_ms"] >= 0
        assert stats["queues"]["m"]["batches"] == 2
        assert stats["admission"]["admitted"] == 5
        assert "default" in stats["tenants"]

    def test_p99_is_an_observed_latency_on_small_samples(self):
        from repro.serving import RequestLog
        log = RequestLog()
        # 10 samples: 1..9 ms plus one 100 ms straggler.  Linear
        # interpolation would report p99 ≈ 91.8 ms — below the max, a
        # latency no request actually paid.
        for i, ms in enumerate([1, 2, 3, 4, 5, 6, 7, 8, 9, 100]):
            rec = log.open("default", "multiply", "m", None, float(i))
            log.complete(rec, float(i) + ms / 1e3)
        r = log.rollup()
        assert r["p99_ms"] == pytest.approx(100.0)
        assert r["p99_ms"] == pytest.approx(r["max_ms"])
        # the interpolated value the old rollup reported sat below max
        lat = log.latencies_ms()
        assert float(np.percentile(lat, 99)) < r["max_ms"]
        # the median keeps the default interpolation
        assert r["p50_ms"] == pytest.approx(5.5)

    def test_request_log_jsonl_roundtrip(self, coo, tmp_path):
        import json
        svc = make_service(coo, max_batch=1)
        svc.submit_nowait(MultiplyQuery("m", vec(1)))
        path = tmp_path / "requests.jsonl"
        svc.log.write_jsonl(path)
        rows = [json.loads(line)
                for line in path.read_text().splitlines()]
        assert rows[0]["status"] == "ok"
        assert rows[0]["latency_ms"] is not None

    def test_virtual_completion_model_accumulates_backlog(self, coo):
        clk = VirtualClock()
        svc = make_service(coo, clock=clk, max_batch=1)
        svc.submit_nowait(MultiplyQuery("m", vec(1)))
        first = svc.backlog_ms
        assert first > 0               # modeled work queued behind now
        svc.submit_nowait(MultiplyQuery("m", vec(2)))
        assert svc.backlog_ms > first  # server model is busy
        clk.advance(1.0)
        assert svc.backlog_ms == 0.0   # drained once time passes
