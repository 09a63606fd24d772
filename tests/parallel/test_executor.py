"""Worker-pool executor: bit-identity, launch streams, stats, affinity.

The shard store picks the backend: in-memory stores run on the thread
backend, directory stores on the process backend.  Each busy worker
runs its shard queue as one task, so even under a budget that evicts,
repeated runs give one launch stream."""

import numpy as np
import pytest

from repro.gpusim import Device
from repro.runtime import BatchQueue
from repro.semiring import PLUS_TIMES
from repro.shards import ShardedSpMSpV, ShardedTiledMatrix
from repro.vectors import SparseVector, random_sparse_vector

from ..conftest import random_coo

N = 80


@pytest.fixture
def coo():
    return random_coo(N, N, 0.08, seed=11)


@pytest.fixture
def vectors():
    return [random_sparse_vector(N, s, seed=20 + i)
            for i, s in enumerate((0.25, 0.05, 0.6))]


def norm_tag(tag):
    if tag is None:
        return None
    return ";".join(p for p in tag.split(";")
                    if not p.startswith(("device=", "worker=")))


def stream(dev):
    return [(r.name, norm_tag(r.tag), r.counters)
            for r in dev.timeline]


class TestBitIdentity:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_thread_backend_matches_sequential(self, coo, vectors,
                                               workers):
        for x in vectors:
            y_seq = ShardedSpMSpV(coo, n_shards=4).multiply(
                x, output="dense")
            y = ShardedSpMSpV(coo, n_shards=4, parallel=workers
                              ).multiply(x, output="dense")
            assert np.array_equal(y.view(np.uint8),
                                  y_seq.view(np.uint8))

    def test_process_backend_matches_sequential(self, coo, vectors,
                                                tmp_path):
        sm = ShardedTiledMatrix.from_coo(coo, nt=16, n_shards=4,
                                         store_dir=tmp_path / "shards")
        op = ShardedSpMSpV(ShardedTiledMatrix.open(tmp_path / "shards"),
                           parallel=2)
        try:
            for x in vectors:
                y_seq = ShardedSpMSpV(sm).multiply(x, output="dense")
                y = op.multiply(x, output="dense")
                assert np.array_equal(y.view(np.uint8),
                                      y_seq.view(np.uint8))
        finally:
            op._executor.close()

    def test_batch_matches_sequential_batch(self, coo, vectors):
        y_seq = ShardedSpMSpV(coo, n_shards=4).multiply_batch(
            vectors, output="dense")
        y = ShardedSpMSpV(coo, n_shards=4, parallel=4).multiply_batch(
            vectors, output="dense")
        assert np.array_equal(y.view(np.uint8), y_seq.view(np.uint8))

    def test_pattern_only_matches_sequential(self, coo):
        # pattern-only execution multiplies the all-ones view (the
        # reachability trick TileBFS's sharded fast path relies on)
        x = random_sparse_vector(N, 0.3, seed=30)
        xb = SparseVector(x.n, x.indices,
                          np.ones(x.indices.size))
        y_seq = ShardedSpMSpV(coo, n_shards=4,
                              pattern_only=True).multiply(
            xb, output="dense")
        y = ShardedSpMSpV(coo, n_shards=4,
                          pattern_only=True, parallel=2
                          ).multiply(xb, output="dense")
        assert np.array_equal(y.view(np.uint8), y_seq.view(np.uint8))
        assert y_seq.max() > 0


class TestLaunchStream:
    def test_stream_matches_sequential_modulo_placement(self, coo,
                                                        vectors):
        # six shards on two workers put several shards in each queue
        for x in vectors:
            dev_seq = Device()
            ShardedSpMSpV(coo, n_shards=6, device=dev_seq).multiply(
                x, output="dense")
            dev = Device()
            ShardedSpMSpV(coo, n_shards=6, device=dev,
                          parallel=2).multiply(x, output="dense")
            assert stream(dev) == stream(dev_seq)

    def test_parallel_tags_carry_device_and_worker(self, coo, vectors):
        dev = Device()
        ShardedSpMSpV(coo, n_shards=4, device=dev,
                      parallel=2).multiply(vectors[0], output="dense")
        shard_recs = [r for r in dev.timeline
                      if r.name == "sharded_spmspv_shard"]
        assert shard_recs
        for rec in shard_recs:
            parts = rec.tag.split(";")
            assert any(p.startswith("device=") for p in parts)
            assert any(p.startswith("worker=") for p in parts)


class TestBudgetedDeterminism:
    """Fresh counters-on engines under a budget that evicts give one
    launch stream, ``device=``/``worker=`` tags included."""

    RUNS = 20

    @pytest.fixture
    def budgeted(self):
        coo = random_coo(400, 400, 0.05, seed=11)
        xs = [random_sparse_vector(400, d, seed=40 + i)
              for i, d in enumerate((0.3, 0.05, 0.6, 0.15))]
        return coo, xs

    @staticmethod
    def budget(sm, workers):
        # 2.5 shards' bytes per worker slice
        return int(2.5 * sm.total_tile_bytes / sm.n_shards * workers)

    def streams(self, make_matrix, workers, xs):
        seen = []
        for _ in range(self.RUNS):
            dev = Device()
            op = ShardedSpMSpV(make_matrix(), device=dev,
                               parallel=workers)
            try:
                for x in xs:
                    op.multiply(x, output="dense")
                assert op.stats()["evictions"] > 0
            finally:
                op._executor.close()
            seen.append([(r.name, r.tag, r.counters)
                         for r in dev.timeline])
        return seen

    @pytest.mark.parametrize("workers", [2, 4])
    def test_thread_backend_one_stream(self, budgeted, workers):
        coo, xs = budgeted
        sm = ShardedTiledMatrix.from_coo(coo, nt=16, rows_per_shard=32)
        budget = self.budget(sm, workers)
        seen = self.streams(
            lambda: ShardedTiledMatrix.from_coo(
                coo, nt=16, rows_per_shard=32, budget_bytes=budget),
            workers, xs)
        assert all(s == seen[0] for s in seen[1:])

    def test_process_backend_one_stream(self, budgeted, tmp_path):
        coo, xs = budgeted
        sm = ShardedTiledMatrix.from_coo(coo, nt=16, rows_per_shard=32,
                                         store_dir=tmp_path / "s")
        budget = self.budget(sm, 2)
        seen = self.streams(
            lambda: ShardedTiledMatrix.open(tmp_path / "s",
                                            budget_bytes=budget),
            2, xs)
        assert all(s == seen[0] for s in seen[1:])


class TestStats:
    def test_engine_stats_expose_pool_counters(self, coo, vectors):
        op = ShardedSpMSpV(coo, n_shards=6, parallel=2)
        for x in vectors:
            op.multiply(x, output="dense")
        s = op.stats()
        assert s["workers"] == 2
        assert s["backend"] == "thread"
        assert s["loads"] > 0

    def test_one_task_per_busy_worker(self, coo, vectors):
        op = ShardedSpMSpV(coo, n_shards=6, parallel=2)
        tasks = results = 0
        for x in vectors:
            op.multiply(x, output="dense")
            tasks += sum(1 for q in op._last_plan.per_worker if q)
            results += len(op._last_plan.items)
            ex = op._executor.stats()
            assert ex["tasks"] == tasks
            assert ex["results"] == results

    def test_process_backend_reports_pids(self, coo, vectors,
                                          tmp_path):
        ShardedTiledMatrix.from_coo(coo, nt=16, n_shards=4,
                                    store_dir=tmp_path / "s")
        op = ShardedSpMSpV(ShardedTiledMatrix.open(tmp_path / "s"),
                           parallel=2)
        try:
            op.multiply(vectors[0], output="dense")
            ex = op._executor.stats()
            assert 1 <= len(ex["worker_pids"]) <= 2
            assert all(isinstance(p, int) for p in ex["worker_pids"])
        finally:
            op._executor.close()

    def test_close_is_idempotent(self, coo, vectors):
        op = ShardedSpMSpV(coo, n_shards=4, parallel=2)
        op.multiply(vectors[0], output="dense")
        op._executor.close()
        op._executor.close()

    def test_last_plan_records_placement(self, coo, vectors):
        op = ShardedSpMSpV(coo, n_shards=4, parallel=2)
        assert op._last_plan is None
        op.multiply(vectors[0], output="dense")
        plan = op._last_plan
        assert plan is not None
        assert plan.predicted_speedup >= 1.0
        assert {i.worker for i in plan.items} <= {0, 1}


class TestBatchQueueAffinity:
    def test_affinity_seeds_from_residency(self, coo, vectors):
        sm = ShardedTiledMatrix.from_coo(coo, nt=16, n_shards=4)
        q = BatchQueue(sm, max_batch=len(vectors),
                       parallel=2)
        for x in vectors:
            q.submit(x, PLUS_TIMES)
        q.flush()
        assert q.stats()["affinity_seeded"] == 0   # pool still cold
        for x in vectors:
            q.submit(x, PLUS_TIMES)
        q.flush()
        assert q.stats()["affinity_seeded"] > 0

    def test_results_match_unqueued_batch(self, coo, vectors):
        sm = ShardedTiledMatrix.from_coo(coo, nt=16, n_shards=4)
        q = BatchQueue(sm, max_batch=len(vectors),
                       parallel=2)
        tickets = [q.submit(x, PLUS_TIMES, output="dense")
                   for x in vectors]
        ref = ShardedSpMSpV(coo, n_shards=4).multiply_batch(
            vectors, output="dense")
        for t, want in zip(tickets, ref):
            assert np.array_equal(t.result(), want)
