"""OperatorPlan cache: repeated construction skips re-tiling."""

import numpy as np
import pytest

from repro.core import TileBFS, TileSpMSpV
from repro.gpusim import Device, RTX3090
from repro.runtime import (OperatorPlan, PlanCache, default_plan_cache,
                           matrix_token, plan_cache_stats,
                           reset_plan_cache)
from repro.vectors import random_sparse_vector

from ..conftest import random_coo, random_graph_coo


class TestPlanCachePrimitive:
    def test_hit_miss_stats(self):
        cache = PlanCache(maxsize=4)
        key = ("k", 1)
        built = []

        def build():
            built.append(1)
            return OperatorPlan(kind="t", key=key, data={"v": 42})

        p1 = cache.get_or_build(key, build)
        p2 = cache.get_or_build(key, build)
        assert p1 is p2
        assert built == [1]
        s = cache.stats()
        assert (s["hits"], s["misses"]) == (1, 1)
        assert cache.hit_rate == 0.5

    def test_lru_eviction(self):
        cache = PlanCache(maxsize=2)
        for i in range(3):
            cache.put(("k", i), OperatorPlan(kind="t", key=("k", i),
                                             data={}))
        assert cache.stats()["size"] == 2
        assert cache.stats()["evictions"] == 1
        assert cache.get(("k", 0)) is None       # oldest evicted
        assert cache.get(("k", 2)) is not None

    def test_matrix_token_distinguishes_objects(self):
        a = random_coo(20, 20, seed=1)
        b = random_coo(20, 20, seed=1)
        assert matrix_token(a) != matrix_token(b)
        assert matrix_token(a) == matrix_token(a)


class TestPinningUnderPressure:
    """Sharded execution pins the plan of the shard currently running a
    kernel; a flood of plans for other matrices must never evict it."""

    @staticmethod
    def _plan(key):
        return OperatorPlan(kind="t", key=key, data={})

    def test_pinned_entries_survive_eviction_pressure(self):
        cache = PlanCache(maxsize=4)
        pinned_keys = [("shard", "mat-a", sid) for sid in range(3)]
        for key in pinned_keys:
            cache.put(key, self._plan(key), pinned=True)
        # flood: many distinct matrix ids, far beyond maxsize
        flood_keys = [("shard", f"mat-{i}", 0) for i in range(40)]
        for key in flood_keys:
            cache.put(key, self._plan(key))
        for key in pinned_keys:
            assert cache.is_pinned(key)
            assert cache.get(key) is not None
        # only unpinned entries were evicted, LRU-first
        survivors = [k for k in flood_keys if k in cache]
        assert survivors == flood_keys[-1:]
        assert len(cache) == 4
        assert cache.stats()["pinned"] == 3
        assert cache.stats()["evictions"] == 39

    def test_all_pinned_cache_runs_over_budget(self):
        cache = PlanCache(maxsize=2)
        keys = [("shard", "m", sid) for sid in range(5)]
        for key in keys:
            cache.put(key, self._plan(key), pinned=True)
        assert len(cache) == 5                    # over budget, no evictions
        assert cache.stats()["evictions"] == 0
        # unpinning brings it back under budget on the next insert
        for key in keys[:4]:
            assert cache.unpin(key)
        cache.put(("shard", "m", 5), self._plan(("shard", "m", 5)))
        assert len(cache) == 2
        assert keys[4] in cache                   # still-pinned survivor

    def test_hit_rate_unaffected_by_pin_state(self):
        cache = PlanCache(maxsize=8)
        key = ("shard", "m", 0)
        cache.get_or_build(key, lambda: self._plan(key), pinned=True)
        for _ in range(3):
            cache.get_or_build(key, lambda: self._plan(key))
        s = cache.stats()
        assert (s["hits"], s["misses"]) == (3, 1)
        assert cache.hit_rate == 0.75

    def test_pin_unpin_remove_bookkeeping(self):
        cache = PlanCache(maxsize=4)
        key = ("shard", "m", 0)
        assert not cache.pin(key)                 # absent: no-op
        cache.put(key, self._plan(key))
        assert cache.pin(key)
        assert cache.is_pinned(key)
        assert cache.unpin(key)
        assert not cache.is_pinned(key)
        assert cache.remove(key)
        assert not cache.remove(key)
        s = cache.stats()
        assert s["removals"] == 1
        assert s["evictions"] == 0


class TestSpMSpVPlanReuse:
    def test_second_construction_hits_and_shares_plan(self):
        cache = PlanCache()
        coo = random_coo(64, 64, density=0.1, seed=2)
        op1 = TileSpMSpV(coo, nt=16, plan_cache=cache)
        op2 = TileSpMSpV(coo, nt=16, plan_cache=cache)
        assert op2.hybrid is op1.hybrid
        s = cache.stats()
        assert s["hits"] == 1 and s["misses"] == 1

    def test_different_params_miss(self):
        cache = PlanCache()
        coo = random_coo(64, 64, density=0.1, seed=2)
        TileSpMSpV(coo, nt=16, plan_cache=cache)
        TileSpMSpV(coo, nt=32, plan_cache=cache)
        TileSpMSpV(coo, nt=16, extract_threshold=0, plan_cache=cache)
        assert cache.stats()["misses"] == 3
        assert cache.stats()["hits"] == 0

    def test_cached_plan_results_identical(self):
        cache = PlanCache()
        coo = random_coo(80, 80, density=0.08, seed=4)
        x = random_sparse_vector(80, 0.1)
        y1 = TileSpMSpV(coo, nt=16, plan_cache=cache).multiply(x)
        y2 = TileSpMSpV(coo, nt=16, plan_cache=cache).multiply(x)
        assert np.array_equal(y1.indices, y2.indices)
        assert np.allclose(y1.values, y2.values)

    def test_cached_plan_identical_launch_records(self):
        cache = PlanCache()
        coo = random_coo(80, 80, density=0.08, seed=4)
        x = random_sparse_vector(80, 0.1)
        d1, d2 = Device(RTX3090), Device(RTX3090)
        TileSpMSpV(coo, nt=16, plan_cache=cache, device=d1).multiply(x)
        TileSpMSpV(coo, nt=16, plan_cache=cache, device=d2).multiply(x)
        assert d1.timeline == d2.timeline
        assert d1.elapsed_ms == d2.elapsed_ms

    def test_transposed_tiling_shared_between_operators(self):
        cache = PlanCache()
        coo = random_coo(64, 64, density=0.1, seed=5)
        op1 = TileSpMSpV(coo, nt=16, mode="csc", plan_cache=cache,
                         device=Device(RTX3090))
        op2 = TileSpMSpV(coo, nt=16, mode="csc", plan_cache=cache)
        x = random_sparse_vector(64, 0.05)
        # the CSC form's host product is the CSR form's: only its
        # counters read A^T, so a counters-off multiply never builds it
        op2.multiply(x)
        assert op2._transposed_tiled is None
        op1.multiply(x)
        assert op1._transposed_tiled is not None
        # the lazily built A^T tiling lives on the shared plan
        assert op2._transposed_tiled is op1._transposed_tiled


class TestBFSPlanReuse:
    def test_tilebfs_second_construction_hits(self):
        cache = PlanCache()
        g = random_graph_coo(150, avg_degree=5.0, seed=6)
        b1 = TileBFS(g, plan_cache=cache)
        b2 = TileBFS(g, plan_cache=cache)
        s = cache.stats()
        assert s["hits"] == 1 and s["misses"] == 1
        r1, r2 = b1.run(0), b2.run(0)
        assert np.array_equal(r1.levels, r2.levels)

    def test_prebuilt_matrix_bypasses_cache(self):
        from repro.tiles.tiled_matrix import TiledMatrix

        cache = PlanCache()
        coo = random_coo(64, 64, density=0.1, seed=7)
        tiled = TiledMatrix.from_coo(coo, 16)
        TileSpMSpV(tiled, nt=16, plan_cache=cache)
        s = cache.stats()
        assert s["hits"] == s["misses"] == 0


class TestDefaultCache:
    @pytest.fixture(autouse=True)
    def _fresh_default_cache(self):
        reset_plan_cache()
        yield
        reset_plan_cache()

    def test_module_level_stats(self):
        coo = random_coo(64, 64, density=0.1, seed=8)
        TileSpMSpV(coo, nt=16)
        TileSpMSpV(coo, nt=16)
        s = plan_cache_stats()
        assert s["hits"] >= 1
        assert default_plan_cache().hit_rate > 0.0
