"""The cost-model work scheduler: estimates, placement, stealing."""

import numpy as np

from repro.parallel import WorkScheduler
from repro.shards import ShardedTiledMatrix

from ..conftest import random_coo


def sharded(n_shards=6, seed=3, m=96, n=96, density=0.08, nt=8):
    coo = random_coo(m, n, density, seed=seed)
    return ShardedTiledMatrix.from_coo(coo, nt=nt, n_shards=n_shards)


def all_cols(matrix):
    return np.arange(matrix.nt_cols if hasattr(matrix, "nt_cols")
                     else matrix.occupancy.shape[1] * 64,
                     dtype=np.int64)


class TestCostModel:
    def test_estimate_scales_with_active_fraction(self):
        sm = sharded()
        sched = WorkScheduler(sm, workers=2)
        full = sched.active_mask(all_cols(sm))
        empty = sched.active_mask(np.array([], dtype=np.int64))
        for sid in range(sm.n_shards):
            hi = sched.estimate(sid, full)
            lo = sched.estimate(sid, empty)
            assert lo == 1.0          # launch charge only
            assert hi >= lo
        # a fully active input prices each shard at launch + its nnz
        sid_costs = [sched.estimate(s, full) for s in range(sm.n_shards)]
        assert sid_costs == [1.0 + max(1.0, nnz)
                             for nnz in sm.shard_nnz]

    def test_active_mask_layout_matches_occupancy(self):
        # 600 columns at nt=8 -> 75 tile columns -> two bitmap words
        sm = sharded(m=96, n=600)
        sched = WorkScheduler(sm, workers=2)
        assert sm.occupancy.shape[1] == 2
        mask = sched.active_mask(np.array([0, 1, 64], dtype=np.int64))
        assert mask.dtype == np.uint64
        assert mask.shape == (sm.occupancy.shape[1],)
        assert mask[0] == np.uint64(0b11)
        assert mask[1] == np.uint64(1)


class TestPlanning:
    def test_places_every_shard_exactly_once(self):
        sm = sharded(n_shards=6)
        sched = WorkScheduler(sm, workers=3)
        executed = np.arange(sm.n_shards)
        plan = sched.plan(executed, all_cols(sm))
        placed = sorted(i.sid for i in plan.items)
        assert placed == sorted(int(s) for s in executed)
        queued = sorted(s for q in plan.per_worker for s in q)
        assert queued == placed

    def test_deterministic(self):
        sm = sharded(n_shards=8)
        cols = all_cols(sm)
        sids = np.arange(sm.n_shards)
        p1 = WorkScheduler(sm, workers=4).plan(sids, cols)
        p2 = WorkScheduler(sm, workers=4).plan(sids, cols)
        assert [(i.sid, i.worker) for i in p1.items] == \
            [(i.sid, i.worker) for i in p2.items]
        assert p1.per_worker == p2.per_worker

    def test_lpt_balances_loads(self):
        sm = sharded(n_shards=8)
        sched = WorkScheduler(sm, workers=4)
        plan = sched.plan(np.arange(sm.n_shards), all_cols(sm))
        loads = plan.loads
        # no worker idles while another holds two-plus shards' work
        assert max(loads) <= sum(loads)
        assert plan.imbalance >= 1.0
        assert 1.0 <= plan.predicted_speedup <= 4.0

    def test_empty_plan(self):
        sm = sharded()
        plan = WorkScheduler(sm, workers=2).plan(
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64))
        assert plan.items == []
        assert plan.per_worker == [[], []]
        assert plan.predicted_speedup == 1.0


class TestAffinity:
    def test_sticky_placement_survives_replan(self):
        sm = sharded(n_shards=8)
        sched = WorkScheduler(sm, workers=4)
        cols = all_cols(sm)
        sids = np.arange(sm.n_shards)
        first = sched.plan(sids, cols)
        hits_before = sched.affinity_hits
        second = sched.plan(sids, cols)
        assert [(i.sid, i.worker) for i in first.items] == \
            [(i.sid, i.worker) for i in second.items]
        assert sched.affinity_hits > hits_before
        assert sched.stats()["sticky_shards"] == sm.n_shards

    def test_overloaded_sticky_worker_is_stolen_from(self):
        sm = sharded(n_shards=8)
        sched = WorkScheduler(sm, workers=4)
        for sid in range(sm.n_shards):
            sched.seed_affinity(sid, 0)   # pile everything on worker 0
        plan = sched.plan(np.arange(sm.n_shards), all_cols(sm))
        assert plan.stolen > 0
        assert len({i.worker for i in plan.items}) > 1
        assert sched.stats()["stolen"] == plan.stolen

    def test_seed_affinity_wraps_worker_id(self):
        sm = sharded()
        sched = WorkScheduler(sm, workers=2)
        sched.seed_affinity(0, 5)
        assert sched.sticky[0] == 1
