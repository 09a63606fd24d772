"""The worker count: validation, the env switch, and what it implies
(backend resolution, per-worker budget)."""

import pytest

from repro.core import BatchedSpMSpV, TileBFS, TileSpMM, TileSpMSpV
from repro.parallel import WORKERS_ENV, env_workers
from repro.parallel import config as config_mod
from repro.shards import (DirectoryShardStore, InMemoryShardStore,
                          ShardedSpMSpV, ShardedTiledMatrix)
from repro.vectors import random_sparse_vector

from ..conftest import random_coo


@pytest.fixture
def coo():
    return random_coo(48, 48, 0.1, seed=5)


class TestValidation:
    def test_defaults(self, coo, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        op = ShardedSpMSpV(coo, n_shards=2)
        assert op.parallel == 1
        op.multiply(random_sparse_vector(48, 0.3, seed=1))
        assert op._executor is None       # sequential strip loop

    @pytest.mark.parametrize("kwargs", [
        {"parallel": 0},
        {"parallel": -1},
        {"parallel": True},
        {"parallel": "4"},
    ])
    def test_rejects_bad_values(self, coo, kwargs):
        with pytest.raises((TypeError, ValueError)):
            ShardedSpMSpV(coo, n_shards=2, **kwargs)

    def test_frozen(self, coo, monkeypatch):
        # a pinned worker count ignores the environment
        monkeypatch.setenv(WORKERS_ENV, "4")
        assert ShardedSpMSpV(coo, n_shards=2, parallel=2).parallel == 2


class TestEnv:
    def test_env_workers_unset_is_one(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV, raising=False)
        assert env_workers() == 1

    @pytest.mark.parametrize("raw,want", [
        ("4", 4), (" 2 ", 2), ("0", 1), ("-3", 1), ("garbage", 1),
        ("", 1),
    ])
    def test_env_workers_parsing(self, monkeypatch, raw, want):
        monkeypatch.setenv(WORKERS_ENV, raw)
        assert env_workers() == want


class TestCoerce:
    def test_none_reads_env(self, coo, monkeypatch):
        op = ShardedSpMSpV(coo, n_shards=2)
        monkeypatch.setenv(WORKERS_ENV, "5")
        assert op.parallel == 5           # read per multiply

    def test_int_is_worker_count(self, coo):
        assert ShardedSpMSpV(coo, n_shards=2, parallel=4).parallel == 4

    def test_config_passes_through(self, coo):
        # every front operator hands its worker count to the engine
        sm = ShardedTiledMatrix.from_coo(coo, nt=16, n_shards=2)
        for op_cls in (TileSpMSpV, BatchedSpMSpV, TileSpMM, TileBFS):
            assert op_cls(sm, parallel=3)._sharded.parallel == 3

    @pytest.mark.parametrize("bad", [True, 2.0, "4"])
    def test_rejects_other_types(self, coo, bad):
        with pytest.raises(TypeError):
            ShardedSpMSpV(coo, n_shards=2, parallel=bad)


class TestBackendResolution:
    def test_single_worker_is_always_serial(self, coo, tmp_path):
        ShardedTiledMatrix.from_coo(coo, nt=16, n_shards=2,
                                    store_dir=tmp_path / "s")
        op = ShardedSpMSpV(ShardedTiledMatrix.open(tmp_path / "s"),
                           parallel=1)
        op.multiply(random_sparse_vector(48, 0.3, seed=1))
        assert op._executor is None       # no pool, whatever the store

    def test_auto_directory_prefers_process(self, tmp_path,
                                            monkeypatch):
        store = DirectoryShardStore(tmp_path)
        monkeypatch.setattr(config_mod, "_fork_available", lambda: True)
        assert config_mod._backend_for(store) == "process"
        monkeypatch.setattr(config_mod, "_fork_available",
                            lambda: False)
        assert config_mod._backend_for(store) == "thread"

    def test_auto_in_memory_is_thread(self):
        assert config_mod._backend_for(InMemoryShardStore()) == "thread"


class TestSliceBudget:
    def test_unbudgeted_stays_unbudgeted(self):
        assert config_mod._slice_budget(None, 4) is None

    def test_split_evenly(self):
        assert config_mod._slice_budget(1000, 4) == 250

    def test_never_below_one(self):
        assert config_mod._slice_budget(3, 8) == 1
