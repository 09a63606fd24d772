"""Tests for bit-parallel multi-source BFS."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MultiSourceBFS, TileBFS
from repro.core.msbfs import WORD_SOURCES
from repro.errors import ShapeError
from repro.formats import COOMatrix
from repro.gpusim import Device, RTX3090

from ..conftest import nx_levels, random_graph_coo


class TestCorrectness:
    def test_matches_single_source_runs(self):
        coo = random_graph_coo(200, 4.0, seed=1)
        srcs = [0, 13, 99, 199]
        res = MultiSourceBFS(coo).run(srcs)
        bfs = TileBFS(coo, nt=16)
        for s in srcs:
            assert np.array_equal(res.levels_from(s), bfs.run(s).levels)

    def test_matches_networkx(self):
        coo = random_graph_coo(120, 3.0, seed=2)
        res = MultiSourceBFS(coo).run([5, 60])
        assert np.array_equal(res.levels_from(5), nx_levels(coo, 5))
        assert np.array_equal(res.levels_from(60), nx_levels(coo, 60))

    @given(st.integers(2, 100), st.integers(0, 10**5),
           st.integers(1, 8))
    @settings(max_examples=20, deadline=None)
    def test_property_random(self, n, seed, k):
        coo = random_graph_coo(n, 4.0, seed)
        rng = np.random.default_rng(seed)
        srcs = rng.choice(n, size=min(k, n), replace=False)
        res = MultiSourceBFS(coo).run(srcs)
        for s in srcs:
            assert np.array_equal(res.levels_from(int(s)),
                                  nx_levels(coo, int(s)))

    def test_full_word_of_sources(self):
        coo = random_graph_coo(100, 4.0, seed=3)
        srcs = list(range(WORD_SOURCES))
        res = MultiSourceBFS(coo).run(srcs)
        assert res.levels.shape == (WORD_SOURCES, 100)
        # diagonal: each source at level 0 from itself
        for b, s in enumerate(srcs):
            assert res.levels[b, s] == 0

    def test_max_depth(self):
        coo = random_graph_coo(100, 4.0, seed=4)
        res = MultiSourceBFS(coo).run([0], max_depth=2)
        assert res.levels.max() <= 2


class TestValidation:
    def test_duplicate_sources(self):
        coo = random_graph_coo(20, 3.0, seed=6)
        with pytest.raises(ShapeError):
            MultiSourceBFS(coo).run([1, 1])

    def test_empty_sources(self):
        coo = random_graph_coo(20, 3.0, seed=7)
        with pytest.raises(ShapeError):
            MultiSourceBFS(coo).run([])

    def test_source_out_of_range(self):
        coo = random_graph_coo(20, 3.0, seed=8)
        with pytest.raises(ShapeError):
            MultiSourceBFS(coo).run([20])

    def test_nonsquare(self):
        with pytest.raises(ShapeError):
            MultiSourceBFS(COOMatrix.empty((3, 4)))

    def test_unknown_source_lookup(self):
        coo = random_graph_coo(20, 3.0, seed=9)
        res = MultiSourceBFS(coo).run([0])
        with pytest.raises(ShapeError):
            res.levels_from(5)


class TestBatchedEngine:
    """More than :data:`WORD_SOURCES` sources run as consecutive
    word-sized groups: levels match per-source BFS, simulated time adds
    up, and every group honours ``max_depth``."""

    def test_more_than_word_sources(self):
        coo = random_graph_coo(300, 4.0, seed=22)
        srcs = list(range(WORD_SOURCES + 20))
        res = MultiSourceBFS(coo).run(srcs)
        assert res.levels.shape == (WORD_SOURCES + 20, 300)
        for s in (0, 40, 70, WORD_SOURCES + 19):
            assert np.array_equal(res.levels_from(s),
                                  nx_levels(coo, s))

    def test_max_depth(self):
        coo = random_graph_coo(200, 4.0, seed=24)
        res = MultiSourceBFS(coo).run(range(WORD_SOURCES + 6),
                                      max_depth=2)
        assert res.levels.max() == 2

    def test_device_time_accumulates(self):
        coo = random_graph_coo(400, 4.0, seed=26)
        dev = Device(RTX3090)
        srcs = list(range(0, 400, 3))
        res = MultiSourceBFS(coo, device=dev).run(srcs)
        assert len(srcs) > 2 * WORD_SOURCES
        assert res.simulated_ms > 0
        assert res.simulated_ms == pytest.approx(dev.elapsed_ms)
        groups = [MultiSourceBFS(coo).run(srcs[s:s + WORD_SOURCES])
                  for s in range(0, len(srcs), WORD_SOURCES)]
        assert res.iterations == max(g.iterations for g in groups)
        assert np.array_equal(res.levels,
                              np.concatenate([g.levels for g in groups]))


class TestBatchingAdvantage:
    def test_one_batch_cheaper_than_k_runs(self):
        """The point of MS-BFS: 8 sources in one batch cost less
        simulated time than 8 separate traversals."""
        coo = random_graph_coo(2000, 6.0, seed=10)
        srcs = list(range(8))
        dev_b = Device(RTX3090)
        MultiSourceBFS(coo, device=dev_b).run(srcs)
        dev_s = Device(RTX3090)
        ms = MultiSourceBFS(coo, device=dev_s)
        for s in srcs:
            ms.run([s])
        assert dev_b.elapsed_ms < dev_s.elapsed_ms

    def test_iterations_bounded_by_max_eccentricity(self):
        coo = random_graph_coo(300, 5.0, seed=11)
        srcs = [0, 100, 200]
        res = MultiSourceBFS(coo).run(srcs)
        worst = max(res.levels_from(s).max() for s in srcs)
        # rounds = deepest level (+1 final probe at most)
        assert res.iterations <= worst + 1


class TestChunkedLevelRecording:
    def test_levels_invariant_to_chunk_size(self, monkeypatch):
        """The blocked level scatter (bounded bit-unpack working set)
        must be a pure memory optimisation: shrinking the chunk to a
        degenerate size changes nothing."""
        import repro.core.msbfs as msbfs_mod
        coo = random_graph_coo(300, 5.0, seed=31)
        srcs = [0, 50, 150, 299]
        want = MultiSourceBFS(coo).run(srcs).levels
        monkeypatch.setattr(msbfs_mod, "_LEVEL_CHUNK", 3)
        got = MultiSourceBFS(coo).run(srcs).levels
        assert np.array_equal(got, want)
