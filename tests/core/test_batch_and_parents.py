"""Tests for batched SpMSpV and BFS parent-tree reconstruction."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import TileBFS, TileSpMSpV
from repro.core.spmspv_kernels import batched_union_kernel
from repro.errors import ShapeError
from repro.gpusim import Device, RTX3090
from repro.tiles import TiledMatrix, TiledVector
from repro.vectors import SparseVector, random_sparse_vector

from ..conftest import random_dense, random_graph_coo


class TestBatchedKernel:
    def test_matches_individual(self):
        d = random_dense(60, 60, 0.15, seed=1)
        tm = TiledMatrix.from_dense(d, 16)
        xs = [TiledVector.from_dense(
            (np.random.default_rng(i).random(60) < 0.2) * 1.0, 16)
            for i in range(4)]
        Y, c = batched_union_kernel(tm, xs)
        for b, x in enumerate(xs):
            assert np.allclose(Y[b], d @ x.to_dense())
        c.check()
        assert c.launches == 1

    def test_empty_batch_rejected(self):
        tm = TiledMatrix.from_dense(np.eye(8), 4)
        with pytest.raises(ShapeError):
            batched_union_kernel(tm, [])

    def test_mixed_shapes_rejected(self):
        tm = TiledMatrix.from_dense(np.eye(8), 4)
        with pytest.raises(ShapeError):
            batched_union_kernel(tm, [TiledVector.empty(8, 4),
                                      TiledVector.empty(9, 4)])

    def test_tile_size_mismatch_rejected(self):
        tm = TiledMatrix.from_dense(np.eye(8), 4)
        with pytest.raises(ShapeError):
            batched_union_kernel(tm, [TiledVector.empty(8, 2)])

    def test_all_empty_vectors(self):
        tm = TiledMatrix.from_dense(np.eye(8), 4)
        Y, c = batched_union_kernel(tm, [TiledVector.empty(8, 4)] * 3)
        assert np.allclose(Y, 0.0)
        assert c.flops == 0

    def test_metadata_scanned_once(self):
        """The batch's raison d'etre: metadata and the shared tile
        payload stream in once per batch, while the per-vector x_ptr
        probes still scale with the batch."""
        d = random_dense(200, 200, 0.1, seed=2)
        tm = TiledMatrix.from_dense(d, 16)
        x = TiledVector.from_dense(np.ones(200), 16)
        _, c1 = batched_union_kernel(tm, [x])
        _, c4 = batched_union_kernel(tm, [x, x, x, x])
        meta = tm.n_nonempty_tiles * 16.0
        assert c1.coalesced_read_bytes > meta
        assert c4.coalesced_read_bytes == c1.coalesced_read_bytes
        assert c4.l2_read_bytes == pytest.approx(4 * c1.l2_read_bytes)


class TestMultiplyBatch:
    @given(st.integers(1, 6), st.integers(0, 10**5))
    @settings(max_examples=20, deadline=None)
    def test_matches_individual_multiplies(self, k, seed):
        d = random_dense(50, 50, 0.15, seed=seed)
        op = TileSpMSpV(d, nt=16)
        xs = [random_sparse_vector(50, 0.2, seed=seed + i)
              for i in range(k)]
        batch = op.multiply_batch(xs)
        for x, y in zip(xs, batch):
            ref = op.multiply(x)
            assert np.array_equal(y.indices, ref.indices)
            assert np.allclose(y.values, ref.values)

    def test_dense_output(self):
        d = random_dense(30, 30, 0.2, seed=3)
        op = TileSpMSpV(d, nt=16)
        xs = [random_sparse_vector(30, 0.3, seed=i) for i in range(3)]
        Y = op.multiply_batch(xs, output="dense")
        assert Y.shape == (3, 30)

    def test_unknown_output(self):
        op = TileSpMSpV(np.eye(4), nt=4)
        with pytest.raises(ShapeError):
            op.multiply_batch([SparseVector.empty(4)], output="tiled")

    def test_batch_cheaper_than_individual(self):
        d = random_dense(400, 400, 0.05, seed=4)
        op = TileSpMSpV(d, nt=16)
        xs = [random_sparse_vector(400, 0.05, seed=i) for i in range(8)]
        dev_b = Device(RTX3090)
        op.device = dev_b
        op.multiply_batch(xs)
        dev_i = Device(RTX3090)
        op.device = dev_i
        for x in xs:
            op.multiply(x)
        assert dev_b.elapsed_ms < dev_i.elapsed_ms

    def test_side_matrix_handled(self):
        d = random_dense(80, 80, 0.02, seed=5)   # scattered => side nnz
        op = TileSpMSpV(d, nt=16, extract_threshold=3)
        assert op.hybrid.side.nnz > 0
        xs = [random_sparse_vector(80, 0.3, seed=i) for i in range(2)]
        for x, y in zip(xs, op.multiply_batch(xs)):
            assert np.allclose(y.to_dense(), d @ x.to_dense())


class TestParents:
    def edge_set(self, coo):
        return set(zip(coo.col.tolist(), coo.row.tolist()))

    @given(st.integers(2, 120), st.integers(0, 10**5))
    @settings(max_examples=25, deadline=None)
    def test_valid_bfs_tree(self, n, seed):
        coo = random_graph_coo(n, 4.0, seed)
        bfs = TileBFS(coo, nt=4)
        res = bfs.run(seed % n)
        parents = bfs.compute_parents(res)
        edges = self.edge_set(coo)
        for v in range(n):
            if res.levels[v] > 0:
                p = parents[v]
                assert p >= 0
                assert res.levels[p] == res.levels[v] - 1
                assert (p, v) in edges
            else:
                assert parents[v] == -1

    def test_source_has_no_parent(self):
        coo = random_graph_coo(50, 4.0, seed=6)
        bfs = TileBFS(coo, nt=4)
        res = bfs.run(7)
        parents = bfs.compute_parents(res)
        assert parents[7] == -1

    def test_stored_on_result(self):
        coo = random_graph_coo(40, 4.0, seed=7)
        bfs = TileBFS(coo, nt=4)
        res = bfs.run(0)
        assert res.parents is None
        bfs.compute_parents(res)
        assert res.parents is not None

    def test_with_extraction(self):
        coo = random_graph_coo(120, 2.0, seed=8)
        bfs = TileBFS(coo, nt=16, extract_threshold=4)
        res = bfs.run(0)
        parents = bfs.compute_parents(res)
        edges = self.edge_set(coo)
        reached = np.flatnonzero(res.levels > 0)
        for v in reached:
            assert (parents[v], v) in edges
