"""Sharded SpMM: strip-by-strip dispatch, shard/worker invariance,
and the column-slice equivalence against the sharded single-vector
path.

The sharded engine folds every nonzero of a strip in stored order,
while the unsharded hybrid folds its extracted COO side after the
tiled part — value-equal but not bit-equal when the side is nonempty.
The invariants pinned here are the ones the docstring promises:
bit-identity across shard counts and worker counts, allclose against
the unsharded engine (exact for ``or_and``: OR is order-independent),
and bit-exact column slices against sharded single-vector multiplies.
"""

import numpy as np
import pytest

from repro.core import TileSpMM
from repro.gpusim import Device
from repro.semiring import MIN_PLUS, OR_AND, PLUS_TIMES
from repro.shards import ShardedSpMSpV, ShardedTiledMatrix
from repro.vectors import SparseVector, random_sparse_vector

from ..conftest import random_coo

N = 96
NT = 8


@pytest.fixture(scope="module")
def coo():
    return random_coo(N, N, 0.08, seed=21)


def vectors(B, seed=31, uint=False):
    vecs = [random_sparse_vector(N, 0.1 + 0.1 * b, seed=seed + b)
            for b in range(B)]
    if uint:
        vecs = [SparseVector(v.n, v.indices, v.values.view(np.uint64))
                for v in vecs]
    return vecs


def sharded(coo, n_shards, sr=PLUS_TIMES, parallel=None, device=None):
    return ShardedSpMSpV(coo, nt=NT, semiring=sr, n_shards=n_shards,
                         parallel=parallel, device=device)


class TestInvariance:
    @pytest.mark.parametrize("sr", [PLUS_TIMES, MIN_PLUS, OR_AND],
                             ids=lambda s: s.name)
    def test_bit_identical_across_shard_counts(self, coo, sr):
        uint = sr.dtype.kind == "u"
        if uint:
            coo = type(coo)(coo.shape, coo.row, coo.col,
                            coo.val.copy().view(np.uint64))
        vecs = vectors(3, uint=uint)
        ys = [sharded(coo, s, sr).multiply_block(vecs, output="dense")
              for s in (1, 3, 5)]
        for y in ys[1:]:
            if uint:
                assert np.array_equal(y, ys[0])
            else:
                assert np.array_equal(y.view(np.uint64),
                                      ys[0].view(np.uint64))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_bit_identical_across_worker_counts(self, coo, workers):
        vecs = vectors(3)
        y1 = sharded(coo, 4).multiply_block(vecs, output="dense")
        yw = sharded(coo, 4, parallel=workers).multiply_block(
            vecs, output="dense")
        assert np.array_equal(yw.view(np.uint64), y1.view(np.uint64))

    def test_allclose_to_unsharded_exact_for_or_and(self, coo):
        vecs = vectors(3)
        y_flat = TileSpMM(coo, nt=NT).multiply_block(
            vecs, output="dense")
        y = sharded(coo, 3).multiply_block(vecs, output="dense")
        assert np.allclose(y, y_flat)
        ucoo = type(coo)(coo.shape, coo.row, coo.col,
                         coo.val.copy().view(np.uint64))
        uvecs = vectors(3, uint=True)
        yu_flat = TileSpMM(ucoo, nt=NT, semiring=OR_AND).multiply_block(
            uvecs, output="dense")
        yu = sharded(ucoo, 3, OR_AND).multiply_block(
            uvecs, output="dense")
        assert np.array_equal(yu, yu_flat)

    def test_column_slices_match_sharded_single_vector(self, coo):
        vecs = vectors(3)
        eng = sharded(coo, 3)
        Y = eng.multiply_block(vecs, output="dense")
        for j, v in enumerate(vecs):
            y_ref = eng.multiply(v, output="dense")
            assert np.array_equal(Y[:, j].copy().view(np.uint64),
                                  y_ref.view(np.uint64))


class TestDispatch:
    def test_tilespmm_on_sharded_matrix_delegates(self, coo):
        vecs = vectors(2)
        sm = ShardedTiledMatrix.from_coo(coo, nt=NT, n_shards=3)
        op = TileSpMM(sm, nt=NT)
        y = op.multiply_block(vecs, output="dense")
        y_ref = sharded(coo, 3).multiply_block(vecs, output="dense")
        assert np.array_equal(y.view(np.uint64), y_ref.view(np.uint64))

    def test_launch_structure(self, coo):
        dev = Device()
        eng = sharded(coo, 3, device=dev)
        eng.multiply_block(vectors(2), tag="t0")
        names = [r.name for r in dev.timeline]
        assert names.count("sharded_schedule") == 1
        assert names.count("sharded_spmm_shard") == 3
        assert names.count("sharded_combine") == 1
        shard_tags = [r.tag for r in dev.timeline
                      if r.name == "sharded_spmm_shard"]
        assert all(t and "t0" in t for t in shard_tags)

    def test_sparse_output(self, coo):
        vecs = vectors(2)
        ys = sharded(coo, 3).multiply_block(vecs, output="sparse")
        Y = sharded(coo, 3).multiply_block(vecs, output="dense")
        assert len(ys) == 2
        for j, sv in enumerate(ys):
            assert np.array_equal(sv.to_dense(), Y[:, j])

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_parallel_backends_agree(self, coo, backend, tmp_path):
        # the store picks the backend: in-memory runs on threads, a
        # directory store on forked worker processes
        vecs = vectors(3)
        matrix = coo
        if backend == "process":
            ShardedTiledMatrix.from_coo(coo, nt=NT, n_shards=4,
                                        store_dir=tmp_path / "s")
            matrix = ShardedTiledMatrix.open(tmp_path / "s")
        op = sharded(matrix, 4, parallel=2)
        try:
            y = op.multiply_block(vecs, output="dense")
            assert op.stats()["backend"] == backend
        finally:
            op._executor.close()
        y_ref = sharded(coo, 4).multiply_block(vecs, output="dense")
        assert np.array_equal(y.view(np.uint64),
                              y_ref.view(np.uint64))
