"""Tests for very-sparse-tile extraction (paper §3.2.1)."""

import numpy as np
import pytest

from repro.errors import TileError
from repro.formats import COOMatrix
from repro.tiles import split_very_sparse_tiles
from repro.tiles.extraction import IndexedSideMatrix



def dusty_matrix(seed=0):
    """Dense 8x8 blocks on the diagonal + isolated scattered entries."""
    rng = np.random.default_rng(seed)
    d = np.zeros((64, 64))
    for b in range(0, 64, 16):
        d[b:b + 8, b:b + 8] = rng.random((8, 8)) + 0.1
    dust = rng.integers(0, 64, size=(30, 2))
    for r, c in dust:
        d[r, c] = rng.random() + 0.1
    return d


class TestSplit:
    def test_identity_preserved(self):
        d = dusty_matrix(1)
        hy = split_very_sparse_tiles(COOMatrix.from_dense(d), 8, 2)
        assert np.allclose(hy.to_coo().to_dense(), d)
        # a shuffled input gives the same parts, the side row-major
        coo = COOMatrix.from_dense(d)
        perm = np.random.default_rng(0).permutation(coo.nnz)
        shuffled = split_very_sparse_tiles(
            COOMatrix(coo.shape, coo.row[perm], coo.col[perm],
                      coo.val[perm]), 8, 2)
        key = shuffled.side.row * coo.shape[1] + shuffled.side.col
        assert shuffled.side.nnz and np.all(np.diff(key) > 0)
        assert np.array_equal(key, hy.side.row * coo.shape[1]
                              + hy.side.col)
        assert np.allclose(shuffled.to_coo().to_dense(), d)

    def test_threshold_zero_extracts_nothing(self):
        d = dusty_matrix(2)
        hy = split_very_sparse_tiles(COOMatrix.from_dense(d), 8, 0)
        assert hy.side.nnz == 0
        assert hy.extracted_fraction == 0.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(TileError):
            split_very_sparse_tiles(COOMatrix.empty((8, 8)), 8, -1)

    def test_side_tiles_small_enough(self):
        d = dusty_matrix(3)
        threshold = 3
        hy = split_very_sparse_tiles(COOMatrix.from_dense(d), 8, threshold)
        # every tile remaining in the tiled part carries > threshold nnz
        assert np.all(hy.tiled.tile_nnz() > threshold)
        # every extracted column tile group is small per tile
        from repro.tiles import tile_nnz_histogram
        hist = tile_nnz_histogram(hy.side, 8)
        assert all(k <= threshold for k in hist)

    def test_total_nnz_split(self):
        d = dusty_matrix(4)
        coo = COOMatrix.from_dense(d)
        hy = split_very_sparse_tiles(coo, 8, 2)
        assert hy.tiled.nnz + hy.side.nnz == coo.nnz
        assert hy.nnz == coo.nnz

    def test_huge_threshold_extracts_everything(self):
        d = dusty_matrix(5)
        coo = COOMatrix.from_dense(d)
        hy = split_very_sparse_tiles(coo, 8, 10_000)
        assert hy.tiled.nnz == 0
        assert hy.side.nnz == coo.nnz
        assert hy.extracted_fraction == 1.0

    def test_empty_matrix(self):
        hy = split_very_sparse_tiles(COOMatrix.empty((16, 16)), 8, 2)
        assert hy.nnz == 0 and hy.extracted_fraction == 0.0

    def test_nbytes(self):
        d = dusty_matrix(6)
        hy = split_very_sparse_tiles(COOMatrix.from_dense(d), 8, 2)
        assert hy.nbytes() > 0


class TestIndexedSideMatrix:
    def test_groups_by_column_tile(self):
        d = dusty_matrix(7)
        hy = split_very_sparse_tiles(COOMatrix.from_dense(d), 8, 2)
        idx = IndexedSideMatrix.from_coo(hy.side, 8)
        assert idx.nnz == hy.side.nnz
        nt = 8
        for jt in range(len(idx.coltile_ptr) - 1):
            lo, hi = idx.coltile_ptr[jt], idx.coltile_ptr[jt + 1]
            assert np.all(idx.col[lo:hi] // nt == jt)

    def test_preserves_triplets(self):
        d = dusty_matrix(8)
        hy = split_very_sparse_tiles(COOMatrix.from_dense(d), 8, 2)
        idx = IndexedSideMatrix.from_coo(hy.side, 8)
        got = sorted(zip(idx.row.tolist(), idx.col.tolist(),
                         idx.val.tolist()))
        want = sorted(zip(hy.side.row.tolist(), hy.side.col.tolist(),
                          hy.side.val.tolist()))
        assert got == want

    def test_empty_side(self):
        idx = IndexedSideMatrix.from_coo(COOMatrix.empty((8, 8)), 4)
        assert idx.nnz == 0
        assert idx.coltile_ptr.tolist() == [0, 0, 0]
