"""Tests for the CSR-of-tiles matrix structure (paper §3.2.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TileError
from repro.formats import COOMatrix
from repro.tiles import TiledMatrix

from ..conftest import random_dense


def matrices():
    return st.tuples(st.integers(1, 60), st.integers(1, 60),
                     st.sampled_from([2, 4, 16, 32]),
                     st.integers(0, 10**6))


class TestConstruction:
    @pytest.mark.parametrize("nt", [2, 4, 16, 32, 64])
    def test_roundtrip(self, nt):
        d = random_dense(50, 70, 0.15, seed=nt)
        tm = TiledMatrix.from_dense(d, nt)
        assert np.allclose(tm.to_dense(), d)

    def test_rejects_bad_tile_size(self):
        with pytest.raises(TileError):
            TiledMatrix.from_dense(np.eye(4), 3)

    def test_empty_matrix(self):
        tm = TiledMatrix.from_coo(COOMatrix.empty((10, 10)), 4)
        assert tm.n_nonempty_tiles == 0 and tm.nnz == 0

    def test_duplicates_summed(self):
        coo = COOMatrix((4, 4), np.array([1, 1]), np.array([2, 2]),
                        np.array([1.5, 2.5]))
        tm = TiledMatrix.from_coo(coo, 4)
        assert tm.nnz == 1 and tm.values[0] == 4.0

    def test_geometry(self):
        tm = TiledMatrix.from_dense(np.eye(10), 4)
        assert tm.n_tile_rows == 3 and tm.n_tile_cols == 3
        # diagonal touches exactly the 3 diagonal tiles
        assert tm.n_nonempty_tiles == 3

    def test_entries_sorted_rowmajor_within_tiles(self):
        d = random_dense(32, 32, 0.3, seed=5)
        tm = TiledMatrix.from_dense(d, 16)
        for t in range(tm.n_nonempty_tiles):
            lr, lc, _ = tm.tile_slice(t)
            key = lr.astype(int) * tm.nt + lc.astype(int)
            assert np.all(np.diff(key) > 0)

    def test_tile_colidx_sorted_within_rows(self):
        d = random_dense(64, 64, 0.2, seed=6)
        tm = TiledMatrix.from_dense(d, 16)
        for tr in range(tm.n_tile_rows):
            lo, hi = tm.tile_ptr[tr], tm.tile_ptr[tr + 1]
            assert np.all(np.diff(tm.tile_colidx[lo:hi]) > 0)


def lexsort_tiling(coo, nt):
    """The tiling as the 4-key lexsort (tile row, tile column, local
    row, local column) orders it — the oracle of the radix reorder."""
    from repro._util import ceil_div, group_starts
    from repro.formats.csr import compress_indptr

    coo = coo.sum_duplicates()
    m, n = coo.shape
    trow, tcol = coo.row // nt, coo.col // nt
    lrow = (coo.row % nt).astype(np.uint8)
    lcol = (coo.col % nt).astype(np.uint8)
    order = np.lexsort((lcol, lrow, tcol, trow))
    key = trow[order] * ceil_div(n, nt) + tcol[order]
    starts = group_starts(key)
    return {
        "tile_ptr": compress_indptr(trow[order][starts], ceil_div(m, nt)),
        "tile_colidx": tcol[order][starts].astype(np.int64),
        "tile_nnz_ptr": np.append(starts, len(key)).astype(np.int64),
        "local_row": lrow[order], "local_col": lcol[order],
        "values": coo.val[order],
    }


@pytest.mark.parametrize("nt", [2, 4, 8, 16, 32, 64])
@pytest.mark.parametrize("shape", [(1, 1), (37, 200), (300, 29),
                                   (130, 130)])
def test_radix_reorder_matches_lexsort(shape, nt):
    """One stable radix pass over the tile key gives the lexsort's
    layout byte for byte: unsorted input, duplicates (some cancelling)
    and explicit zeros included."""
    r = np.random.default_rng(nt * 1000 + shape[0])
    m, n = shape
    k = 4 * m * n // 10 + 3
    rows, cols = r.integers(0, m, k), r.integers(0, n, k)
    vals = r.standard_normal(k)
    vals[r.random(k) < 0.1] = 0.0
    rows = np.append(rows, [rows[0], rows[0]])
    cols = np.append(cols, [cols[0], cols[0]])
    vals = np.append(vals, [2.5, -2.5])
    coo = COOMatrix(shape, rows, cols, vals)
    got = TiledMatrix.from_coo(coo, nt)
    for name, want in lexsort_tiling(coo, nt).items():
        have = getattr(got, name)
        assert have.dtype == want.dtype and \
            have.tobytes() == want.tobytes(), name


class TestValidation:
    def test_rejects_empty_stored_tile(self):
        with pytest.raises(TileError):
            TiledMatrix((4, 4), 4, np.array([0, 1]), np.array([0]),
                        np.array([0, 0]), np.zeros(0, np.uint8),
                        np.zeros(0, np.uint8), np.zeros(0))

    def test_rejects_local_index_out_of_tile(self):
        with pytest.raises(TileError):
            TiledMatrix((4, 4), 4, np.array([0, 1]), np.array([0]),
                        np.array([0, 1]), np.array([4], np.uint8),
                        np.array([0], np.uint8), np.array([1.0]))

    def test_rejects_tile_col_out_of_range(self):
        with pytest.raises(TileError):
            TiledMatrix((4, 4), 4, np.array([0, 1]), np.array([1]),
                        np.array([0, 1]), np.array([0], np.uint8),
                        np.array([0], np.uint8), np.array([1.0]))

    def test_rejects_inconsistent_nnz_ptr(self):
        with pytest.raises(TileError):
            TiledMatrix((4, 4), 4, np.array([0, 1]), np.array([0]),
                        np.array([0, 2]), np.array([0], np.uint8),
                        np.array([0], np.uint8), np.array([1.0]))


class TestPackedIndex:
    def test_nibble_packing_nt16(self):
        d = np.zeros((16, 16))
        d[3, 7] = 1.0
        d[15, 15] = 2.0
        tm = TiledMatrix.from_dense(d, 16)
        packed = tm.packed_index()
        assert packed[0] == (3 << 4) | 7
        assert packed[1] == (15 << 4) | 15

    def test_packed_rejects_other_sizes(self):
        tm = TiledMatrix.from_dense(np.eye(8), 4)
        with pytest.raises(TileError):
            tm.packed_index()

    def test_index_bytes_per_entry(self):
        assert TiledMatrix.from_dense(np.eye(16), 16).index_bytes_per_entry() == 1
        assert TiledMatrix.from_dense(np.eye(16), 32).index_bytes_per_entry() == 2

    def test_nbytes_positive_and_scales(self):
        d = random_dense(64, 64, 0.2, seed=8)
        small = TiledMatrix.from_dense(d, 16).nbytes()
        assert small > 0


class TestAccessors:
    def test_tile_rowidx_matches_ptr(self):
        d = random_dense(48, 48, 0.2, seed=9)
        tm = TiledMatrix.from_dense(d, 16)
        rowidx = tm.tile_rowidx()
        for tr in range(tm.n_tile_rows):
            lo, hi = tm.tile_ptr[tr], tm.tile_ptr[tr + 1]
            assert np.all(rowidx[lo:hi] == tr)

    def test_tile_nnz_sums_to_total(self):
        d = random_dense(40, 40, 0.25, seed=10)
        tm = TiledMatrix.from_dense(d, 16)
        assert tm.tile_nnz().sum() == tm.nnz

    def test_tile_of_entry_cached(self):
        tm = TiledMatrix.from_dense(np.eye(8), 4)
        assert tm.tile_of_entry() is tm.tile_of_entry()

    def test_tile_slice_contents(self):
        d = np.zeros((8, 8))
        d[1, 2] = 5.0
        d[2, 1] = 6.0
        tm = TiledMatrix.from_dense(d, 4)
        lr, lc, v = tm.tile_slice(0)
        assert sorted(zip(lr.tolist(), lc.tolist(), v.tolist())) == \
            [(1, 2, 5.0), (2, 1, 6.0)]


class TestPropertyRoundtrip:
    @given(matrices())
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_random(self, params):
        m, n, nt, seed = params
        d = random_dense(m, n, 0.2, seed=seed)
        tm = TiledMatrix.from_dense(d, nt)
        assert np.allclose(tm.to_dense(), d)
        tm.validate()

    @given(matrices())
    @settings(max_examples=30, deadline=None)
    def test_nnz_preserved(self, params):
        m, n, nt, seed = params
        d = random_dense(m, n, 0.2, seed=seed)
        assert TiledMatrix.from_dense(d, nt).nnz == np.count_nonzero(d)
