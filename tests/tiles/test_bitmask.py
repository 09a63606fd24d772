"""Tests for bitmask tiles and bit vectors (paper §3.2.3, Fig. 5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError, TileError
from repro.formats import COOMatrix
from repro.tiles import (BitTiledMatrix, BitVector, bit_positions,
                         pack_bits, unpack_words)

from ..conftest import random_dense


class TestBitConvention:
    def test_msb_first_paper_example(self):
        """Figure 5: vector {1,0,0,0} with nt=4 prints as 8."""
        assert pack_bits(np.array([0]), 4) == 8
        assert pack_bits(np.array([0, 1]), 4) == 12
        assert pack_bits(np.array([3]), 4) == 1

    def test_bit_positions_distinct(self):
        pos = bit_positions(np.arange(64), 64)
        assert len(np.unique(pos)) == 64

    def test_unpack_inverse_of_pack(self):
        local = np.array([0, 3, 5])
        word = pack_bits(local, 8)
        bits = unpack_words(np.array([word], dtype=np.uint64), 8)
        assert np.flatnonzero(bits[0]).tolist() == [0, 3, 5]

    @given(st.sets(st.integers(0, 63), max_size=30),
           st.sampled_from([4, 8, 16, 32, 64]))
    @settings(max_examples=50)
    def test_pack_unpack_roundtrip(self, bits, nt):
        bits = {b for b in bits if b < nt}
        word = pack_bits(np.array(sorted(bits), dtype=np.int64), nt)
        got = np.flatnonzero(
            unpack_words(np.array([word], dtype=np.uint64), nt)[0])
        assert set(got.tolist()) == bits


class TestBitVector:
    def test_from_indices_roundtrip(self):
        v = BitVector.from_indices(np.array([0, 7, 31, 32, 63]), 64, 32)
        assert v.to_indices().tolist() == [0, 7, 31, 32, 63]
        assert v.count() == 5

    def test_get(self):
        v = BitVector.from_indices(np.array([5]), 20, 4)
        assert v.get(5) and not v.get(4)

    def test_get_out_of_range(self):
        with pytest.raises(ShapeError):
            BitVector.zeros(8, 4).get(8)

    def test_set_indices_out_of_range(self):
        v = BitVector.zeros(8, 4)
        with pytest.raises(ShapeError):
            v.set_indices(np.array([9]))

    def test_full_respects_length(self):
        v = BitVector.full(10, 4)
        assert v.count() == 10
        assert v.to_indices().tolist() == list(range(10))

    def test_invert_respects_tail(self):
        v = BitVector.from_indices(np.array([0, 9]), 10, 4)
        inv = v.invert()
        assert inv.count() == 8
        assert 0 not in inv.to_indices()
        # tail bits (10, 11) stay clear
        inv.validate()

    def test_or_and_andnot(self):
        a = BitVector.from_indices(np.array([1, 2]), 8, 4)
        b = BitVector.from_indices(np.array([2, 3]), 8, 4)
        assert (a | b).to_indices().tolist() == [1, 2, 3]
        assert (a & b).to_indices().tolist() == [2]
        assert a.andnot(b).to_indices().tolist() == [1]

    def test_mismatched_ops_rejected(self):
        a = BitVector.zeros(8, 4)
        b = BitVector.zeros(8, 2)
        with pytest.raises(ShapeError):
            _ = a | b

    def test_validate_rejects_tail_bits(self):
        words = np.array([np.uint64(0b1111)], dtype=np.uint64)
        # n=2, nt=4: only the top 2 used bits may be set
        with pytest.raises(TileError):
            BitVector(2, 4, words)

    def test_validate_rejects_high_bits(self):
        words = np.array([np.uint64(1) << np.uint64(10)], dtype=np.uint64)
        with pytest.raises(TileError):
            BitVector(8, 4, words)

    def test_density(self):
        v = BitVector.from_indices(np.arange(5), 50, 4)
        assert v.density == pytest.approx(0.1)

    def test_nonzero_tile_ids(self):
        v = BitVector.from_indices(np.array([0, 17]), 32, 4)
        assert v.nonzero_tile_ids().tolist() == [0, 4]

    def test_nbytes_word_width(self):
        assert BitVector.zeros(64, 32).nbytes() == 2 * 4
        assert BitVector.zeros(64, 64).nbytes() == 1 * 8

    @given(st.sets(st.integers(0, 99), max_size=40),
           st.sampled_from([4, 16, 32, 64]))
    @settings(max_examples=50)
    def test_roundtrip_property(self, idx, nt):
        v = BitVector.from_indices(np.array(sorted(idx), dtype=np.int64),
                                   100, nt)
        assert v.to_indices().tolist() == sorted(idx)
        assert v.count() == len(idx)


class TestBitTiledMatrix:
    @pytest.mark.parametrize("nt", [4, 16, 32, 64])
    @pytest.mark.parametrize("orientation", ["csc", "csr"])
    def test_pattern_roundtrip(self, nt, orientation):
        d = random_dense(50, 50, 0.1, seed=nt)
        coo = COOMatrix.from_dense(d)
        bm = BitTiledMatrix.from_coo(coo, nt, orientation)
        assert np.array_equal(bm.to_coo().to_dense() != 0, d != 0)
        # unsorted, with duplicates whose values sum to zero: the
        # stored pattern is the same as the canonical input's
        rng = np.random.default_rng(nt)
        dup = rng.choice(coo.nnz, size=coo.nnz // 2, replace=False)
        rows = np.concatenate([coo.row, coo.row[dup], coo.row[dup]])
        cols = np.concatenate([coo.col, coo.col[dup], coo.col[dup]])
        vals = np.concatenate([coo.val, np.ones(len(dup)),
                               -(coo.val[dup] + 1.0)])
        perm = rng.permutation(len(rows))
        messy = BitTiledMatrix.from_coo(
            COOMatrix(coo.shape, rows[perm], cols[perm], vals[perm]),
            nt, orientation)
        assert np.array_equal(messy.tile_ptr, bm.tile_ptr)
        assert np.array_equal(messy.tile_otheridx, bm.tile_otheridx)
        assert np.array_equal(messy.words, bm.words)

    def test_rejects_bad_orientation(self):
        with pytest.raises(TileError):
            BitTiledMatrix.from_coo(COOMatrix.empty((4, 4)), 4, "coo")

    def test_undirected_graph_same_words(self):
        """Paper §3.2.3: for an undirected graph the CSC and CSR
        compressions hold the same information (A == A^T)."""
        d = random_dense(32, 32, 0.1, seed=3)
        d = ((d + d.T) != 0).astype(float)
        coo = COOMatrix.from_dense(d)
        a1 = BitTiledMatrix.from_coo(coo, 16, "csc")
        a2 = BitTiledMatrix.from_coo(coo, 16, "csr")
        # same tile count, and the multiset of words matches
        assert a1.n_nonempty_tiles == a2.n_nonempty_tiles
        assert np.array_equal(np.sort(a1.words.ravel()),
                              np.sort(a2.words.ravel()))

    def test_empty_matrix(self):
        bm = BitTiledMatrix.from_coo(COOMatrix.empty((8, 8)), 4, "csc")
        assert bm.n_nonempty_tiles == 0
        assert bm.to_coo().nnz == 0

    def test_nonsquare(self):
        d = random_dense(20, 36, 0.15, seed=4)
        bm = BitTiledMatrix.from_coo(COOMatrix.from_dense(d), 4, "csr")
        assert np.array_equal(bm.to_coo().to_dense() != 0, d != 0)

    def test_tiles_of_major(self):
        d = np.zeros((8, 8))
        d[0, 0] = d[4, 0] = 1.0   # two tiles in tile column 0
        bm = BitTiledMatrix.from_coo(COOMatrix.from_dense(d), 4, "csc")
        assert len(bm.tiles_of_major(0)) == 2
        assert len(bm.tiles_of_major(1)) == 0

    def test_nbytes_positive(self):
        d = random_dense(32, 32, 0.2, seed=5)
        bm = BitTiledMatrix.from_coo(COOMatrix.from_dense(d), 32, "csc")
        assert bm.nbytes() > 0

    def test_values_ignored(self):
        coo = COOMatrix((4, 4), np.array([1]), np.array([2]),
                        np.array([123.456]))
        bm = BitTiledMatrix.from_coo(coo, 4, "csc")
        assert bm.to_coo().val.tolist() == [1.0]


class TestSymmetricStorageSharing:
    """Paper §3.2.3: undirected graphs need only one word array."""

    def test_pattern_is_symmetric(self):
        from repro.tiles import pattern_is_symmetric
        from ..conftest import random_coo, random_graph_coo

        a, none = np.array, np.zeros(0, dtype=np.int64)
        cases = [
            (COOMatrix((3, 3), a([0, 1]), a([1, 0])), True),
            (COOMatrix((3, 3), a([0]), a([1])), False),
            (COOMatrix((2, 3), a([0]), a([1])), False),
            # duplicates: (0,1) twice, (1,0) once is symmetric; as many
            # keys each way but different sets is not
            (COOMatrix((3, 3), a([0, 0, 1, 2]), a([1, 1, 0, 2])), True),
            (COOMatrix((3, 3), a([0, 0, 2]), a([1, 1, 1])), False),
            (COOMatrix((5, 5), none, none), True),
            (COOMatrix((2, 5), none, none), False),
            # zero values still count as pattern entries
            (COOMatrix((3, 3), a([0, 1, 2]), a([2, 1, 0]),
                       a([0.0, 0.0, 1.0])), True),
            (random_graph_coo(90, 4.0, seed=4), True),
            (random_coo(90, 90, density=0.05, seed=4), False),
        ]
        for coo, expected in cases:
            assert pattern_is_symmetric(coo) is expected

    def test_reinterpreted_equals_rebuilt(self):
        from ..conftest import random_graph_coo

        coo = random_graph_coo(80, 4.0, seed=10)
        a1 = BitTiledMatrix.from_coo(coo, 16, "csc")
        a2_shared = a1.as_reinterpreted("csr")
        a2_built = BitTiledMatrix.from_coo(coo, 16, "csr")
        assert np.array_equal(a2_shared.tile_ptr, a2_built.tile_ptr)
        assert np.array_equal(a2_shared.tile_otheridx,
                              a2_built.tile_otheridx)
        assert np.array_equal(a2_shared.words, a2_built.words)
        assert a2_shared.shares_storage_with(a1)

    def test_reinterpret_bad_orientation(self):
        a1 = BitTiledMatrix.from_coo(COOMatrix.empty((4, 4)), 4, "csc")
        with pytest.raises(TileError):
            a1.as_reinterpreted("coo")

    def test_tilebfs_shares_on_symmetric(self):
        from repro.core import TileBFS
        from ..conftest import random_graph_coo

        coo = random_graph_coo(100, 4.0, seed=11)
        bfs = TileBFS(coo, nt=16)
        assert bfs.A2.shares_storage_with(bfs.A1)

    def test_tilebfs_separate_on_asymmetric(self):
        from repro.core import TileBFS

        coo = COOMatrix((40, 40), np.arange(39), np.arange(1, 40))
        bfs = TileBFS(coo, nt=16, extract_threshold=0)
        assert not bfs.A2.shares_storage_with(bfs.A1)

    def test_footprint_halved(self):
        from repro.core import TileBFS
        from ..conftest import random_graph_coo

        coo = random_graph_coo(150, 5.0, seed=12)
        shared = TileBFS(coo, nt=16, extract_threshold=0)
        # a directed version of the same pattern (drop the mirror edges)
        upper = coo.row < coo.col
        asym = COOMatrix(coo.shape, coo.row[upper], coo.col[upper],
                         coo.val[upper])
        built = TileBFS(asym, nt=16, extract_threshold=0)
        # the symmetric matrix has ~2x the nnz yet roughly the same
        # footprint as the asymmetric one that must store A1 and A2
        assert shared.format_nbytes() < 1.5 * built.format_nbytes()
