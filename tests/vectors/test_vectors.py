"""Tests for SparseVector and the paper's vector generators."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ShapeError
from repro.semiring import MAX_TIMES, MIN_PLUS, OR_AND, PLUS_TIMES
from repro.tiles import TiledVector
from repro.vectors import (PAPER_SEED, PAPER_SPARSITIES, SparseVector,
                           frontier_vector, random_sparse_vector)


class TestSparseVector:
    def test_from_dense_roundtrip(self):
        x = np.array([0.0, 1.5, 0.0, -2.0])
        sv = SparseVector.from_dense(x)
        assert sv.indices.tolist() == [1, 3]
        assert np.allclose(sv.to_dense(), x)

    def test_rejects_2d(self):
        with pytest.raises(ShapeError):
            SparseVector.from_dense(np.zeros((2, 2)))

    def test_values_default_to_ones(self):
        sv = SparseVector(5, np.array([1, 3]))
        assert sv.values.tolist() == [1.0, 1.0]

    def test_sorts_unsorted_indices(self):
        sv = SparseVector(5, np.array([3, 1]), np.array([30.0, 10.0]))
        assert sv.indices.tolist() == [1, 3]
        assert sv.values.tolist() == [10.0, 30.0]

    def test_rejects_duplicates(self):
        with pytest.raises(ShapeError):
            SparseVector(5, np.array([2, 2]), np.array([1.0, 2.0]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ShapeError):
            SparseVector(5, np.array([5]), np.array([1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ShapeError):
            SparseVector(5, np.array([1]), np.array([1.0, 2.0]))

    def test_sparsity(self):
        sv = SparseVector(100, np.arange(10))
        assert sv.sparsity == pytest.approx(0.1)

    def test_empty(self):
        sv = SparseVector.empty(7)
        assert sv.nnz == 0 and len(sv) == 7

    def test_drop_zeros(self):
        sv = SparseVector(4, np.array([0, 1]), np.array([0.0, 2.0]))
        assert sv.drop_zeros().indices.tolist() == [1]

    def test_tiled_roundtrip(self):
        sv = SparseVector(20, np.array([0, 7, 19]),
                          np.array([1.0, 2.0, 3.0]))
        back = SparseVector.from_tiled(sv.to_tiled(4))
        assert np.array_equal(back.indices, sv.indices)
        assert np.allclose(back.values, sv.values)

    def test_as_pair(self):
        sv = SparseVector(4, np.array([2]), np.array([5.0]))
        idx, vals = sv.as_pair()
        assert idx.tolist() == [2] and vals.tolist() == [5.0]


class TestSupport:
    """``SparseVector.support`` is the support ``from_sparse`` tiles,
    without the tiles."""

    @pytest.mark.parametrize("semiring", [PLUS_TIMES, MIN_PLUS, MAX_TIMES,
                                          OR_AND], ids=lambda s: s.name)
    def test_equals_tiled_support(self, semiring):
        r = np.random.default_rng(3)
        idx = np.sort(r.choice(500, 120, replace=False))
        if semiring is OR_AND:
            vals = r.integers(0, 1 << 20, len(idx))
            vals[::5] = 0
        else:
            vals = r.standard_normal(len(idx))
            vals[::7] = semiring.add_identity
            vals[1::7] = -0.0
            vals[2::7] = np.inf
            vals[3::7] = -np.inf
            vals[4::7] = np.nan
        x = SparseVector(500, idx, vals)
        want = TiledVector.from_sparse(idx, vals, 500, 16,
                                       fill=float(semiring.add_identity),
                                       dtype=semiring.dtype).support(semiring)
        got = x.support(semiring)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes()

    def test_negative_zero_reads_positive(self):
        x = SparseVector(4, np.array([1, 2]), np.array([-0.0, 1.0]))
        cols, vals = x.support(MIN_PLUS)
        assert cols.tolist() == [1, 2]
        assert not np.signbit(vals).any()

    def test_changed_vector(self):
        """A vector changed after construction: out-of-range or
        mismatched arrays raise what ``from_sparse`` raises, and
        unsorted indices leave the support to the tiled route."""
        x = SparseVector(10, np.array([1, 4]), np.array([1.0, 2.0]))
        x.indices = np.array([4, 1])
        assert x.support(PLUS_TIMES) is None
        x.indices = np.array([1, 12])
        with pytest.raises(ShapeError):
            x.support(PLUS_TIMES)
        x.indices = np.array([1, 4, 5])
        with pytest.raises(ShapeError):
            x.support(PLUS_TIMES)


class TestRandomSparseVector:
    def test_paper_protocol_constants(self):
        assert PAPER_SPARSITIES == (0.1, 0.01, 0.001, 0.0001)
        assert PAPER_SEED == 1

    @pytest.mark.parametrize("s", PAPER_SPARSITIES)
    def test_nnz_matches_sparsity(self, s):
        sv = random_sparse_vector(100_000, s)
        assert sv.nnz == pytest.approx(100_000 * s, rel=0.01)

    def test_deterministic_with_seed(self):
        a = random_sparse_vector(1000, 0.05, seed=1)
        b = random_sparse_vector(1000, 0.05, seed=1)
        assert np.array_equal(a.indices, b.indices)
        assert np.allclose(a.values, b.values)

    def test_at_least_one_nonzero(self):
        sv = random_sparse_vector(100, 0.0001)
        assert sv.nnz == 1

    def test_zero_sparsity_empty(self):
        assert random_sparse_vector(100, 0.0).nnz == 0

    def test_full_density(self):
        sv = random_sparse_vector(50, 1.0)
        assert sv.nnz == 50

    def test_values_never_zero(self):
        sv = random_sparse_vector(10_000, 0.1)
        assert np.all(sv.values != 0)

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ShapeError):
            random_sparse_vector(10, 1.5)
        with pytest.raises(ShapeError):
            random_sparse_vector(10, -0.1)

    def test_rejects_negative_length(self):
        with pytest.raises(ShapeError):
            random_sparse_vector(-1, 0.5)

    @given(st.integers(1, 5000), st.floats(0.0, 1.0),
           st.integers(0, 1000))
    @settings(max_examples=40)
    def test_indices_sorted_unique_in_range(self, n, s, seed):
        sv = random_sparse_vector(n, s, seed=seed)
        assert np.all(np.diff(sv.indices) > 0)
        if sv.nnz:
            assert 0 <= sv.indices[0] and sv.indices[-1] < n


class TestFrontierVector:
    def test_single_source(self):
        f = frontier_vector(10, [3])
        assert f.indices.tolist() == [3]
        assert f.values.tolist() == [1.0]

    def test_multi_source_deduplicated(self):
        f = frontier_vector(10, [3, 3, 7])
        assert f.indices.tolist() == [3, 7]

    def test_out_of_range(self):
        with pytest.raises(ShapeError):
            frontier_vector(10, [10])
