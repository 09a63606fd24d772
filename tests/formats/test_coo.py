"""Unit tests for the COO format."""

import numpy as np
import pytest

from repro.errors import FormatError, ShapeError
from repro.formats import COOMatrix

from ..conftest import random_dense


class TestConstruction:
    def test_from_dense_roundtrip(self):
        d = random_dense(9, 13, 0.3, seed=1)
        coo = COOMatrix.from_dense(d)
        assert np.allclose(coo.to_dense(), d)

    def test_from_dense_rejects_3d(self):
        with pytest.raises(ShapeError):
            COOMatrix.from_dense(np.zeros((2, 2, 2)))

    def test_pattern_defaults_to_ones(self):
        coo = COOMatrix((3, 3), np.array([0, 2]), np.array([1, 2]))
        assert coo.val.tolist() == [1.0, 1.0]

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(FormatError):
            COOMatrix((3, 3), np.array([0]), np.array([1, 2]))

    def test_rejects_value_length_mismatch(self):
        with pytest.raises(FormatError):
            COOMatrix((3, 3), np.array([0]), np.array([1]),
                      np.array([1.0, 2.0]))

    def test_rejects_out_of_range_row(self):
        with pytest.raises(FormatError):
            COOMatrix((3, 3), np.array([3]), np.array([0]))

    def test_rejects_negative_col(self):
        with pytest.raises(FormatError):
            COOMatrix((3, 3), np.array([0]), np.array([-1]))

    def test_rejects_negative_shape(self):
        with pytest.raises(ShapeError):
            COOMatrix((-1, 3), np.zeros(0, dtype=np.int64),
                      np.zeros(0, dtype=np.int64))

    def test_empty(self):
        coo = COOMatrix.empty((4, 5))
        assert coo.nnz == 0
        assert coo.to_dense().shape == (4, 5)

    def test_zero_by_zero(self):
        coo = COOMatrix.empty((0, 0))
        assert coo.nnz == 0 and coo.density == 0.0


class TestCanonicalization:
    def test_sum_duplicates(self):
        coo = COOMatrix((2, 2), np.array([0, 0, 1]), np.array([1, 1, 0]),
                        np.array([2.0, 3.0, 4.0]))
        out = coo.sum_duplicates()
        assert out.nnz == 2
        assert out.to_dense()[0, 1] == 5.0

    def test_sum_duplicates_canonical_input_is_copied(self):
        """Strictly ascending keys skip the sort but still return a
        copy with the same entries."""
        coo = COOMatrix((3, 4), np.array([0, 0, 1, 2]),
                        np.array([1, 3, 0, 2]),
                        np.array([1.0, 2.0, 3.0, 4.0]))
        out = coo.sum_duplicates()
        for name in ("row", "col", "val"):
            assert np.array_equal(getattr(out, name), getattr(coo, name))
            assert not np.shares_memory(getattr(out, name),
                                        getattr(coo, name))

    @pytest.mark.parametrize("row, col", [
        ([0, 1, 0], [1, 0, 2]),     # unsorted, no duplicates
        ([0, 0, 1], [1, 1, 0]),     # sorted with a duplicate
        ([1, 1], [2, 2]),           # only duplicates
    ])
    def test_sum_duplicates_matches_dense(self, row, col):
        val = np.arange(1.0, len(row) + 1)
        coo = COOMatrix((2, 3), np.array(row), np.array(col), val)
        out = coo.sum_duplicates()
        key = out.row * 3 + out.col
        assert np.all(key[1:] > key[:-1])
        assert np.array_equal(out.to_dense(), coo.to_dense())

    def test_sort_rowmajor(self):
        coo = COOMatrix((3, 3), np.array([2, 0, 1]), np.array([0, 2, 1]),
                        np.array([1.0, 2.0, 3.0]))
        out = coo.sort_rowmajor()
        assert out.row.tolist() == [0, 1, 2]

    def test_canonicalize_idempotent(self):
        d = random_dense(20, 20, 0.2, seed=3)
        coo = COOMatrix.from_dense(d).canonicalize()
        again = coo.canonicalize()
        assert np.array_equal(coo.row, again.row)
        assert np.array_equal(coo.col, again.col)
        assert np.allclose(coo.val, again.val)

    def test_drop_zeros(self):
        coo = COOMatrix((2, 2), np.array([0, 1]), np.array([0, 1]),
                        np.array([0.0, 2.0]))
        assert coo.drop_zeros().nnz == 1

    def test_drop_zeros_with_tolerance(self):
        coo = COOMatrix((2, 2), np.array([0, 1]), np.array([0, 1]),
                        np.array([1e-12, 2.0]))
        assert coo.drop_zeros(tol=1e-9).nnz == 1


class TestOps:
    def test_matvec_matches_dense(self):
        d = random_dense(15, 11, 0.25, seed=4)
        x = np.random.default_rng(5).random(11)
        assert np.allclose(COOMatrix.from_dense(d).matvec(x), d @ x)

    def test_matvec_shape_error(self):
        coo = COOMatrix.empty((3, 4))
        with pytest.raises(ShapeError):
            coo.matvec(np.zeros(5))

    def test_transpose(self):
        d = random_dense(6, 9, 0.3, seed=6)
        coo = COOMatrix.from_dense(d)
        assert np.allclose(coo.transpose().to_dense(), d.T)

    def test_symmetrize_makes_symmetric(self):
        coo = COOMatrix((4, 4), np.array([0, 1]), np.array([1, 3]),
                        np.array([2.0, 5.0]))
        s = coo.symmetrize().to_dense()
        assert np.allclose(s, s.T)
        assert s[1, 0] == 2.0 and s[3, 1] == 5.0

    def test_symmetrize_requires_square(self):
        with pytest.raises(ShapeError):
            COOMatrix.empty((2, 3)).symmetrize()

    def test_without_diagonal(self):
        coo = COOMatrix((3, 3), np.array([0, 1, 2]), np.array([0, 2, 2]),
                        np.array([1.0, 1.0, 1.0]))
        out = coo.without_diagonal()
        assert out.nnz == 1
        assert out.row.tolist() == [1]

    def test_density(self):
        coo = COOMatrix((4, 5), np.array([0]), np.array([0]))
        assert coo.density == pytest.approx(1 / 20)

    def test_validate_passes_on_good_matrix(self, small_coo):
        small_coo.validate()
