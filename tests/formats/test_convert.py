"""Conversion round-trips, including property-based checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.formats import (COOMatrix, CSCMatrix, CSRMatrix,
                           as_sparse, from_scipy, to_bsr, to_coo, to_csc,
                           to_csr, to_scipy_csr)

from ..conftest import random_dense


def dense_matrices(max_dim=24):
    """Strategy: small dense float matrices with controlled sparsity."""
    return st.tuples(
        st.integers(1, max_dim), st.integers(1, max_dim), st.integers(0, 10**6)
    ).map(lambda t: random_dense(t[0], t[1],
                                 density=0.25, seed=t[2]))


class TestRoundTrips:
    @given(dense_matrices())
    @settings(max_examples=40, deadline=None)
    def test_coo_csr_csc_chain(self, d):
        coo = COOMatrix.from_dense(d)
        assert np.allclose(to_csr(coo).to_dense(), d)
        assert np.allclose(to_csc(coo).to_dense(), d)
        assert np.allclose(to_csc(to_csr(coo)).to_dense(), d)
        assert np.allclose(to_csr(to_csc(coo)).to_dense(), d)

    @given(dense_matrices(), st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=30, deadline=None)
    def test_bsr_roundtrip(self, d, b):
        assert np.allclose(to_bsr(d, b).to_dense(), d)

    @given(dense_matrices())
    @settings(max_examples=30, deadline=None)
    def test_matvec_agrees_across_formats(self, d):
        x = np.random.default_rng(0).random(d.shape[1])
        ref = d @ x
        for m in (to_coo(d), to_csr(d), to_csc(d), to_bsr(d, 4)):
            assert np.allclose(m.matvec(x), ref)

    def test_canonical_entry_order_stable(self):
        d = random_dense(15, 15, 0.3, seed=1)
        a = to_csr(to_csc(to_coo(d)))
        b = to_csr(d)
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.allclose(a.data, b.data)


class TestAsSparse:
    def test_dense_input(self):
        m = as_sparse(np.eye(3))
        assert isinstance(m, COOMatrix)
        assert m.nnz == 3

    def test_passthrough(self, small_coo):
        assert as_sparse(small_coo) is small_coo

    def test_scipy_input_names_from_scipy(self):
        sp = pytest.importorskip("scipy.sparse")
        from repro import TileBFS, TileSpMSpV

        for fmt in ("csr", "coo", "csc"):
            m = sp.random(8, 8, density=0.3, format=fmt, random_state=0)
            with pytest.raises(TypeError, match="from_scipy"):
                as_sparse(m)
            # both plan builders convert through it first
            for op in (TileBFS, TileSpMSpV):
                with pytest.raises(TypeError, match="from_scipy"):
                    op(m)

    def test_to_csr_passthrough(self):
        csr = CSRMatrix.from_dense(np.eye(3))
        assert to_csr(csr) is csr

    def test_to_csc_passthrough(self):
        csc = CSCMatrix.from_dense(np.eye(3))
        assert to_csc(csc) is csc


class TestScipyInterop:
    def test_from_scipy(self):
        import scipy.sparse as sp

        d = random_dense(9, 7, 0.3, seed=2)
        ours = from_scipy(sp.csr_matrix(d))
        assert np.allclose(ours.to_dense(), d)

    def test_to_scipy(self):
        d = random_dense(9, 7, 0.3, seed=3)
        sp_m = to_scipy_csr(COOMatrix.from_dense(d))
        assert np.allclose(sp_m.toarray(), d)

    def test_roundtrip_through_scipy(self):
        d = random_dense(11, 11, 0.2, seed=4)
        assert np.allclose(from_scipy(to_scipy_csr(to_coo(d))).to_dense(), d)
