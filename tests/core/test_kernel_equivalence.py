"""Equivalence of the active-set kernels against the seed oracles.

The active-set rewrite of :mod:`repro.core.spmspv_kernels` must be a
pure host-side optimisation: for every input, the gather-plan kernels
return the same ``y`` as the O(nnz) mask-based seed implementations
(preserved in :mod:`repro.core.reference_kernels`) and **byte-identical
hardware counters** — the modeled GPU always priced skipped work
correctly, so no counter may move.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (coo_side_kernel, csc_tiled_kernel,
                        reference_coo_side_kernel,
                        reference_csc_tiled_kernel,
                        reference_tiled_kernel, tiled_kernel)
from repro.formats import COOMatrix
from repro.semiring import MIN_PLUS, OR_AND, PLUS_TIMES
from repro.tiles import TiledMatrix, TiledVector
from repro.tiles.extraction import (IndexedSideMatrix,
                                    split_very_sparse_tiles)

from ..conftest import random_dense


def assert_counters_identical(new, ref):
    """Every counter field must match byte-for-byte (exact equality,
    no tolerance)."""
    for f in dataclasses.fields(ref):
        a, b = getattr(new, f.name), getattr(ref, f.name)
        assert a == b and type(a) is type(b), (
            f"counter {f.name}: active-set {a!r} != reference {b!r}")


def assert_y_identical(y_new, y_ref):
    assert y_new.dtype == y_ref.dtype
    assert np.array_equal(y_new, y_ref, equal_nan=True)


def frontier(n, density, seed, nt, fill=0.0):
    """A random sparse vector at the given density, as a TiledVector."""
    r = np.random.default_rng(seed)
    k = int(round(n * density))
    idx = r.choice(n, size=k, replace=False) if k else np.zeros(0, int)
    vals = 1.0 + r.random(k)
    return TiledVector.from_sparse(idx, vals, n, nt, fill=fill)


DENSITIES = [0.0, 0.002, 0.01, 0.1, 1.0]
SHAPES = [(64, 64, 4), (200, 120, 8), (333, 333, 16), (96, 50, 16)]


@pytest.mark.parametrize("m,n,nt", SHAPES)
@pytest.mark.parametrize("density", DENSITIES)
def test_tiled_kernel_equivalence(m, n, nt, density):
    A = TiledMatrix.from_dense(random_dense(m, n, 0.05, seed=m + nt), nt)
    x = frontier(n, density, seed=int(density * 1000) + n, nt=nt)
    y_new, c_new = tiled_kernel(A, x)
    y_ref, c_ref = reference_tiled_kernel(A, x)
    assert_y_identical(y_new, y_ref)
    assert_counters_identical(c_new, c_ref)


@pytest.mark.parametrize("m,n,nt", SHAPES)
@pytest.mark.parametrize("density", DENSITIES)
def test_csc_kernel_equivalence(m, n, nt, density):
    coo = COOMatrix.from_dense(random_dense(m, n, 0.05, seed=m + nt + 1))
    At = TiledMatrix.from_coo(coo.transpose(), nt)
    x = frontier(n, density, seed=int(density * 1000) + m, nt=nt)
    y_new, c_new = csc_tiled_kernel(At, x)
    y_ref, c_ref = reference_csc_tiled_kernel(At, x)
    assert_y_identical(y_new, y_ref)
    assert_counters_identical(c_new, c_ref)


@pytest.mark.parametrize("density", DENSITIES)
def test_coo_side_kernel_equivalence(density):
    d = random_dense(150, 130, 0.01, seed=11)
    side = IndexedSideMatrix.from_coo(COOMatrix.from_dense(d), 16)
    x = frontier(130, density, seed=3, nt=16)
    y_new, c_new = coo_side_kernel(side, x)
    y_ref, c_ref = reference_coo_side_kernel(side, x)
    assert_y_identical(y_new, y_ref)
    assert_counters_identical(c_new, c_ref)


def test_extracted_side_only_matrix():
    """A matrix whose tiles are all very sparse: everything lives in
    the COO side after extraction, the tiled part is empty."""
    d = np.zeros((64, 64))
    d[5, 9] = 2.0
    d[40, 61] = 3.0
    d[63, 0] = 4.0
    hybrid = split_very_sparse_tiles(COOMatrix.from_dense(d), 16,
                                     threshold=8)
    assert hybrid.tiled.nnz == 0 and hybrid.side.nnz == 3
    side = IndexedSideMatrix.from_coo(hybrid.side, 16)
    x = frontier(64, 0.2, seed=5, nt=16)
    y_new, c_new = coo_side_kernel(side, x)
    y_ref, c_ref = reference_coo_side_kernel(side, x)
    assert_y_identical(y_new, y_ref)
    assert_counters_identical(c_new, c_ref)
    # the empty tiled part must also agree
    y_new, c_new = tiled_kernel(hybrid.tiled, x)
    y_ref, c_ref = reference_tiled_kernel(hybrid.tiled, x)
    assert_y_identical(y_new, y_ref)
    assert_counters_identical(c_new, c_ref)


def test_accumulating_into_prior_y_matches_reference():
    """The scatter-merge fast path must not engage (or must stay
    exact) when the accumulator already holds values — the side kernel
    runs after the tiled kernel on the same y."""
    A = TiledMatrix.from_dense(random_dense(60, 60, 0.1, seed=21), 4)
    x = frontier(60, 0.3, seed=22, nt=4)
    y0 = np.zeros(60)
    y0[::3] = 7.5
    y_new, _ = tiled_kernel(A, x, y_dense=y0.copy())
    y_ref, _ = reference_tiled_kernel(A, x, y_dense=y0.copy())
    assert_y_identical(y_new, y_ref)


@pytest.mark.parametrize("density", [0.0, 0.05, 1.0])
def test_min_plus_semiring_equivalence(density):
    """Non-default semirings take the general ``add.at`` merge path and
    still agree with the oracle."""
    A = TiledMatrix.from_dense(random_dense(80, 80, 0.08, seed=31), 8)
    x = frontier(80, density, seed=32, nt=8, fill=np.inf)
    y_new, c_new = tiled_kernel(A, x, semiring=MIN_PLUS)
    y_ref, c_ref = reference_tiled_kernel(A, x, semiring=MIN_PLUS)
    assert_y_identical(y_new, y_ref)
    assert_counters_identical(c_new, c_ref)


def test_coo_side_empty_hit_dtype_fix():
    """Satellite regression: the empty-hit path used to allocate the
    x-value buffer as float64 regardless of the semiring, which breaks
    integer semirings (bitwise mul on a float operand)."""
    coo = COOMatrix((32, 32), np.array([2]), np.array([3]),
                    np.array([3], dtype=np.uint64))  # column tile 0 only
    side = IndexedSideMatrix.from_coo(coo, 16)
    # frontier lives in column tile 1: the side's only tile misses
    x = TiledVector.from_sparse(np.array([20]), np.array([1.0]), 32, 16)
    y, c = coo_side_kernel(side, x, semiring=OR_AND)
    assert y.dtype == OR_AND.dtype
    assert not y.any()
    c.check()


def test_column_gather_structure():
    """The plan-time grouping indexes exactly the stored structure."""
    A = TiledMatrix.from_dense(random_dense(100, 90, 0.1, seed=41), 8)
    g = A.column_gather()
    assert g is A.column_gather()          # cached
    # per tile column: its stored tiles' rows, nonzeros and busy lanes
    tile_nnz = A.tile_nnz()
    for c in range(A.n_tile_cols):
        tiles = np.flatnonzero(A.tile_colidx == c)
        lo, hi = g.coltile_tile_ptr[c], g.coltile_tile_ptr[c + 1]
        assert np.array_equal(g.coltile_rows[lo:hi],
                              A.tile_rowidx()[tiles])
        assert (g.coltile_nnz_ptr[c + 1] - g.coltile_nnz_ptr[c]
                == tile_nnz[tiles].sum())
        assert (g.coltile_lanes_ptr[c + 1] - g.coltile_lanes_ptr[c]
                == np.minimum(tile_nnz[tiles], 32).sum())
    # the entry index lists every entry once, by column and, within a
    # column, by row (the stored order of one column)
    e = A.column_entries()
    assert e is A.column_entries()         # cached
    coo = A.to_coo()
    order = np.lexsort((coo.row, coo.col))
    assert np.array_equal(e.out, coo.row[order])
    assert np.array_equal(e.vals, coo.val[order])
    assert np.array_equal(A.values[e.order], e.vals)
    # each column's slot names exactly that column's entry range
    cols = coo.col[order]
    for j in range(A.shape[1]):
        base = e.slot_base[j // A.nt]
        if base < 0:
            assert not np.any(cols == j)
            continue
        lo, hi = e.slot_ptr[base + j % A.nt], e.slot_ptr[base + j % A.nt + 1]
        assert np.all(cols[lo:hi] == j) and hi - lo == np.sum(cols == j)


def test_scatter_merge_matches_add_at():
    """The bincount fast path is bit-identical to ``np.add.at`` on a
    zeroed accumulator, and falls back for non-zero bases."""
    r = np.random.default_rng(51)
    idx = r.integers(0, 40, size=500)
    vals = r.standard_normal(500)
    fast = np.zeros(40)
    PLUS_TIMES.scatter_merge(fast, idx, vals)
    slow = np.zeros(40)
    np.add.at(slow, idx, vals)
    assert np.array_equal(fast, slow)
    # non-zero base: still exact (general path)
    base = r.standard_normal(40)
    fast2, slow2 = base.copy(), base.copy()
    PLUS_TIMES.scatter_merge(fast2, idx, vals)
    np.add.at(slow2, idx, vals)
    assert np.array_equal(fast2, slow2)
