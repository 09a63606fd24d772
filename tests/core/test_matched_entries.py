"""The matched-entry host path of the SpMSpV kernels.

The kernels gather, multiply and merge only the entries whose x slot
is set, while the counters stay tile-level.  On finite data this must
be byte-identical — results *and* counters — to the tile-level
reference kernels of :mod:`repro.core.reference_kernels`, whatever the
semiring, the vector layout, or the identity values sitting in x.
"""

import numpy as np
import pytest

from repro import TileSpMSpV
from repro.core import (batched_union_kernel, coo_side_kernel,
                        csc_tiled_kernel, reference_coo_side_kernel,
                        reference_csc_tiled_kernel, reference_tiled_kernel,
                        tiled_kernel)
from repro.formats import COOMatrix
from repro.semiring import MAX_TIMES, MIN_PLUS, OR_AND, PLUS_TIMES
from repro.shards import ShardedSpMSpV, ShardedTiledMatrix
from repro.tiles import TiledMatrix, TiledVector
from repro.tiles.extraction import IndexedSideMatrix
from repro.verify.oracles import dense_semiring_multiply

from ..conftest import random_dense
from .test_kernel_equivalence import (assert_counters_identical,
                                      assert_y_identical)

NT = 8
M, N = 120, 104
SEMIRINGS = [PLUS_TIMES, MIN_PLUS, MAX_TIMES, OR_AND]


def matrix_coo(semiring, seed=1, density=0.08):
    coo = COOMatrix.from_dense(random_dense(M, N, density, seed=seed))
    if semiring is OR_AND:
        vals = np.random.default_rng(seed).integers(
            1, 1 << 16, size=coo.nnz).astype(np.uint64)
        return COOMatrix(coo.shape, coo.row, coo.col, vals)
    return coo


def vector(semiring, density, seed=2, n=N):
    """A random sparse vector in the semiring's dtype and fill."""
    r = np.random.default_rng(seed)
    k = int(round(n * density))
    idx = r.choice(n, size=k, replace=False)
    if semiring is OR_AND:
        vals = r.integers(1, 1 << 16, size=k).astype(np.uint64)
    else:
        vals = 0.5 + r.random(k)
    return TiledVector.from_sparse(idx, vals, n, NT,
                                   fill=float(semiring.add_identity),
                                   dtype=semiring.dtype)


def check_all_forms(coo, x, semiring):
    """Every kernel form against its tile-level reference."""
    A = TiledMatrix.from_coo(coo, NT)
    At = TiledMatrix.from_coo(coo.transpose(), NT)
    side = IndexedSideMatrix.from_coo(coo, NT)
    pairs = [(tiled_kernel, reference_tiled_kernel, A),
             (csc_tiled_kernel, reference_csc_tiled_kernel, At)]
    if not (semiring is OR_AND and x.n_nonempty_tiles == 0):
        # the seed side kernel keeps its float64 empty-hit bug
        # (test_coo_side_empty_hit_dtype_fix), so it cannot run this
        pairs.append((coo_side_kernel, reference_coo_side_kernel, side))
    for kernel, reference, mat in pairs:
        y_new, c_new = kernel(mat, x, semiring=semiring)
        y_ref, c_ref = reference(mat, x, semiring=semiring)
        assert_y_identical(y_new, y_ref)
        assert_counters_identical(c_new, c_ref)
        y_off, c_off = kernel(mat, x, semiring=semiring,
                              with_counters=False)
        assert c_off is None
        assert_y_identical(y_off, y_ref)


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
@pytest.mark.parametrize("density", [0.0, 0.03, 0.3, 1.0])
def test_semirings_match_reference(semiring, density):
    check_all_forms(matrix_coo(semiring), vector(semiring, density),
                    semiring)


def test_union_matches_looped_singles_per_semiring():
    for semiring in SEMIRINGS:
        A = TiledMatrix.from_coo(matrix_coo(semiring), NT)
        xs = [vector(semiring, d, seed=s)
              for s, d in enumerate((0.02, 0.2, 0.0, 1.0))]
        Y, _ = batched_union_kernel(A, xs, semiring=semiring)
        Y_off, c_off = batched_union_kernel(A, xs, semiring=semiring,
                                            with_counters=False)
        assert c_off is None
        for b, x in enumerate(xs):
            y_ref, _ = reference_tiled_kernel(A, x, semiring=semiring)
            assert_y_identical(Y[b], y_ref)
            assert_y_identical(Y_off[b], y_ref)


def with_slots(x, slots, value):
    """Copy of ``x`` with explicit ``value`` written into the given
    global slots (their tiles must already be stored)."""
    tile = x.x_tile.copy()
    for i in slots:
        tile[x.x_ptr[i // x.nt] * x.nt + i % x.nt] = value
    return TiledVector(x.n, x.nt, x.x_ptr, tile, fill=x.fill)


@pytest.mark.parametrize("semiring,value", [
    (PLUS_TIMES, 0.0), (PLUS_TIMES, -0.0), (MIN_PLUS, np.inf)],
    ids=["plus_times+0", "plus_times-0", "min_plus+inf"])
def test_explicit_identity_entries(semiring, value):
    """An x slot holding the identity is no entry: skipping it must
    not change a bit (the tile-level references multiply it)."""
    x = vector(semiring, 0.3)
    stored = np.flatnonzero(x.to_dense() != x.fill)
    x = with_slots(x, stored[::3], value)
    assert np.signbit(x.x_tile).any() == (str(value) == "-0.0")
    check_all_forms(matrix_coo(semiring), x, semiring)


def test_non_ascending_tile_offsets():
    """x_ptr offsets need not follow the tile order."""
    base = vector(PLUS_TIMES, 0.4)
    tiles = base.nonzero_tile_ids()
    perm = np.random.default_rng(3).permutation(len(tiles))
    x_ptr = np.full_like(base.x_ptr, -1)
    x_ptr[tiles] = perm
    blocks = np.empty((len(tiles), NT))
    blocks[perm] = base.x_tile.reshape(-1, NT)[base.x_ptr[tiles]]
    x = TiledVector(base.n, NT, x_ptr, blocks.reshape(-1))
    assert not np.all(np.diff(x.x_ptr[tiles]) > 0)
    assert np.array_equal(x.to_dense(), base.to_dense())
    check_all_forms(matrix_coo(PLUS_TIMES), x, PLUS_TIMES)
    cols, _ = x.support(PLUS_TIMES)
    assert np.all(np.diff(cols) > 0)


def test_empty_support_and_dense_x():
    coo = matrix_coo(PLUS_TIMES)
    # no stored tile at all, and stored tiles holding only identities
    check_all_forms(coo, TiledVector.empty(N, NT), PLUS_TIMES)
    zeros = with_slots(vector(PLUS_TIMES, 0.2), range(N), 0.0)
    assert len(zeros.support(PLUS_TIMES)[0]) == 0
    check_all_forms(coo, zeros, PLUS_TIMES)
    # every slot set: the identity regime of the index
    dense = TiledVector.from_dense(0.5 + np.arange(N, dtype=float), NT)
    assert len(dense.support(PLUS_TIMES)[0]) == N
    check_all_forms(coo, dense, PLUS_TIMES)


def test_support_is_cached_per_semiring():
    x = vector(MIN_PLUS, 0.2)
    first = x.support(MIN_PLUS)
    assert x.support(MIN_PLUS) is first
    cols, vals = x.support(PLUS_TIMES)   # inf is support under (+, *)
    assert len(cols) > len(first[0])


@pytest.mark.parametrize("threshold", [0, 2, 100])
def test_inf_entries_independent_of_extraction(threshold):
    """``y = A x`` must not depend on which tiles the extraction moves
    to the COO side: a set x slot meets A[0,1]=2, an unset one meets
    A[0,0]=inf, and ``inf * 0`` must never enter the fold."""
    d = np.zeros((32, 32))
    d[0, 0], d[0, 1] = np.inf, 2.0
    d[1, 0], d[2, 1], d[3, 3] = 1.0, 1.0, 1.0      # a 5-entry tile
    d[20, 5], d[7, 30] = -np.inf, 4.0
    coo = COOMatrix.from_dense(d)
    x = np.zeros(32)
    x[1] = 1.0
    expect = dense_semiring_multiply(coo, x, PLUS_TIMES)
    y = TileSpMSpV(coo, extract_threshold=threshold).multiply(
        x, output="dense")
    assert_y_identical(y, expect)
    assert y[0] == 2.0


@pytest.mark.parametrize("on_disk", [False, True], ids=["memory", "mmap"])
@pytest.mark.parametrize("workers", [1, 2])
def test_sharded_strips_share_one_support(workers, on_disk, monkeypatch,
                                          tmp_path):
    """The sharded engine finds each vector's support once per
    multiply, not once per strip, and matches the in-core result —
    also over memory-mapped strips, whose index is built from the
    column order stored with each strip."""
    coo = COOMatrix.from_dense(random_dense(160, 160, 0.06, seed=9))
    sharded = ShardedSpMSpV(
        ShardedTiledMatrix.from_coo(
            coo, nt=NT, n_shards=4,
            store_dir=tmp_path / "shards" if on_disk else None),
        parallel=workers)
    incore = TileSpMSpV(coo, nt=NT, extract_threshold=0)
    computed = []
    original = TiledVector.support

    def counting(self, semiring):
        if getattr(self, "_support", None) is None:
            computed.append(id(self))
        return original(self, semiring)

    monkeypatch.setattr(TiledVector, "support", counting)
    for seed in range(3):
        x = vector(PLUS_TIMES, 0.5, seed=seed, n=160)
        computed.clear()
        y = sharded.multiply(x, output="dense")
        assert computed == [id(x)]
        assert_y_identical(y, incore.multiply(x, output="dense"))
    assert sharded.stats()["shards_executed"] > 3


def test_lane_fraction_matches_lane_utilization():
    """The counters' prefix-sum form of the divergence gives the same
    float as the per-tile mean the reference kernels compute."""
    from repro.core.spmspv_kernels import _lane_fraction, _lane_utilization
    r = np.random.default_rng(5)
    for n_tiles in (0, 1, 3, 17, 400):
        nnz = r.integers(1, 80, size=n_tiles)
        busy = int(np.minimum(nnz, 32).sum())
        assert _lane_fraction(busy, n_tiles) == _lane_utilization(nnz)


def test_side_triplets_stay_aligned(tmp_path):
    """The side matrix's sorted row, col and val arrays describe the
    same triplets as its input, each column in row order — also when
    the input values are a memory map."""
    coo = matrix_coo(PLUS_TIMES, seed=4)
    mapped = np.lib.format.open_memmap(tmp_path / "val.npy", mode="w+",
                                       dtype=coo.val.dtype,
                                       shape=coo.val.shape)
    mapped[:] = coo.val
    side = IndexedSideMatrix.from_coo(
        COOMatrix(coo.shape, coo.row, coo.col, mapped), NT)
    got = sorted(zip(side.col.tolist(), side.row.tolist(),
                     side.val.tolist()))
    want = sorted(zip(coo.col.tolist(), coo.row.tolist(),
                      coo.val.tolist()))
    assert got == want
    key = side.col.astype(np.int64) * M + side.row
    assert np.all(np.diff(key) > 0)
