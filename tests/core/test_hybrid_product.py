"""The one host product of the multiply family against the two-kernel
composition it replaces.

A multiply used to run the tiled kernel (CSR or CSC form) into a dense
accumulator, the COO side kernel into the same accumulator, and then
drop the identity slots.  The host product matches the support of x
once over the plan's stacked index and reduces by row, densely or over
the distinct rows only.  Every result must keep the composition's bits
— indices, value bits (signed zeros, NaN, ±inf) and dtype — for every
form, output, mask, semiring and extraction threshold, and the device
timeline must not move.
"""

import numpy as np
import pytest

from repro import TileSpMSpV
from repro.core.batched import BatchedSpMSpV
from repro.core.spmspv import apply_output_mask, as_tiled_vector, sparsify
from repro.core.spmspv_kernels import (batched_union_kernel, coo_side_kernel,
                                       csc_tiled_kernel, tiled_kernel)
from repro.formats import COOMatrix
from repro.gpusim import Device
from repro.runtime import ExecutionContext, PlanCache
from repro.semiring import MAX_TIMES, MIN_PLUS, OR_AND, PLUS_TIMES
from repro.tiles.tiled_vector import TiledVector
from repro.vectors.sparse_vector import SparseVector

# ±inf and NaN products are the point here, not a mistake
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

SEMIRINGS = [PLUS_TIMES, MIN_PLUS, MAX_TIMES, OR_AND]
THRESHOLDS = [0, 2, 4]
M, N, NT = 640, 320, 8
#: The compact regime runs below ``m / 32`` matched entries.
SWITCH = M // 32


def matrix(semiring, seed=3):
    """A random matrix with ±inf, NaN and -0.0 entries (bit patterns
    only for ``or_and``) and many near-empty tiles, so every threshold
    extracts a side part."""
    r = np.random.default_rng(seed)
    k = 3000
    rows, cols = r.integers(0, M, k), r.integers(0, N, k)
    if semiring is OR_AND:
        vals = r.integers(1, 1 << 20, k).astype(np.uint64)
    else:
        vals = r.standard_normal(k)
        u = r.random(k)
        vals[u < 0.03] = np.inf
        vals[(u >= 0.03) & (u < 0.05)] = -np.inf
        vals[(u >= 0.05) & (u < 0.06)] = np.nan
        vals[(u >= 0.06) & (u < 0.12)] = -0.0
    return COOMatrix((M, N), rows, cols, vals)


def special_values(semiring, k, r):
    """x values mixing ordinary numbers with the identity, -0.0, ±inf,
    NaN (random bit patterns, zeros included, for ``or_and``)."""
    if semiring is OR_AND:
        vals = r.integers(0, 1 << 20, k).astype(np.uint64)
        vals[r.random(k) < 0.2] = 0
        return vals
    vals = r.standard_normal(k)
    u = r.random(k)
    vals[u < 0.1] = semiring.add_identity
    vals[(u >= 0.1) & (u < 0.2)] = -0.0
    vals[(u >= 0.2) & (u < 0.25)] = np.inf
    vals[(u >= 0.25) & (u < 0.3)] = -np.inf
    vals[(u >= 0.3) & (u < 0.33)] = np.nan
    return vals


def near_switch(coo, target, r):
    """Columns of ``coo`` holding ``target`` entries in all, or as
    close to it from below as a greedy pick gets."""
    counts = np.bincount(coo.sum_duplicates().col, minlength=N)
    picked, total = [], 0
    for j in r.permutation(N):
        if counts[j] and total + counts[j] <= target:
            picked.append(j)
            total += counts[j]
    return np.sort(np.array(picked, dtype=np.int64))


def inputs(semiring, coo, seed=11):
    """Sparse vectors around the regime switch and across densities,
    one with integer values, and one whose indices were reversed after
    construction."""
    r = np.random.default_rng(seed)
    xs = []
    for target in (SWITCH - 1, SWITCH, SWITCH + 1, 4 * SWITCH):
        idx = near_switch(coo, target, r)
        # plain values: every matched entry is a product
        vals = (r.integers(1, 1 << 20, len(idx)).astype(np.uint64)
                if semiring is OR_AND else 0.5 + r.random(len(idx)))
        xs.append(SparseVector(N, idx, vals))
        xs.append(SparseVector(N, idx, special_values(semiring, len(idx),
                                                      r)))
    for k in (0, 1, 5, N // 8, N):
        idx = np.sort(r.choice(N, size=k, replace=False))
        xs.append(SparseVector(N, idx, special_values(semiring, k, r)))
    idx = np.sort(r.choice(N, size=N // 6, replace=False))
    xs.append(SparseVector(N, idx, r.integers(-3, 4, len(idx))))
    mutated = SparseVector(N, idx.copy(), special_values(semiring,
                                                         len(idx), r))
    mutated.indices = mutated.indices[::-1].copy()
    mutated.values = mutated.values[::-1].copy()
    xs.append(mutated)
    return xs


def composition(op, x, form="csr"):
    """The two-kernel composition: one tiled form, then the COO side
    kernel into the same dense accumulator."""
    sr = op.semiring
    xt = as_tiled_vector(x, op.nt, float(sr.add_identity), dtype=sr.dtype)
    if form == "csc":
        y, _ = csc_tiled_kernel(op._transposed(), xt, semiring=sr)
    else:
        y, _ = tiled_kernel(op.hybrid.tiled, xt, semiring=sr)
    if op.hybrid.side.nnz:
        y, _ = coo_side_kernel(op._side_index, xt, semiring=sr,
                               y_dense=y)
    return y


def bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.tobytes()


def assert_same(got, want):
    assert type(got) is type(want)
    if isinstance(want, SparseVector):
        assert got.n == want.n
        assert bits(got.indices) == bits(want.indices)
        assert bits(got.values) == bits(want.values)
        assert bits(got.values.view(np.int64)) == \
            bits(want.values.view(np.int64))
    elif isinstance(want, TiledVector):
        assert bits(got.x_ptr) == bits(want.x_ptr)
        assert bits(got.x_tile) == bits(want.x_tile)
    else:
        assert bits(got) == bits(want)


def expected(op, x, output, mask=None, complement=False, form="csr"):
    sr = op.semiring
    y = composition(op, x, form)
    if mask is not None:
        y = apply_output_mask(y, mask, complement, sr, ExecutionContext())
    if output == "dense":
        return y
    sv = sparsify(y, sr)
    if output == "sparse":
        return sv
    return TiledVector.from_sparse(sv.indices, sv.values, sv.n, op.nt,
                                   fill=float(sr.add_identity),
                                   dtype=sr.dtype)


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
def test_multiply_matches_composition(semiring, threshold):
    coo = matrix(semiring)
    xs = inputs(semiring, coo)
    r = np.random.default_rng(5)
    keep = np.sort(r.choice(M, size=M // 3, replace=False))
    mask = SparseVector(M, keep, np.ones(len(keep)))
    cache = PlanCache()
    for mode in ("csr", "csc", "adaptive"):
        op = TileSpMSpV(coo, nt=NT, extract_threshold=threshold,
                        semiring=semiring, mode=mode, plan_cache=cache)
        if threshold:
            assert op.hybrid.side.nnz, "the side part must be exercised"
        form = "csc" if mode == "csc" else "csr"
        for x in xs:
            for output in ("sparse", "tiled", "dense"):
                assert_same(op.multiply(x, output=output),
                            expected(op, x, output, form=form))
                assert_same(op.multiply(x, output=output, mask=mask),
                            expected(op, x, output, mask, form=form))
            assert_same(
                op.multiply(x, mask=mask, mask_complement=True),
                expected(op, x, "sparse", mask, True, form=form))


@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
def test_csr_and_csc_compositions_agree(semiring):
    """The two tiled forms fold every row in ascending column order, so
    the host product may serve both."""
    coo = matrix(semiring)
    op = TileSpMSpV(coo, nt=NT, extract_threshold=2, semiring=semiring,
                    plan_cache=PlanCache())
    for x in inputs(semiring, coo):
        assert_same(composition(op, x, "csc"), composition(op, x, "csr"))


@pytest.mark.parametrize("threshold", THRESHOLDS)
@pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
def test_batch_matches_composition(semiring, threshold):
    coo = matrix(semiring)
    xs = inputs(semiring, coo)
    op = BatchedSpMSpV(coo, nt=NT, extract_threshold=threshold,
                       semiring=semiring, plan_cache=PlanCache())
    got = op.multiply_batch(xs)
    Y = op.multiply_batch(xs, output="dense")
    for b, x in enumerate(xs):
        assert_same(got[b], expected(op, x, "sparse"))
        assert_same(Y[b], expected(op, x, "dense"))


def test_batch_over_a_matrix_without_rows():
    empty = np.zeros(0, dtype=np.int64)
    coo = COOMatrix((0, N), empty, empty, np.zeros(0))
    op = BatchedSpMSpV(coo, nt=NT, plan_cache=PlanCache())
    xs = [SparseVector(N, np.array([1, 5]), np.array([1.0, 2.0]))] * 2
    assert op.multiply_batch(xs, output="dense").shape == (2, 0)
    assert [y.nnz for y in op.multiply_batch(xs)] == [0, 0]
    Y, _ = batched_union_kernel(op.hybrid.tiled,
                                [as_tiled_vector(x, NT, 0.0) for x in xs])
    assert Y.shape == (2, 0)


def test_dense_and_tiled_inputs_match_sparse():
    coo = matrix(MIN_PLUS)
    op = TileSpMSpV(coo, nt=NT, semiring=MIN_PLUS, plan_cache=PlanCache())
    for x in inputs(MIN_PLUS, coo)[:-1]:
        want = op.multiply(x)
        xt = as_tiled_vector(x, NT, np.inf)
        assert_same(op.multiply(xt), want)
        assert_same(op.multiply(xt.to_dense()), want)


# ----------------------------------------------------------------------
# timelines: the launches a multiply sequence records do not move
# ----------------------------------------------------------------------
def records(device):
    return [(r.name, r.tag, r.counters, r.ms) for r in device.timeline]


def part_timeline(op, xs, form, mask=None):
    """The launches of the part kernels run counters-on, in multiply
    order: the tiled form, the COO side, and the mask."""
    sr = op.semiring
    dev = Device()
    name = {"csr": "tile_spmspv_csr", "csc": "tile_spmspv_csc"}[form]
    for x in xs:
        xt = as_tiled_vector(x, op.nt, float(sr.add_identity),
                             dtype=sr.dtype)
        if form == "csc":
            y, c = csc_tiled_kernel(op._transposed(), xt, semiring=sr)
        else:
            y, c = tiled_kernel(op.hybrid.tiled, xt, semiring=sr)
        dev.submit(name, c)
        if op.hybrid.side.nnz:
            _, c = coo_side_kernel(op._side_index, xt, semiring=sr,
                                   y_dense=y)
            dev.submit("tile_spmspv_coo_side", c)
        if mask is not None:
            ctx = ExecutionContext(dev, operator="tilespmspv")
            apply_output_mask(y, mask, False, sr, ctx)
    return records(dev)


@pytest.mark.parametrize("semiring", [PLUS_TIMES, OR_AND],
                         ids=lambda s: s.name)
@pytest.mark.parametrize("form", ["csr", "csc"])
def test_timeline_matches_part_kernels(form, semiring):
    coo = matrix(semiring)
    xs = inputs(semiring, coo)
    keep = np.arange(0, M, 3)
    mask = SparseVector(M, keep, np.ones(len(keep)))
    for m in (None, mask):
        want = part_timeline(TileSpMSpV(coo, nt=NT, semiring=semiring,
                                        plan_cache=PlanCache()),
                             xs, form, m)
        dev = Device()
        op = TileSpMSpV(coo, nt=NT, semiring=semiring, mode=form,
                        device=dev, plan_cache=PlanCache())
        prod = ExecutionContext(mode="production")
        op_prod = TileSpMSpV(coo, nt=NT, semiring=semiring, mode=form,
                             device=prod, plan_cache=PlanCache())
        for x in xs:
            op.multiply(x, mask=m)
            op_prod.multiply(x, mask=m)
        assert records(dev) == want
        assert records(prod.replay()) == want


def test_batched_timeline_matches_part_kernels():
    coo = matrix(PLUS_TIMES)
    xs = inputs(PLUS_TIMES, coo)
    op = BatchedSpMSpV(coo, nt=NT, plan_cache=PlanCache())
    assert op.hybrid.side.nnz
    dev = Device()
    xts = [as_tiled_vector(x, NT, 0.0) for x in xs]
    Y, c = batched_union_kernel(op.hybrid.tiled, xts)
    dev.submit("batched_spmspv_union", c, "b=1")
    for y, xt in zip(Y, xts):
        _, c = coo_side_kernel(op._side_index, xt, y_dense=y)
        dev.submit("batched_spmspv_coo_side", c, "b=1")
    want = records(dev)

    dev = Device()
    BatchedSpMSpV(coo, nt=NT, device=dev,
                  plan_cache=PlanCache()).multiply_batch(xs, tag="b=1")
    assert records(dev) == want
    prod = ExecutionContext(mode="production")
    BatchedSpMSpV(coo, nt=NT, device=prod,
                  plan_cache=PlanCache()).multiply_batch(xs, tag="b=1")
    assert records(prod.replay()) == want
