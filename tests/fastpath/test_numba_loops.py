"""Logic tests for the loop-level fused kernels on tiny inputs.

The ``_py`` originals stay exported precisely so the loop logic is
testable where Numba is absent: each loop must produce the exact words
of its reference kernel / vectorized twin.  When the ``fastpath`` extra
is installed the compiled wrappers are additionally checked against the
same references (the loops themselves — `cache=True`-compiled — are
what the Numba CI leg runs everywhere else).
"""

import numpy as np
import pytest

from repro.core import (reference_msbfs_expand, reference_pull_csc_kernel,
                        reference_push_csc_kernel,
                        reference_push_csr_kernel)
from repro.core.tilebfs import TileBFS
from repro.fastpath import numba_available
from repro.fastpath import numba_kernels as nb
from repro.fastpath.fused_layers import FusedBFSLayout, fused_side
from repro.tiles import BitVector

from ..conftest import random_graph_coo


def fixture(nt=8, extract_threshold=0, seed=4):
    coo = random_graph_coo(96, avg_degree=4.0, seed=seed)
    op = TileBFS(coo, nt=nt, extract_threshold=extract_threshold)
    layout = FusedBFSLayout(op.A1, op.A2, op.side, op.n, op.nt)
    rng = np.random.default_rng(seed + 1)
    fr = np.sort(rng.choice(op.n, size=12, replace=False))
    x = BitVector.from_indices(fr, op.n, nt)
    m = BitVector.from_indices(
        rng.choice(op.n, size=30, replace=False), op.n, nt)
    m |= x
    return op, layout, fr, x, m


#: (exported-name, py-name) pairs — the exported name is the compiled
#: wrapper when Numba is present, the plain loop otherwise.
VARIANTS = ["py"] + (["compiled"] if nb.NUMBA_COMPILED else [])


def kernel(variant, name):
    return getattr(nb, name if variant == "compiled" else f"_{name}_py")


def test_numba_compiled_flag_matches_probe():
    assert nb.NUMBA_COMPILED == numba_available()


@pytest.mark.parametrize("variant", VARIANTS)
def test_push_gather_masked_loop(variant):
    op, layout, fr, x, m = fixture()
    y = BitVector.zeros(op.n, op.nt)
    kernel(variant, "push_gather_masked")(
        op.A1.tile_ptr, op.A1.tile_otheridx, op.A1.words, op.nt,
        fr, m.words, y.words)
    assert np.array_equal(
        y.words, reference_push_csc_kernel(op.A1, x, m)[0].words)


@pytest.mark.parametrize("variant", VARIANTS)
def test_push_sweep_loop(variant):
    op, layout, fr, x, m = fixture()
    y = BitVector.zeros(op.n, op.nt)
    kernel(variant, "push_sweep")(
        op.A2.words, op.A2.tile_otheridx, op.A2.tile_majoridx(), op.nt,
        x.words, y.words)
    y.words &= ~m.words
    assert np.array_equal(
        y.words, reference_push_csr_kernel(op.A2, x, m)[0].words)

    # the loop accumulates into y; the vectorized sweep assigns — both
    # must agree on a cleared result vector
    y2 = BitVector.zeros(op.n, op.nt)
    layout.sweep(x.words, y2)
    y2.words &= ~m.words
    assert np.array_equal(y.words, y2.words)


@pytest.mark.parametrize("variant", VARIANTS)
def test_pull_columns_loop(variant):
    op, layout, fr, x, m = fixture()
    y = BitVector.zeros(op.n, op.nt)
    inv_words = op.A1.full_mask_words() & ~m.words
    kernel(variant, "pull_columns")(
        op.A1.tile_ptr, op.A1.tile_otheridx, op.A1.words, op.nt,
        m.words, inv_words, y.words)
    assert np.array_equal(
        y.words, reference_pull_csc_kernel(op.A1, x, m)[0].words)


@pytest.mark.parametrize("variant", VARIANTS)
def test_side_push_loop(variant):
    op, layout, fr, x, m = fixture(extract_threshold=3, seed=9)
    assert layout.side_nnz > 0
    y = BitVector.zeros(op.n, op.nt)
    kernel(variant, "side_push")(
        layout.side_indptr, layout.side_dst_word, layout.side_dst_bit,
        fr, m.words, y.words)
    y_ref = BitVector.zeros(op.n, op.nt)
    fused_side(layout, fr, m, y_ref, want_stats=False, use_numba=False)
    assert np.array_equal(y.words, y_ref.words)


@pytest.mark.parametrize("variant", VARIANTS)
def test_msbfs_expand_words_loop(variant):
    coo = random_graph_coo(150, avg_degree=5.0, seed=8)
    csc = coo.to_csc()
    rng = np.random.default_rng(13)
    frontier = np.zeros(150, dtype=np.uint64)
    active = rng.choice(150, size=25, replace=False)
    frontier[active] = rng.integers(1, 2**63, size=25, dtype=np.uint64)
    next_words = np.zeros(150, dtype=np.uint64)
    n_active, n_edges = kernel(variant, "msbfs_expand_words")(
        csc.indptr, csc.indices, frontier, next_words)
    ref_w, ref_a, ref_e = reference_msbfs_expand(csc, frontier)
    assert np.array_equal(next_words, ref_w)
    assert (n_active, n_edges) == (ref_a, ref_e)
