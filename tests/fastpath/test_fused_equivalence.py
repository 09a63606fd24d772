"""Byte-identity of the fused layer loop against the seed loop.

For every graph, tile size, frontier density, kernel, and regime, a
TileBFS traversal must return the same levels and the same per-layer
trace (kernel selection, frontier sizes, newly claimed vertices) as the
seed layer loop over the oracle kernels (``seed_tilebfs``) — and each
fused layer kernel must produce the exact result words of its seed
kernel in :mod:`repro.core.reference_bfs_kernels`.  The grid runs
under every kernel implementation present (the vectorized NumPy
fallback always; the Numba loops when the ``fastpath`` extra is
installed).
"""

import numpy as np
import pytest

from repro.core import bfs_kernels
from repro.core.reference_bfs_kernels import (reference_pull_csc_kernel,
                                              reference_push_csc_kernel,
                                              reference_push_csr_kernel)
from repro.core.selection import (PULL_CSC, PUSH_CSC, PUSH_CSR,
                                  KernelSelector)
from repro.core.tilebfs import TileBFS
from repro.fastpath import FASTPATH_ENV, fastpath_tier, numba_available
from repro.fastpath import fused_bfs, fused_layers
from repro.fastpath.fused_layers import (FusedBFSLayout, fused_pull_csc,
                                         fused_push_csc, fused_push_csr,
                                         fused_side)
from repro.tiles import BitVector

from ..conftest import random_coo, random_graph_coo, seed_tilebfs

#: Tier implementations testable in this environment.
TIERS = ["numpy"] + (["numba"] if numba_available() else [])


def graph(symmetric, n=230, seed=3):
    if symmetric:
        return random_graph_coo(n, avg_degree=5.0, seed=seed)
    return random_coo(n, n, density=0.04, seed=seed)


def assert_matches_seed(op, sources, max_depth=None):
    """One traversal of ``op`` against the seed loop: levels and the
    per-layer ``(kernel, frontier_size, new_vertices)`` trace."""
    got = op.run_multi(sources, max_depth=max_depth)
    levels, trace = seed_tilebfs(op, sources, max_depth=max_depth)
    assert np.array_equal(got.levels, levels)
    assert [(it.kernel, it.frontier_size, it.new_vertices)
            for it in got.iterations] == [t[:3] for t in trace]


def assert_equivalent(coo, sources, nt=16, **sel_kwargs):
    op = TileBFS(coo, nt=nt, selector=KernelSelector(**sel_kwargs))
    for s in sources:
        assert_matches_seed(op, [s])


# ----------------------------------------------------------------------
# end-to-end traversal grid
# ----------------------------------------------------------------------
@pytest.mark.parametrize("env_tier", TIERS)
@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("nt", [16, 64])
def test_end_to_end_grid(monkeypatch, env_tier, symmetric, nt):
    monkeypatch.setenv(FASTPATH_ENV, env_tier)
    coo = graph(symmetric)
    assert_equivalent(coo, [0, 7, 101], nt=nt)


@pytest.mark.parametrize("env_tier", TIERS)
@pytest.mark.parametrize("kernel", [PUSH_CSC, PUSH_CSR, PULL_CSC])
@pytest.mark.parametrize("symmetric", [True, False])
def test_forced_kernel_grid(monkeypatch, env_tier, kernel, symmetric):
    """Every kernel driven across a whole traversal (the directed case
    exercises the Pull-CSC -> Push-CSR symmetry fallback)."""
    monkeypatch.setenv(FASTPATH_ENV, env_tier)
    coo = graph(symmetric, seed=9)
    assert_equivalent(coo, [0, 42], forced=kernel)


@pytest.mark.parametrize("env_tier", TIERS)
@pytest.mark.parametrize("factors", [(0, 0), (10**9, 10**9)])
def test_forced_regimes(monkeypatch, env_tier, factors):
    """Both Push-CSR host regimes (bit gather / streaming sweep) and
    both Pull-CSC regimes (word / vertex level) must stay equivalent,
    not just whichever the cost rule picks."""
    bg, pw = factors
    monkeypatch.setenv(FASTPATH_ENV, env_tier)
    monkeypatch.setattr(fused_layers, "BIT_GATHER_FACTOR", bg)
    for mod in (bfs_kernels, fused_layers):
        monkeypatch.setattr(mod, "PULL_WORD_COST_FACTOR", pw)
    coo = graph(True, seed=5)
    assert_equivalent(coo, [0, 11], forced=PUSH_CSR)
    assert_equivalent(coo, [0, 11], forced=PULL_CSC)


def test_multi_source_and_max_depth(monkeypatch):
    monkeypatch.setenv(FASTPATH_ENV, "numpy")
    op = TileBFS(graph(True, seed=13), nt=16)
    assert_matches_seed(op, [0, 5, 77])
    for d in (0, 1, 2):
        assert_matches_seed(op, [3], max_depth=d)


@pytest.mark.parametrize("extract_threshold", [0, 2, 5])
def test_extraction_thresholds(monkeypatch, extract_threshold):
    """Side-edge extraction changes what the sweep folds in — every
    threshold (none / default / aggressive) must stay equivalent."""
    monkeypatch.setenv(FASTPATH_ENV, "numpy")
    coo = random_graph_coo(170, avg_degree=3.0, seed=21)
    op = TileBFS(coo, nt=8, extract_threshold=extract_threshold)
    for s in (0, 60):
        assert_matches_seed(op, [s])


# ----------------------------------------------------------------------
# layer-kernel byte identity (side-free plans: the seed kernels know
# nothing about extracted side edges)
# ----------------------------------------------------------------------
def side_free_fixture(nt, seed=3):
    coo = random_graph_coo(210, avg_degree=5.0, seed=seed)
    op = TileBFS(coo, nt=nt, extract_threshold=0)
    assert op.side.nnz == 0
    layout = FusedBFSLayout(op.A1, op.A2, op.side, op.n, op.nt)
    return op, layout


def vectors(n, nt, frontier_density, seed):
    rng = np.random.default_rng(seed)
    k = max(1, int(round(n * frontier_density)))
    fr = np.sort(rng.choice(n, size=k, replace=False))
    x = BitVector.from_indices(fr, n, nt)
    m = BitVector.from_indices(
        rng.choice(n, size=min(n, 2 * k), replace=False), n, nt)
    m |= x
    return fr, x, m


@pytest.mark.parametrize("env_tier", TIERS)
@pytest.mark.parametrize("nt", [8, 16, 64])
@pytest.mark.parametrize("fd", [0.01, 0.1, 0.5, 0.95])
def test_layer_kernels_byte_identical(monkeypatch, env_tier, nt, fd):
    monkeypatch.setenv(FASTPATH_ENV, env_tier)
    use_numba = fastpath_tier() == "numba"
    op, layout = side_free_fixture(nt)
    fr, x, m = vectors(op.n, nt, fd, seed=11)

    y = BitVector.zeros(op.n, nt)
    fused_push_csc(layout, fr, m, y, use_numba)
    assert np.array_equal(
        y.words, reference_push_csc_kernel(op.A1, x, m)[0].words)

    y.clear()
    fused_push_csr(layout, fr, x, m, y, use_numba)
    assert np.array_equal(
        y.words, reference_push_csr_kernel(op.A2, x, m)[0].words)

    y.clear()
    fused_pull_csc(layout, m, y, use_numba)
    assert np.array_equal(
        y.words, reference_pull_csc_kernel(op.A1, x, m)[0].words)


@pytest.mark.parametrize("factors", [(0, 0), (10**9, 10**9)])
def test_layer_kernels_forced_regimes(monkeypatch, factors):
    bg, pw = factors
    monkeypatch.setattr(fused_layers, "BIT_GATHER_FACTOR", bg)
    monkeypatch.setattr(fused_layers, "PULL_WORD_COST_FACTOR", pw)
    op, layout = side_free_fixture(16, seed=7)
    for fd in (0.02, 0.4):
        fr, x, m = vectors(op.n, 16, fd, seed=int(fd * 100))
        y = BitVector.zeros(op.n, 16)
        fused_push_csr(layout, fr, x, m, y, use_numba=False)
        assert np.array_equal(
            y.words, reference_push_csr_kernel(op.A2, x, m)[0].words)
        y.clear()
        fused_pull_csc(layout, m, y, use_numba=False)
        assert np.array_equal(
            y.words, reference_pull_csc_kernel(op.A1, x, m)[0].words)


@pytest.mark.parametrize("n, degree, nt, extract_threshold", [
    (400, 4.0, 16, 2),      # side edges folded into the sweep
    (1000, 6.0, 64, 0),     # side-free plan
])
def test_numpy_tier_sweeps_where_reference_gathers(n, degree, nt,
                                                   extract_threshold):
    """A layer the reference rule sends to the bit gather still takes
    the compressed sweep in the NumPy tier: the sweep applies the side
    edges itself (returns True), and the words equal the reference
    Push-CSR result OR a per-edge side oracle.  ``fused_side`` alone
    must reproduce that oracle's words and its two counter
    determinants (edges leaving the frontier, edges claimed)."""
    coo = random_graph_coo(n, avg_degree=degree, seed=21)
    op = TileBFS(coo, nt=nt, extract_threshold=extract_threshold)
    assert (op.side.nnz > 0) == (extract_threshold > 0)
    layout = FusedBFSLayout(op.A1, op.A2, op.side, op.n, op.nt)
    fr, x, m = vectors(op.n, nt, 0.1, seed=1)
    A1v = op.A2.column_view()
    cols = np.flatnonzero(x.words)
    counts = A1v.tile_ptr[cols + 1] - A1v.tile_ptr[cols]
    n_bits = int((counts * np.bitwise_count(x.words[cols])).sum())
    assert (fused_layers.BIT_GATHER_FACTOR * n_bits
            <= op.A2.n_nonempty_tiles * op.nt)

    # per-edge oracle of the side pass: every side edge leaving the
    # frontier is active, and claims its destination when unvisited
    src_active = np.isin(op.side.col, fr)
    rows = op.side.row[src_active]
    claimed = rows[~np.isin(rows, m.to_indices())]
    side_words = BitVector.from_indices(claimed, op.n, nt).words

    y = BitVector.zeros(op.n, nt)
    assert fused_push_csr(layout, fr, x, m, y, use_numba=False) is True
    want = reference_push_csr_kernel(op.A2, x, m)[0].words | side_words
    assert np.array_equal(y.words, want)

    y_side = BitVector.zeros(op.n, nt)
    stats = fused_side(layout, fr, m, y_side, want_stats=True)
    assert stats == (int(src_active.sum()), len(claimed))
    assert np.array_equal(y_side.words, side_words)


def test_sweep_folds_side_edges():
    """The compressed sweep must carry one single-bit word per extracted
    side edge in addition to the stored A2 words, and the sweep result
    must then equal reference-push OR reference-side."""
    coo = random_graph_coo(170, avg_degree=3.0, seed=21)
    op = TileBFS(coo, nt=8, extract_threshold=3)
    assert op.side.nnz > 0
    layout = FusedBFSLayout(op.A1, op.A2, op.side, op.n, op.nt)
    assert len(layout.sweep_words) == (
        int(np.count_nonzero(op.A2.words)) + op.side.nnz)
    assert layout.side_nnz == op.side.nnz


def test_fused_side_stats_without_scatter():
    """``want_stats`` + ``scatter=False`` (the folded-sweep production
    path) must return the side kernel's counter determinants without
    touching the result."""
    coo = random_graph_coo(170, avg_degree=3.0, seed=21)
    op = TileBFS(coo, nt=8, extract_threshold=3)
    layout = FusedBFSLayout(op.A1, op.A2, op.side, op.n, op.nt)
    fr, x, m = vectors(op.n, 8, 0.3, seed=2)
    y = BitVector.zeros(op.n, 8)
    y_scatter = BitVector.zeros(op.n, 8)
    stats = fused_side(layout, fr, m, y, want_stats=True, scatter=False)
    stats2 = fused_side(layout, fr, m, y_scatter, want_stats=True,
                        scatter=True)
    assert stats == stats2
    assert not y.words.any()
    n_src_active, n_claimed = stats
    assert n_src_active >= n_claimed >= int(
        np.count_nonzero(y_scatter.words & ~m.words))


# ----------------------------------------------------------------------
# kernel resolution / the one loop
# ----------------------------------------------------------------------
def test_tier_resolution(monkeypatch):
    expect_auto = "numba" if numba_available() else "numpy"
    for env, want in (("off", expect_auto), ("numpy", "numpy"),
                      ("auto", expect_auto), ("numba", expect_auto),
                      ("  NumPy ", "numpy"), ("bogus", expect_auto)):
        monkeypatch.setenv(FASTPATH_ENV, env)
        assert fastpath_tier() == want
    monkeypatch.delenv(FASTPATH_ENV)
    assert fastpath_tier() == expect_auto


def test_every_mode_runs_the_one_loop(monkeypatch):
    """Functional, counters-on and production runs all take the fused
    loop, looked up in its module at call time."""
    from repro.gpusim import Device
    from repro.runtime import ExecutionContext
    calls = []
    real = fused_bfs.run_fused

    def counting(*args, **kwargs):
        calls.append(args[0].ctx.mode)
        return real(*args, **kwargs)

    monkeypatch.setattr(fused_bfs, "run_fused", counting)
    coo = random_graph_coo(64, avg_degree=4.0, seed=1)
    for device in (None, Device(), ExecutionContext(mode="production")):
        TileBFS(coo, nt=8, device=device).run(0)
    assert calls == ["modeled", "modeled", "production"]


def test_sharded_matrix_falls_back(monkeypatch, tmp_path):
    """Sharded matrices run their own level loop (sharded pattern
    multiplies), and it must still produce the in-core levels."""
    from repro.shards.sharded_matrix import ShardedTiledMatrix
    monkeypatch.setenv(FASTPATH_ENV, "numpy")
    coo = random_graph_coo(120, avg_degree=4.0, seed=3)
    sm = ShardedTiledMatrix.from_coo(coo, nt=16, n_shards=3,
                                     store_dir=tmp_path)
    got = TileBFS(sm).run(0)
    assert {it.kernel for it in got.iterations} == {"sharded_push"}
    ref = TileBFS(coo, nt=16).run(0)
    assert np.array_equal(got.levels, ref.levels)
