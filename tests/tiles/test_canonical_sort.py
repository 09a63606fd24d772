"""One canonical sort per plan: every format array is byte-identical to
its one-sort-per-format reference (:mod:`.reference_formats`), and a
cold BFS plan sorts only what its design says it sorts."""

import numpy as np
import pytest

from repro.core.spmspv import TileSpMSpV
from repro.core.tilebfs import TileBFS
from repro.fastpath import fused_layers
from repro.fastpath.fused_bfs import bfs_layout
from repro.formats.coo import COOMatrix
from repro.matrices import erdos_renyi, fem_like, rmat, road_network
from repro.runtime import PlanCache
from repro.tiles import tiled_matrix
from repro.tiles.extraction import split_very_sparse_tiles

from ..conftest import random_coo
from . import reference_formats as ref


def _with_duplicates() -> COOMatrix:
    g = erdos_renyi(150, 6.0, seed=3)
    rng = np.random.default_rng(3)
    dup = rng.choice(g.nnz, size=g.nnz // 3, replace=False)
    rows = np.concatenate([g.row, g.row[dup]])
    cols = np.concatenate([g.col, g.col[dup]])
    perm = rng.permutation(len(rows))
    return COOMatrix(g.shape, rows[perm], cols[perm],
                     np.ones(len(rows))[perm])


#: (name, matrix factory, extraction threshold)
CASES = [
    ("rmat", lambda: rmat(9, 8, seed=1), 2),
    ("erdos_renyi", lambda: erdos_renyi(300, 5.0, seed=2), 2),
    ("road_network", lambda: road_network(18, seed=3), 2),
    ("fem_like", lambda: fem_like(256, nnz_per_row=12, seed=4), 2),
    ("directed", lambda: rmat(9, 8, seed=5, symmetric=False), 2),
    ("duplicates", _with_duplicates, 2),
    ("empty", lambda: COOMatrix.empty((70, 70)), 2),
    ("threshold0", lambda: rmat(9, 8, seed=6), 0),
    ("threshold0_directed",
     lambda: random_coo(130, 130, density=0.05, seed=7), 0),
]


def _same(got, want):
    assert got.dtype == want.dtype, (got.dtype, want.dtype)
    assert np.array_equal(got, want)


def _same_bits(bm, want):
    for name in ("tile_ptr", "tile_otheridx", "words"):
        _same(getattr(bm, name), want[name])


@pytest.mark.parametrize("nt", [16, 32, 64])
@pytest.mark.parametrize("name,make,threshold", CASES,
                         ids=[c[0] for c in CASES])
class TestByteIdentity:
    def test_hybrid_tiling_side_and_entry_index(self, name, make,
                                                threshold, nt):
        coo = make()
        hybrid = split_very_sparse_tiles(coo, nt, threshold)
        dense, side = ref.split(coo, nt, threshold)
        for key, want in ref.tiling(dense, nt).items():
            _same(getattr(hybrid.tiled, key), want)
        for key in ("row", "col", "val"):
            _same(getattr(hybrid.side, key), getattr(side, key))
        op = TileSpMSpV(coo, nt=nt, extract_threshold=threshold,
                        plan_cache=PlanCache())
        entries = op.hybrid.entry_index()
        for key, want in ref.entry_index(dense, side, nt).items():
            _same(getattr(entries, key), want)

    def test_bfs_plan_and_layout(self, name, make, threshold, nt):
        coo = make()
        op = TileBFS(coo, nt=nt, extract_threshold=threshold,
                     plan_cache=PlanCache())
        want = ref.bfs_plan(coo, nt, threshold)
        _same_bits(op.A1, want["A1"])
        _same_bits(op.A2, want["A2"])
        assert op.A1.orientation == "csc" and op.A2.orientation == "csr"
        assert op.symmetric is want["symmetric"]
        assert op.A2.shares_storage_with(op.A1) is want["symmetric"]
        assert op.nnz == want["nnz"]
        for key in ("row", "col"):
            _same(getattr(op.side, key), getattr(want["side"], key))

        layout = bfs_layout(op)
        wl = ref.fused_layout(want["A2"], want["side"], op.n, nt)
        for key in ("sweep_words", "sweep_ctile", "sweep_bit",
                    "side_dst_word", "side_dst_bit", "side_indptr"):
            _same(getattr(layout, key), wl[key])
        rtile = [np.repeat(rt, np.diff(np.append(seg, sl.stop - sl.start)))
                 for sl, seg, rt in layout.sweep_chunks]
        _same(np.concatenate(rtile) if rtile
              else np.zeros(0, dtype=np.int64), wl["sweep_rtile"])


def test_cases_cover_both_symmetries():
    """The grid holds symmetric and directed dense parts, with and
    without side edges."""
    seen = set()
    for _, make, threshold in CASES:
        plan = ref.bfs_plan(make(), 32, threshold)
        seen.add((plan["symmetric"], plan["side"].nnz > 0))
    assert {(True, True), (False, True), (True, False),
            (False, False)} <= seen


# ----------------------------------------------------------------------
# sorts of one cold plan
# ----------------------------------------------------------------------
def _counting(monkeypatch, calls, owner, name, label):
    orig = getattr(owner, name)

    def wrapper(*args, **kwargs):
        calls[label] += 1
        return orig(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)


@pytest.mark.parametrize("directed", [False, True])
def test_cold_bfs_plan_sorts(monkeypatch, directed):
    """A cold TileBFS plan plus its fused layout makes one permutation
    of all entries (the tile order) and one of the side edges (their
    column index), and sorts one key array (the transposed tile-order
    keys: the symmetry check, and for a directed graph A1's runs).  A
    directed graph sorts nothing more, and no comparison argsort
    runs."""
    coo = (rmat(9, 8, seed=9, symmetric=False) if directed
           else rmat(9, 8, seed=9)).sum_duplicates()
    calls = dict.fromkeys(["argsort", "lexsort", "sort", "tile order",
                           "side column order"], 0)
    for name in ("argsort", "lexsort", "sort"):
        _counting(monkeypatch, calls, np, name, name)
    _counting(monkeypatch, calls, tiled_matrix, "radix_argsort",
              "tile order")
    _counting(monkeypatch, calls, fused_layers, "radix_argsort",
              "side column order")
    op = TileBFS(coo, nt=16, plan_cache=PlanCache())
    bfs_layout(op)
    assert op.symmetric is not directed
    assert op.side.nnz > 0
    assert calls == {"argsort": 0, "lexsort": 0, "sort": 1,
                     "tile order": 1, "side column order": 1}


def test_tilebfs_nnz_counts_canonical_entries():
    """Duplicate COO entries count once, with and without extraction,
    as they do for TileSpMSpV."""
    coo = COOMatrix((8, 8), np.array([0, 0, 1, 1, 5, 5]),
                    np.array([1, 1, 0, 0, 5, 5]), np.ones(6))
    assert TileSpMSpV(coo, plan_cache=PlanCache()).nnz == 3
    for threshold in (0, 2):
        op = TileBFS(coo, extract_threshold=threshold,
                     plan_cache=PlanCache())
        assert op.nnz == 3
        assert op.run(0).levels.tolist() == [0, 1, -1, -1, -1, -1, -1, -1]
