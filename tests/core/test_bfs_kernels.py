"""Kernel-level tests: each fused BFS layer kernel's single step must
equal the reference frontier expansion
``new = neighbours(frontier) - visited``, and each counter function
validates its operands and prices the active side."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import pull_csc_counters, push_csc_counters, push_csr_counters
from repro.core.tilebfs import TileBFS
from repro.errors import ShapeError
from repro.fastpath import fastpath_tier
from repro.fastpath.fused_bfs import bfs_layout
from repro.fastpath.fused_layers import (fused_pull_csc, fused_push_csc,
                                         fused_push_csr)
from repro.formats import COOMatrix
from repro.tiles import BitTiledMatrix, BitVector

from ..conftest import random_graph_coo


def reference_step(coo: COOMatrix, frontier: np.ndarray,
                   visited: np.ndarray) -> np.ndarray:
    """Unvisited out-neighbours of the frontier (dense oracle)."""
    d = coo.to_dense() != 0
    reached = d[:, frontier].any(axis=1)
    return np.flatnonzero(reached & ~visited)


def setup(n=60, nt=4, seed=0, avg_degree=4.0):
    coo = random_graph_coo(n, avg_degree, seed)
    a1 = BitTiledMatrix.from_coo(coo, nt, "csc")
    a2 = BitTiledMatrix.from_coo(coo, nt, "csr")
    return coo, a1, a2


def fused_step(op, kernel, frontier, x, m):
    """One layer of ``kernel`` through the fused layer kernel of the
    plan's layout (side-free plans, so the result is the tiled part)."""
    layout = bfs_layout(op)
    use_numba = fastpath_tier() == "numba"
    y = BitVector.zeros(op.n, op.nt)
    if kernel is fused_push_csr:
        kernel(layout, frontier, x, m, y, use_numba)
    elif kernel is fused_push_csc:
        kernel(layout, frontier, m, y, use_numba)
    else:
        kernel(layout, m, y, use_numba)
    return y


def step_case():
    return st.tuples(st.integers(4, 60), st.sampled_from([2, 4, 16, 32]),
                     st.integers(0, 10**5), st.floats(0.05, 0.6),
                     st.floats(0.0, 0.8))


class TestKernelsAgree:
    @given(step_case())
    @settings(max_examples=40, deadline=None)
    def test_all_three_match_reference(self, params):
        n, nt, seed, fdens, vdens = params
        coo = random_graph_coo(n, 4.0, seed)
        op = TileBFS(coo, nt=nt, extract_threshold=0)
        rng = np.random.default_rng(seed + 1)
        frontier = np.flatnonzero(rng.random(n) < fdens)
        if len(frontier) == 0:
            frontier = np.array([0])
        visited_extra = np.flatnonzero(rng.random(n) < vdens)
        visited_idx = np.union1d(frontier, visited_extra)
        x = BitVector.from_indices(frontier, n, nt)
        m = BitVector.from_indices(visited_idx, n, nt)
        visited_mask = np.zeros(n, dtype=bool)
        visited_mask[visited_idx] = True
        expected = reference_step(coo, frontier, visited_mask)

        y1 = fused_step(op, fused_push_csc, frontier, x, m)
        y2 = fused_step(op, fused_push_csr, frontier, x, m)
        assert np.array_equal(y1.to_indices(), expected)
        assert np.array_equal(y2.to_indices(), expected)

    @given(step_case())
    @settings(max_examples=40, deadline=None)
    def test_pull_finds_vertices_adjacent_to_visited(self, params):
        """Pull-CSC claims every unvisited vertex with a *visited*
        parent (its frontier is implicitly ~m, per Alg. 7)."""
        n, nt, seed, fdens, vdens = params
        coo = random_graph_coo(n, 4.0, seed)
        op = TileBFS(coo, nt=nt, extract_threshold=0)
        rng = np.random.default_rng(seed + 2)
        visited_idx = np.flatnonzero(rng.random(n) < max(0.05, vdens))
        if len(visited_idx) == 0:
            visited_idx = np.array([0])
        m = BitVector.from_indices(visited_idx, n, nt)
        x = BitVector.from_indices(visited_idx, n, nt)  # unused by pull
        visited_mask = np.zeros(n, dtype=bool)
        visited_mask[visited_idx] = True
        expected = reference_step(coo, visited_idx, visited_mask)
        y3 = fused_step(op, fused_pull_csc, visited_idx, x, m)
        assert np.array_equal(y3.to_indices(), expected)


class TestValidation:
    def test_push_csc_requires_csc(self):
        _, a1, a2 = setup()
        x = BitVector.zeros(60, 4)
        with pytest.raises(ShapeError):
            push_csc_counters(a2, x, x)

    def test_push_csr_requires_csr(self):
        _, a1, _ = setup()
        x = BitVector.zeros(60, 4)
        with pytest.raises(ShapeError):
            push_csr_counters(a1, x, x)

    def test_pull_requires_csc(self):
        _, _, a2 = setup()
        x = BitVector.zeros(60, 4)
        with pytest.raises(ShapeError):
            pull_csc_counters(a2, x, x)

    def test_rejects_tile_size_mismatch(self):
        _, a1, _ = setup(nt=4)
        x = BitVector.zeros(60, 2)
        with pytest.raises(ShapeError):
            push_csc_counters(a1, x, x)

    def test_rejects_length_mismatch(self):
        _, a1, _ = setup(nt=4)
        x = BitVector.zeros(32, 4)
        with pytest.raises(ShapeError):
            push_csc_counters(a1, x, x)

    def test_rejects_nonsquare(self):
        coo = COOMatrix((4, 8), np.array([0]), np.array([5]))
        a1 = BitTiledMatrix.from_coo(coo, 4, "csc")
        x = BitVector.zeros(8, 4)
        m = BitVector.zeros(4, 4)
        with pytest.raises(ShapeError):
            push_csc_counters(a1, x, m)


class TestCounters:
    def test_empty_frontier_is_cheap(self):
        _, a1, _ = setup()
        x = BitVector.zeros(60, 4)
        m = BitVector.zeros(60, 4)
        c = push_csc_counters(a1, x, m)
        assert c.atomic_ops == 0
        assert c.launches == 1

    def test_push_csr_skips_inactive_tiles(self):
        """Tiles whose frontier word is empty cost no word traffic."""
        coo, _, a2 = setup(n=64, nt=4, seed=3)
        m = BitVector.zeros(64, 4)
        tiny = BitVector.from_indices(np.array([0]), 64, 4)
        full = BitVector.from_indices(np.arange(64), 64, 4)
        c_tiny = push_csr_counters(a2, tiny, m)
        c_full = push_csr_counters(a2, full, m)
        assert c_tiny.coalesced_read_bytes < c_full.coalesced_read_bytes

    def test_pull_early_exit_charges_less_when_mask_dense(self):
        """With nearly everything visited, unvisited vertices hit a
        visited parent immediately — fewer tiles scanned."""
        coo = random_graph_coo(200, 8.0, seed=4)
        a1 = BitTiledMatrix.from_coo(coo, 4, "csc")
        almost_all = BitVector.from_indices(np.arange(195), 200, 4)
        few = BitVector.from_indices(np.arange(5), 200, 4)
        c_dense = pull_csc_counters(a1, almost_all, almost_all)
        c_sparse = pull_csc_counters(a1, few, few)
        # per-unvisited-vertex cost is lower when the mask is dense
        dense_unvisited, sparse_unvisited = 5, 195
        assert (c_dense.random_read_count / dense_unvisited
                <= c_sparse.random_read_count / sparse_unvisited + 1e-9)

    def test_counters_validate(self):
        coo, a1, a2 = setup(seed=5)
        x = BitVector.from_indices(np.array([0, 1]), 60, 4)
        m = x.copy()
        for kern, A in ((push_csc_counters, a1), (push_csr_counters, a2),
                        (pull_csc_counters, a1)):
            c = kern(A, x, m)
            c.check()
            assert c.warps >= 1.0
