"""Byte-identity of the BFS counter functions against the seed oracles.

The counter functions of :mod:`repro.core.bfs_kernels` compute only the
modeled counters of a layer, from its active side: for every input,
every one must return **byte-identical hardware counters** to the
preserved seed kernel in :mod:`repro.core.reference_bfs_kernels` — the
modeled GPU always priced only the active side, so no counter may move
and every simulated-ms trace (Fig. 10) stays frozen.  (The result words
are checked where they are produced, against the same oracles, in
``tests/fastpath/test_fused_equivalence.py``.)
"""

import dataclasses

import numpy as np
import pytest

from repro.core import (bfs_kernels, msbfs_expand, pull_csc_counters,
                        push_csc_counters, push_csr_counters,
                        reference_msbfs_expand, reference_pull_csc_kernel,
                        reference_push_csc_kernel,
                        reference_push_csr_kernel)
from repro.core.bfs_kernels import expand_vertex_tiles
from repro.core.tilebfs import TileBFS
from repro.tiles import BitTiledMatrix, BitVector

from ..conftest import random_coo, random_graph_coo

KERNELS = {
    "push_csc": (push_csc_counters, reference_push_csc_kernel, "csc"),
    "push_csr": (push_csr_counters, reference_push_csr_kernel, "csr"),
    "pull_csc": (pull_csc_counters, reference_pull_csc_kernel, "csc"),
}


def assert_counters_identical(new, ref):
    """Every counter field must match byte-for-byte (exact equality,
    no tolerance)."""
    for f in dataclasses.fields(ref):
        a, b = getattr(new, f.name), getattr(ref, f.name)
        assert a == b and type(a) is type(b), (
            f"counter {f.name}: counter function {a!r} != reference {b!r}")


def assert_identical(counters, res_ref):
    """The counter function's counters against the ``(y, counters)`` of
    the seed kernel."""
    assert_counters_identical(counters, res_ref[1])


def graph(n, symmetric, seed):
    if symmetric:
        return random_graph_coo(n, avg_degree=5.0, seed=seed)
    return random_coo(n, n, density=0.04, seed=seed)


def tiled_pair(coo, nt, symmetric):
    a1 = BitTiledMatrix.from_coo(coo, nt, "csc")
    if symmetric:
        a2 = a1.as_reinterpreted("csr")
    else:
        a2 = BitTiledMatrix.from_coo(coo, nt, "csr")
    a2.attach_column_view(a1)
    return a1, a2


def vectors(n, nt, frontier_density, seed):
    rng = np.random.default_rng(seed)
    k = max(1, int(round(n * frontier_density)))
    fr = rng.choice(n, size=k, replace=False)
    x = BitVector.from_indices(fr, n, nt)
    mv = rng.choice(n, size=min(n, 2 * k), replace=False)
    m = BitVector.from_indices(mv, n, nt)
    m |= x
    return x, m


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("symmetric", [True, False])
@pytest.mark.parametrize("nt", [4, 16, 64])
@pytest.mark.parametrize("frontier_density", [0.005, 0.05, 0.4, 0.95])
def test_byte_identical_grid(kernel, symmetric, nt, frontier_density):
    n = 210
    coo = graph(n, symmetric, seed=3)
    a1, a2 = tiled_pair(coo, nt, symmetric)
    x, m = vectors(n, nt, frontier_density, seed=11)
    new_fn, ref_fn, orient = KERNELS[kernel]
    A = a1 if orient == "csc" else a2
    assert_identical(new_fn(A, x, m), ref_fn(A, x, m))


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("extract_threshold", [0, 3])
def test_byte_identical_extraction(kernel, extract_threshold):
    """The kernels must agree on the dense part left behind by
    very-sparse-tile extraction too (its tile histogram differs:
    near-empty tiles are gone)."""
    coo = random_graph_coo(140, avg_degree=3.0, seed=9)
    bfs = TileBFS(coo, nt=8, extract_threshold=extract_threshold)
    x, m = vectors(bfs.n, bfs.nt, 0.1, seed=21)
    new_fn, ref_fn, orient = KERNELS[kernel]
    A = bfs.A1 if orient == "csc" else bfs.A2
    assert_identical(new_fn(A, x, m), ref_fn(A, x, m))


@pytest.mark.parametrize("factors", [
    {"PULL_WORD_COST_FACTOR": 0, "scan": "_pull_scan_vertices"},
    {"PULL_WORD_COST_FACTOR": 10**9, "scan": "_pull_scan_words"}])
def test_byte_identical_forced_regimes(monkeypatch, factors):
    """Both Pull-CSC scan regimes (vertex level / word level) must give
    the seed's counters, not just whichever the cost rule picks; so
    must Push-CSR, which has one path at every frontier density."""
    monkeypatch.setattr(bfs_kernels, "PULL_WORD_COST_FACTOR",
                        factors["PULL_WORD_COST_FACTOR"])
    scans = []

    def spy(name):
        real = getattr(bfs_kernels, name)

        def scan(*args):
            scans.append(name)
            return real(*args)
        monkeypatch.setattr(bfs_kernels, name, scan)

    spy("_pull_scan_vertices")
    spy("_pull_scan_words")
    coo = random_graph_coo(180, avg_degree=6.0, seed=5)
    a1, a2 = tiled_pair(coo, 16, symmetric=True)
    for fd in (0.01, 0.3, 0.9):
        x, m = vectors(180, 16, fd, seed=int(fd * 1000))
        assert_identical(push_csr_counters(a2, x, m),
                         reference_push_csr_kernel(a2, x, m))
        assert_identical(pull_csc_counters(a1, x, m),
                         reference_pull_csc_kernel(a1, x, m))
    assert set(scans) == {factors["scan"]}


def test_empty_frontier_and_saturated_mask():
    coo = random_graph_coo(96, avg_degree=4.0, seed=6)
    a1, a2 = tiled_pair(coo, 8, symmetric=True)
    empty = BitVector.zeros(96, 8)
    m = BitVector.from_indices(np.arange(10), 96, 8)
    full = BitVector.full(96, 8)
    some = BitVector.from_indices(np.arange(5), 96, 8)
    for new_fn, ref_fn, orient in KERNELS.values():
        A = a1 if orient == "csc" else a2
        assert_identical(new_fn(A, empty, m), ref_fn(A, empty, m))
        assert_identical(new_fn(A, some, full), ref_fn(A, some, full))


def test_msbfs_expand_matches_reference():
    coo = random_graph_coo(300, avg_degree=6.0, seed=8)
    csc = coo.to_csc()
    rng = np.random.default_rng(13)
    frontier = np.zeros(300, dtype=np.uint64)
    active = rng.choice(300, size=40, replace=False)
    frontier[active] = rng.integers(1, 2**63, size=40, dtype=np.uint64)
    new_w, new_a, new_e = msbfs_expand(csc, frontier)
    ref_w, ref_a, ref_e = reference_msbfs_expand(csc, frontier)
    assert np.array_equal(new_w, ref_w)
    assert (new_a, new_e) == (ref_a, ref_e)


class TestExpandVertexTiles:
    """Unit tests for the shared frontier-expansion helper (the
    jt / lengths / concat-ranges / repeat block Push-CSC and
    vertex-level Pull-CSC both used to inline)."""

    def test_against_python_loop(self):
        coo = random_graph_coo(90, avg_degree=5.0, seed=7)
        a1 = BitTiledMatrix.from_coo(coo, 8, "csc")
        vertices = np.array([0, 3, 17, 17, 42, 89], dtype=np.int64)
        lengths, gathered, local_col = expand_vertex_tiles(a1, vertices)
        exp_g, exp_lc, exp_len = [], [], []
        for v in vertices:
            jt, lc = divmod(int(v), 8)
            tiles = range(a1.tile_ptr[jt], a1.tile_ptr[jt + 1])
            exp_len.append(len(tiles))
            exp_g.extend(tiles)
            exp_lc.extend([lc] * len(tiles))
        assert np.array_equal(lengths, exp_len)
        assert np.array_equal(gathered, exp_g)
        assert np.array_equal(local_col, exp_lc)

    def test_empty_vertices(self):
        coo = random_graph_coo(40, avg_degree=4.0, seed=7)
        a1 = BitTiledMatrix.from_coo(coo, 8, "csc")
        lengths, gathered, local_col = expand_vertex_tiles(
            a1, np.zeros(0, dtype=np.int64))
        assert len(lengths) == len(gathered) == len(local_col) == 0
