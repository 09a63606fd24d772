"""Shared fixtures: deterministic random matrices, graphs, and oracles."""

from __future__ import annotations

import numpy as np
import pytest

from repro.formats import COOMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_dense(m, n, density=0.1, seed=0):
    """Dense array with the given fraction of nonzeros (exact values)."""
    r = np.random.default_rng(seed)
    d = (r.random((m, n)) < density) * r.random((m, n))
    return d


def random_coo(m, n, density=0.1, seed=0) -> COOMatrix:
    return COOMatrix.from_dense(random_dense(m, n, density, seed))


def random_graph_coo(n, avg_degree=4.0, seed=0) -> COOMatrix:
    """Symmetric unit-weight graph adjacency."""
    r = np.random.default_rng(seed)
    n_edges = int(n * avg_degree / 2)
    rows = r.integers(0, n, n_edges)
    cols = r.integers(0, n, n_edges)
    keep = rows != cols
    return COOMatrix((n, n), rows[keep], cols[keep],
                     np.ones(keep.sum())).symmetrize()


def seed_tilebfs(op, sources, max_depth=None, device=None):
    """The seed TileBFS layer loop, replayed over a prepared operator's
    plan: the §3.4 rule (with the Pull-CSC symmetry fallback), the
    oracle kernels of :mod:`repro.core.reference_bfs_kernels`, and a
    per-edge pass over the extracted side edges with its own counter
    math, one launch per layer priced on ``device``.

    Returns ``(levels, trace)``; ``trace`` holds one
    ``(kernel, frontier_size, new_vertices, simulated_ms)`` per layer.
    """
    from repro.core.reference_bfs_kernels import (
        reference_pull_csc_kernel, reference_push_csc_kernel,
        reference_push_csr_kernel)
    from repro.gpusim import KernelCounters
    from repro.tiles import BitVector

    kernels = {"push_csc": lambda x, m: reference_push_csc_kernel(
                   op.A1, x, m),
               "push_csr": lambda x, m: reference_push_csr_kernel(
                   op.A2, x, m),
               "pull_csc": lambda x, m: reference_pull_csc_kernel(
                   op.A1, x, m)}
    sources = np.unique(np.asarray(sources, dtype=np.int64))
    levels = np.full(op.n, -1, dtype=np.int64)
    levels[sources] = 0
    x = BitVector.from_indices(sources, op.n, op.nt)
    m = x.copy()
    trace = []
    depth = 0
    while max_depth is None or depth < max_depth:
        depth += 1
        frontier = x.to_indices()
        kernel = op.selector.choose(
            frontier_sparsity=len(frontier) / op.n,
            unvisited_fraction=(op.n - m.count()) / op.n)
        if kernel == "pull_csc" and not op.symmetric:
            kernel = "push_csr"
        y, counters = kernels[kernel](x, m)
        if op.side.nnz:
            src_active = np.isin(op.side.col, frontier)
            rows = op.side.row[src_active]
            rows = rows[levels[rows] < 0]
            y.set_indices(rows)
            side = KernelCounters(launches=1)
            side.coalesced_read_bytes += op.side.nnz * 16.0
            side.random_read_count += float(src_active.sum())
            side.atomic_ops += float(len(rows))
            side.random_write_count += float(len(rows))
            side.warps = max(1.0, op.side.nnz / 32.0)
            counters = counters.merged(side)
        ms = (device.submit(f"tilebfs_{kernel}", counters).total_ms
              if device is not None else 0.0)
        new = y.to_indices()
        trace.append((kernel, len(frontier), len(new), ms))
        if not len(new):
            break
        levels[new] = depth
        m = m | y
        x = y
    return levels, trace


def nx_graph_of(coo: COOMatrix):
    """networkx graph from a symmetric adjacency COO."""
    import networkx as nx

    G = nx.Graph()
    G.add_nodes_from(range(coo.shape[0]))
    G.add_edges_from(zip(coo.row.tolist(), coo.col.tolist()))
    return G


def nx_levels(coo: COOMatrix, source: int) -> np.ndarray:
    """BFS level oracle via networkx."""
    import networkx as nx

    G = nx_graph_of(coo)
    lengths = nx.single_source_shortest_path_length(G, source)
    out = np.full(coo.shape[0], -1, dtype=np.int64)
    for v, l in lengths.items():
        out[v] = l
    return out


@pytest.fixture
def small_coo():
    return random_coo(37, 53, density=0.12, seed=7)


@pytest.fixture
def square_coo():
    return random_coo(64, 64, density=0.1, seed=8)


@pytest.fixture
def graph_coo():
    return random_graph_coo(120, avg_degree=5.0, seed=9)
