"""End-to-end TileBFS tests against networkx, across generator families
and kernel-selection policies."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import KernelSelector, TileBFS, tile_bfs
from repro.errors import ShapeError
from repro.formats import COOMatrix
from repro.gpusim import Device, RTX3060, RTX3090
from repro.matrices import (erdos_renyi, fem_like, mesh2d, rmat,
                            road_network)

from ..conftest import nx_levels, random_coo, random_graph_coo, seed_tilebfs

SELECTORS = [KernelSelector.k1(), KernelSelector.k1_k2(),
             KernelSelector.k1_k2_k3()]


class TestCorrectness:
    @pytest.mark.parametrize("selector", SELECTORS,
                             ids=["K1", "K1K2", "K1K2K3"])
    @pytest.mark.parametrize("nt", [4, 16, 32])
    def test_random_graph(self, selector, nt):
        coo = random_graph_coo(150, 5.0, seed=1)
        res = TileBFS(coo, nt=nt, selector=selector).run(0)
        assert np.array_equal(res.levels, nx_levels(coo, 0))

    @pytest.mark.parametrize("gen,args", [
        (erdos_renyi, (200, 4.0)),
        (fem_like, (256,)),
        (mesh2d, (15,)),
        (rmat, (8,)),
        (road_network, (14,)),
    ], ids=["er", "fem", "mesh", "rmat", "road"])
    def test_generator_families(self, gen, args):
        coo = gen(*args, seed=7)
        res = TileBFS(coo, nt=16).run(0)
        assert np.array_equal(res.levels, nx_levels(coo, 0))

    @given(st.integers(2, 120), st.integers(0, 10**5),
           st.floats(1.0, 8.0))
    @settings(max_examples=30, deadline=None)
    def test_property_random(self, n, seed, deg):
        coo = random_graph_coo(n, deg, seed)
        src = seed % n
        res = TileBFS(coo, nt=4).run(src)
        assert np.array_equal(res.levels, nx_levels(coo, src))

    def test_different_sources_consistent(self):
        coo = random_graph_coo(90, 4.0, seed=3)
        bfs = TileBFS(coo, nt=4)
        for src in (0, 10, 89):
            assert np.array_equal(bfs.run(src).levels, nx_levels(coo, src))

    def test_extraction_does_not_change_result(self):
        coo = random_graph_coo(200, 3.0, seed=4)
        a = TileBFS(coo, nt=16, extract_threshold=0).run(0).levels
        b = TileBFS(coo, nt=16, extract_threshold=4).run(0).levels
        assert np.array_equal(a, b)

    def test_multi_source(self):
        coo = random_graph_coo(100, 4.0, seed=5)
        res = TileBFS(coo, nt=4).run_multi([0, 50])
        ref0 = nx_levels(coo, 0)
        ref50 = nx_levels(coo, 50)
        both = np.where(ref0 < 0, ref50,
                        np.where(ref50 < 0, ref0, np.minimum(ref0, ref50)))
        assert np.array_equal(res.levels, both)


class TestEdgeCases:
    def test_isolated_source(self):
        coo = COOMatrix((5, 5), np.array([1]), np.array([2]))
        res = TileBFS(coo, nt=2).run(0)
        assert res.levels.tolist() == [0, -1, -1, -1, -1]
        assert res.n_reached == 1
        assert res.depth == 0

    def test_self_loop_only(self):
        coo = COOMatrix((4, 4), np.array([0]), np.array([0]))
        res = TileBFS(coo, nt=2).run(0)
        assert res.levels[0] == 0
        assert res.n_reached == 1

    def test_disconnected_components(self):
        coo = COOMatrix((6, 6), np.array([0, 1, 3, 4]),
                        np.array([1, 0, 4, 3]))
        res = TileBFS(coo, nt=2).run(0)
        assert res.levels.tolist() == [0, 1, -1, -1, -1, -1]

    def test_path_graph_depth(self):
        n = 33
        rows = np.concatenate([np.arange(n - 1), np.arange(1, n)])
        cols = np.concatenate([np.arange(1, n), np.arange(n - 1)])
        coo = COOMatrix((n, n), rows, cols)
        res = TileBFS(coo, nt=4).run(0)
        assert res.depth == n - 1
        # n-1 productive layers + the final empty-frontier probe
        assert len(res.iterations) == n

    def test_max_depth_truncates(self):
        coo = random_graph_coo(100, 4.0, seed=6)
        res = TileBFS(coo, nt=4).run(0, max_depth=2)
        assert res.levels.max() <= 2

    def test_source_out_of_range(self):
        bfs = TileBFS(COOMatrix.empty((4, 4)), nt=2)
        with pytest.raises(ShapeError):
            bfs.run(4)
        with pytest.raises(ShapeError):
            bfs.run(-1)

    def test_empty_sources_rejected(self):
        bfs = TileBFS(COOMatrix.empty((4, 4)), nt=2)
        with pytest.raises(ShapeError):
            bfs.run_multi([])

    def test_nonsquare_rejected(self):
        with pytest.raises(ShapeError):
            TileBFS(COOMatrix.empty((3, 4)), nt=2)


class TestNtSelection:
    def test_paper_rule_applied(self):
        small = TileBFS(random_graph_coo(100, 3.0, seed=7))
        assert small.nt == 32
        # order > 10000 -> 64 (build a sparse large graph cheaply)
        big = TileBFS(erdos_renyi(10_500, 2.0, seed=8))
        assert big.nt == 64

    def test_explicit_nt_honored(self):
        bfs = TileBFS(random_graph_coo(100, 3.0, seed=9), nt=16)
        assert bfs.nt == 16


class TestTraceAndDevice:
    def test_iteration_trace_depths_sequential(self):
        coo = random_graph_coo(150, 4.0, seed=10)
        res = TileBFS(coo, nt=16).run(0)
        depths = [it.depth for it in res.iterations]
        assert depths == list(range(1, len(depths) + 1))

    def test_new_vertices_sum_matches(self):
        coo = random_graph_coo(150, 4.0, seed=11)
        res = TileBFS(coo, nt=16).run(0)
        assert 1 + sum(it.new_vertices for it in res.iterations) == \
            res.n_reached

    def test_simulated_time_accumulates(self):
        coo = random_graph_coo(150, 4.0, seed=12)
        dev = Device(RTX3090)
        res = TileBFS(coo, nt=16, device=dev).run(0)
        assert res.simulated_ms > 0
        assert res.simulated_ms == pytest.approx(
            sum(it.simulated_ms for it in res.iterations))

    def test_3090_faster_than_3060_on_large_matrix(self):
        """The paper's scalability note (§4.3): the gain of the bigger
        card shows on large matrices; small ones are launch-bound."""
        coo = fem_like(30_000, nnz_per_row=60, seed=13)
        t = {}
        for spec in (RTX3060, RTX3090):
            dev = Device(spec)
            t[spec.name] = TileBFS(coo, device=dev).run(0).simulated_ms
        assert t["RTX 3090"] < t["RTX 3060"]

    def test_gteps(self):
        coo = random_graph_coo(200, 5.0, seed=14)
        dev = Device(RTX3090)
        res = TileBFS(coo, device=dev).run(0)
        assert res.gteps(coo.nnz) == pytest.approx(
            coo.nnz / (res.simulated_ms * 1e-3) / 1e9)

    def test_kernel_names_in_trace_valid(self):
        coo = mesh2d(20, seed=15)
        res = TileBFS(coo, nt=16).run(0)
        assert {it.kernel for it in res.iterations} <= \
            {"push_csc", "push_csr", "pull_csc"}

    def test_one_shot_wrapper(self):
        coo = random_graph_coo(80, 4.0, seed=16)
        res = tile_bfs(coo, 0, nt=4)
        assert np.array_equal(res.levels, nx_levels(coo, 0))


class TestDirectedGraphs:
    """Pull-CSC reads a vertex's stored column as its in-edges, which
    only holds on symmetric patterns; directed graphs must gate it off
    (the bug behind verify/repros/tilebfs_pull_direction.json)."""

    def test_plan_records_pattern_symmetry(self):
        und = random_graph_coo(80, 4.0, seed=2)
        assert TileBFS(und, nt=8).symmetric is True
        digraph = erdos_renyi(80, 4.0, seed=2, symmetric=False)
        assert TileBFS(digraph, nt=8).symmetric is False

    def test_pull_never_traced_on_directed_pattern(self):
        from repro.graphs import bfs_levels
        coo = erdos_renyi(120, 6.0, seed=1, symmetric=False)
        bfs = TileBFS(coo, nt=16, selector=KernelSelector.k1_k2_k3())
        for src in (0, 45, 119):
            res = bfs.run(src)
            assert "pull_csc" not in {it.kernel for it in res.iterations}
            assert np.array_equal(res.levels, bfs_levels(coo, src))

    @pytest.mark.parametrize("nt", [4, 16])
    @pytest.mark.parametrize("seed", [0, 3, 9])
    def test_directed_levels_match_reference(self, nt, seed):
        from repro.graphs import bfs_levels
        coo = erdos_renyi(64, 4.0, seed=seed, symmetric=False)
        res = TileBFS(coo, nt=nt).run(0)
        assert np.array_equal(res.levels, bfs_levels(coo, 0))

    def test_symmetric_pattern_still_allowed_to_pull(self):
        # the gate must not forbid Pull-CSC where it is valid: on a
        # dense symmetric pattern the K1K2K3 policy still reaches it
        coo = random_graph_coo(200, 12.0, seed=6)
        bfs = TileBFS(coo, nt=16, selector=KernelSelector.k1_k2_k3())
        kernels = set()
        for src in range(6):
            res = bfs.run(src)
            kernels |= {it.kernel for it in res.iterations}
            assert np.array_equal(res.levels, nx_levels(coo, src))
        assert "pull_csc" in kernels


class TestSeedLoop:
    """Counters-on TileBFS must reproduce the seed layer loop launch for
    launch: kernel names, counters and per-layer simulated ms."""

    @pytest.mark.parametrize("selector", [
        KernelSelector(), KernelSelector.fixed("push_csc"),
        KernelSelector.fixed("push_csr"), KernelSelector.fixed("pull_csc"),
    ], ids=["rule", "push_csc", "push_csr", "pull_csc"])
    @pytest.mark.parametrize("extract_threshold", [0, 3])
    @pytest.mark.parametrize("symmetric", [True, False],
                             ids=["sym", "asym"])
    def test_timeline_matches_seed_loop(self, symmetric,
                                        extract_threshold, selector):
        coo = (random_graph_coo(230, 5.0, seed=3) if symmetric
               else random_coo(230, 230, density=0.04, seed=3))
        dev = Device()
        bfs = TileBFS(coo, nt=16, selector=selector,
                      extract_threshold=extract_threshold, device=dev)
        assert (bfs.side.nnz > 0) == (extract_threshold > 0)
        seed_dev = Device()
        for sources in ([0], [7], [0, 5, 101]):
            res = bfs.run_multi(sources)
            levels, trace = seed_tilebfs(bfs, sources, device=seed_dev)
            assert np.array_equal(res.levels, levels)
            assert [(it.kernel, it.frontier_size, it.new_vertices,
                     it.simulated_ms) for it in res.iterations] == trace
            assert res.simulated_ms == pytest.approx(
                sum(t[3] for t in trace))
        assert [(r.name, r.tag, r.counters) for r in dev.timeline] == \
            [(r.name, r.tag, r.counters) for r in seed_dev.timeline]
