"""Figure 11: format-conversion overhead vs one BFS run.

The paper: conversion "does not exceed a single BFS processing time in
normal cases, and does not exceed 10x ... in most cases".
"""

import pytest

from repro import TileBFS, TileSpMSpV
from repro.bench import run_fig11
from repro.fastpath.fused_bfs import bfs_layout
from repro.matrices import get_matrix
from repro.runtime import PlanCache


def test_fig11_conversion_table(register, benchmark):
    result = benchmark.pedantic(run_fig11, rounds=1, iterations=1)
    register("fig11", result.text)
    ratios = [row[3] for row in result.rows]
    # the paper's bound: <= 10x a single BFS on most matrices
    within_10x = sum(1 for r in ratios if r <= 10.0)
    assert within_10x >= len(ratios) - 1
    # and <= 1 BFS "in normal cases" (the majority)
    assert sum(1 for r in ratios if r <= 1.0) > len(ratios) / 2


def _cold_bfs_plan(coo):
    """A TileBFS plan and its fused layout, built from scratch."""
    op = TileBFS(coo, plan_cache=PlanCache())
    bfs_layout(op)
    return op


@pytest.mark.parametrize("name", ["cant", "msdoor"])
def test_wallclock_bfs_plan(benchmark, name):
    """Wall-clock of what a TileBFS plan ships: the hybrid split, both
    bitmask tilings and the fused layout."""
    coo = get_matrix(name)
    op = benchmark.pedantic(_cold_bfs_plan, args=(coo,), rounds=2,
                            iterations=1)
    assert op.nnz == coo.sum_duplicates().nnz


@pytest.mark.parametrize("name", ["cant", "msdoor"])
def test_wallclock_spmspv_plan(benchmark, name):
    """Wall-clock of a cold TileSpMSpV plan: the hybrid split and the
    stacked column index."""
    coo = get_matrix(name)
    op = benchmark.pedantic(
        lambda: TileSpMSpV(coo, nt=16, plan_cache=PlanCache()),
        rounds=2, iterations=1)
    assert op.nnz == coo.sum_duplicates().nnz
