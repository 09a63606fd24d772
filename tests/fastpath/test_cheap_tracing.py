"""Cheap-when-off accounting: no counters, tags, or format strings
when nothing records them.

The contract (satellite of the compiled fast path): with no device
attached and production mode off, the hot loops must not construct
``KernelCounters``, shard-tag strings, or deferred closures at all —
not build-and-discard them.  These tests count the constructions
directly by monkeypatching the construction sites.
"""

import numpy as np

import repro.core.spmm_kernels as spmm_kernels
import repro.core.spmspv_kernels as spmspv_kernels
import repro.fastpath.fused_bfs as fused_bfs
import repro.shards.engine as shards_engine
from repro.core.batched import BatchedSpMSpV
from repro.core.spmm import TileSpMM
from repro.core.spmspv import TileSpMSpV
from repro.core.spmspv_kernels import (coo_side_kernel, csc_tiled_kernel,
                                       tiled_kernel)
from repro.core.tilebfs import TileBFS
from repro.gpusim import Device
from repro.runtime import ExecutionContext
from repro.shards.engine import ShardedSpMSpV
from repro.tiles.tiled_vector import TiledVector
from repro.vectors.sparse_vector import SparseVector

from ..conftest import random_coo, random_graph_coo


def sparse_x(n, k, seed=1):
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=k, replace=False))
    return SparseVector(n, idx, rng.random(k) + 0.5)


def counting(monkeypatch, module, name):
    """Replace ``module.name`` with a call-counting wrapper."""
    calls = []
    orig = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args)
        return orig(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapper)
    return calls


# ----------------------------------------------------------------------
# kernel-level: with_counters=False skips the accounting block
# ----------------------------------------------------------------------
def test_with_counters_off_returns_none_same_result():
    coo = random_coo(120, 120, density=0.05, seed=4)
    op = TileSpMSpV(coo, nt=16)
    xt = op._as_tiled_vector(sparse_x(120, 20))
    y_on, c_on = tiled_kernel(op.hybrid.tiled, xt)
    y_off, c_off = tiled_kernel(op.hybrid.tiled, xt, with_counters=False)
    assert c_on is not None and c_off is None
    assert np.array_equal(y_on, y_off)

    yc_on, cc_on = csc_tiled_kernel(op._transposed(), xt)
    yc_off, cc_off = csc_tiled_kernel(op._transposed(), xt,
                                      with_counters=False)
    assert cc_on is not None and cc_off is None
    assert np.array_equal(yc_on, yc_off)

    if op.hybrid.side.nnz:
        ys_on, cs_on = coo_side_kernel(op._side_index, xt)
        ys_off, cs_off = coo_side_kernel(op._side_index, xt,
                                         with_counters=False)
        assert cs_on is not None and cs_off is None
        assert np.array_equal(ys_on, ys_off)


def test_multiply_builds_no_counters_when_off(monkeypatch):
    coo = random_coo(120, 120, density=0.05, seed=4)
    x = sparse_x(120, 20)
    op_off = TileSpMSpV(coo, nt=16)
    op_on = TileSpMSpV(coo, nt=16, device=Device())
    # count after construction: preprocessing is not under test
    calls = counting(monkeypatch, spmspv_kernels, "KernelCounters")
    op_off.multiply(x)
    assert not calls, "counters built with no device attached"
    op_on.multiply(x)
    assert calls, "counters-on run must construct counters"


def test_sparse_multiply_builds_no_tiled_vector_when_off(monkeypatch):
    """A counters-off multiply of a SparseVector matches its support
    directly: no TiledVector and no KernelCounters, in any form or on
    the batched path."""
    coo = random_coo(120, 120, density=0.05, seed=4)
    xs = [sparse_x(120, 20, seed=s) for s in (1, 2)]
    ops = [TileSpMSpV(coo, nt=16, mode=mode)
           for mode in ("csr", "csc", "adaptive")]
    batched = BatchedSpMSpV(coo, nt=16)
    assert batched.hybrid.side.nnz, "the side pass must be exercised"
    tiled = []
    assign = TiledVector._assign  # every TiledVector build runs it

    def counting_assign(self, *args):
        tiled.append(args)
        assign(self, *args)

    monkeypatch.setattr(TiledVector, "_assign", counting_assign)
    calls = counting(monkeypatch, spmspv_kernels, "KernelCounters")
    for op in ops:
        op.multiply(xs[0])
        op.multiply(xs[1], output="dense")
        op.multiply_batch(xs)
    batched.multiply_batch(xs)
    batched.multiply_batch(xs, output="dense")
    assert not tiled, "TiledVector built for a counters-off multiply"
    assert not calls, "counters built with no device attached"
    TileSpMSpV(coo, nt=16, device=Device()).multiply(xs[0])
    assert tiled and calls, "counters-on runs tile x and count"


def run_family(coo, device):
    """One call of every in-core kernel method over a shared context;
    returns copies of the dense results."""
    xs = [sparse_x(120, 20, seed=s) for s in (1, 2, 3)]
    outs = [
        BatchedSpMSpV(coo, nt=16, device=device).multiply_batch(
            xs, output="dense", tag="b=0"),
        TileSpMSpV(coo, nt=16, device=device).multiply_batch(
            xs, output="dense"),
        TileSpMM(coo, nt=16, device=device).multiply_block(
            xs, output="dense", tag="b=1"),
        TileSpMSpV(coo, nt=16, mode="csc", device=device).multiply(
            xs[0], output="dense"),
        TileSpMSpV(coo, nt=16, device=device).multiply_transpose(
            xs[1], output="dense"),
    ]
    return outs


def test_batch_and_block_build_no_counters_when_off(monkeypatch):
    coo = random_coo(120, 120, density=0.05, seed=4)
    xs = [sparse_x(120, 20, seed=s) for s in (1, 2)]
    ops = [BatchedSpMSpV(coo, nt=16), TileSpMSpV(coo, nt=16),
           TileSpMM(coo, nt=16)]
    assert ops[0].hybrid.side.nnz, "the side pass must be exercised"
    calls = counting(monkeypatch, spmspv_kernels, "KernelCounters")
    calls += counting(monkeypatch, spmm_kernels, "KernelCounters")
    ops[0].multiply_batch(xs)
    ops[1].multiply_batch(xs)
    ops[2].multiply_block(xs)
    assert not calls, "counters built with no device attached"


def test_production_replay_matches_modeled_run():
    coo = random_coo(120, 120, density=0.05, seed=4)
    dev = Device()
    want = run_family(coo, dev)
    ctx = ExecutionContext(mode="production")
    got = run_family(coo, ctx)
    held = [y.copy() for y in got]
    replayed = ctx.replay()
    assert [(r.name, r.tag, r.counters) for r in replayed.timeline] == \
        [(r.name, r.tag, r.counters) for r in dev.timeline]
    for y, y_held, y_want in zip(got, held, want):
        # replay re-runs kernels on fresh accumulators: the results the
        # calls returned are untouched
        assert np.array_equal(y, y_held, equal_nan=True)
        assert np.array_equal(y, y_want, equal_nan=True)


def test_fused_bfs_defers_closures_only_in_production(monkeypatch):
    monkeypatch.setenv("REPRO_FASTPATH", "numpy")
    coo = random_graph_coo(150, avg_degree=4.0, seed=5)
    calls = counting(monkeypatch, fused_bfs, "layer_counter_closure")

    res = TileBFS(coo, nt=16).run(0)          # functional: nothing built
    assert not calls
    op = TileBFS(coo, nt=16, device=ExecutionContext(mode="production"))
    got = op.run(0)
    assert len(calls) == len(got.iterations)
    assert np.array_equal(got.levels, res.levels)


def test_shard_tags_not_built_when_off(monkeypatch, tmp_path):
    coo = random_coo(160, 160, density=0.05, seed=7)
    x = sparse_x(160, 25)
    calls = counting(monkeypatch, shards_engine, "_shard_tag")

    off = ShardedSpMSpV(coo, nt=16, n_shards=3,
                        store_dir=tmp_path / "off")
    y_off = off.multiply(x, output="dense")
    off.multiply_batch([x, sparse_x(160, 40, seed=2)])
    assert not calls, "shard tag strings built with accounting off"

    on = ShardedSpMSpV(coo, nt=16, n_shards=3, device=Device(),
                       store_dir=tmp_path / "on")
    y_on = on.multiply(x, output="dense")
    assert calls, "counters-on run must tag per-shard launches"
    assert np.array_equal(y_off, y_on)


def test_shard_tag_formats():
    assert shards_engine._shard_tag(3) == "shard=3"
    assert shards_engine._shard_tag(3, "batch=2") == "batch=2;shard=3"
