"""Counters-off production mode and its post-hoc replay.

``ExecutionContext(mode="production")`` compiles accounting out of the
hot loops; :meth:`replay` must then price a timeline identical launch
for launch — names, tags, phases, and every counter field — to a
counters-on modeled run of the same workload, for every operator that
participates (TileBFS, MS-BFS, TileSpMSpV, the
sharded engine).
"""

import dataclasses

import numpy as np
import pytest

from repro.core.msbfs import MultiSourceBFS
from repro.core.spmspv import TileSpMSpV
from repro.core.tilebfs import TileBFS
from repro.gpusim import Device, KernelCounters
from repro.runtime import ExecutionContext
from repro.shards.engine import ShardedSpMSpV
from repro.vectors.sparse_vector import SparseVector

from ..conftest import random_coo, random_graph_coo


def assert_timelines_identical(dev_ref: Device, dev_got: Device):
    ref, got = dev_ref.timeline, dev_got.timeline
    assert len(ref) == len(got), (
        f"{len(got)} replayed launches vs {len(ref)} counters-on")
    for a, b in zip(ref, got):
        assert (a.name, a.tag) == (b.name, b.tag)
        for f in dataclasses.fields(a.counters):
            av, bv = getattr(a.counters, f.name), getattr(b.counters,
                                                          f.name)
            assert av == bv, f"{a.name}: counter {f.name} {bv} != {av}"


def sparse_x(n, k, seed, dtype=np.float64):
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, size=k, replace=False))
    return SparseVector(n, idx, rng.random(k).astype(dtype) + 0.5)


# ----------------------------------------------------------------------
# context-mode unit tests
# ----------------------------------------------------------------------
class TestContextModes:
    def test_unknown_mode_raises(self):
        with pytest.raises(ValueError):
            ExecutionContext(mode="benchmark")

    def test_mode_properties(self):
        dev = Device()
        modeled = ExecutionContext(dev)
        assert modeled.active and modeled.accounting
        assert not modeled.production
        functional = ExecutionContext(None)
        assert not (functional.active or functional.accounting
                    or functional.production)
        prod = ExecutionContext(mode="production")
        assert prod.production and prod.accounting and not prod.active

    def test_launch_defers_and_replays(self):
        ctx = ExecutionContext(mode="production", operator="op")
        c = KernelCounters(launches=1)
        c.coalesced_read_bytes = 256.0
        assert ctx.launch("k1", c, tag="t", phase="p") == 0.0
        ctx.defer("k2", lambda: c, phase="p")
        assert ctx.deferred_launches == 2
        dev = ctx.replay()
        assert [r.name for r in dev.timeline] == ["k1", "k2"]
        assert dev.timeline[1].counters.coalesced_read_bytes == 256.0
        # the log survives a replay (re-derivable timeline) ...
        assert ctx.deferred_launches == 2
        ctx.clear_replay()
        assert ctx.deferred_launches == 0

    def test_defer_is_noop_outside_production(self):
        ctx = ExecutionContext(Device())
        ctx.defer("k", lambda: KernelCounters(launches=1))
        assert ctx.deferred_launches == 0
        assert not ctx.device.timeline

    def test_scoped_views_share_the_log(self):
        ctx = ExecutionContext(mode="production", operator="a")
        view = ctx.scoped("b")
        view.launch("k", KernelCounters(launches=1))
        assert ctx.deferred_launches == 1
        assert view.production


# ----------------------------------------------------------------------
# whole-operator production replay
# ----------------------------------------------------------------------
@pytest.mark.parametrize("symmetric", [True, False])
def test_tilebfs_production_replay(monkeypatch, symmetric):
    monkeypatch.setenv("REPRO_FASTPATH", "numpy")
    if symmetric:
        coo = random_graph_coo(230, avg_degree=5.0, seed=3)
    else:
        coo = random_coo(230, 230, density=0.04, seed=3)

    dev_ref = Device()
    ref = TileBFS(coo, nt=16, device=dev_ref).run(0)

    op = TileBFS(coo, nt=16, device=ExecutionContext(mode="production"))
    got = op.run(0)
    assert np.array_equal(got.levels, ref.levels)
    # one deferred closure per layer, resolved only at replay time
    assert op.ctx.deferred_launches == len(got.iterations)
    assert got.simulated_ms == 0.0
    assert_timelines_identical(dev_ref, op.ctx.replay())


def test_msbfs_production_replay():
    coo = random_graph_coo(300, avg_degree=5.0, seed=8)
    sources = [0, 17, 120, 250]

    dev_ref = Device()
    ref = MultiSourceBFS(coo, device=dev_ref).run(sources)

    op = MultiSourceBFS(coo, device=ExecutionContext(mode="production"))
    got = op.run(sources)
    assert np.array_equal(got.levels, ref.levels)
    assert op.ctx.deferred_launches > 0
    assert_timelines_identical(dev_ref, op.ctx.replay())


@pytest.mark.parametrize("mode", ["csr", "csc", "adaptive"])
def test_tilespmspv_production_replay(mode):
    coo = random_coo(200, 200, density=0.05, seed=6)
    xs = [sparse_x(200, k, seed=k) for k in (3, 40, 150)]

    dev_ref = Device()
    ref_op = TileSpMSpV(coo, nt=16, mode=mode, device=dev_ref)
    refs = [ref_op.multiply(x, output="dense") for x in xs]

    op = TileSpMSpV(coo, nt=16, mode=mode,
                    device=ExecutionContext(mode="production"))
    for x, want in zip(xs, refs):
        got = op.multiply(x, output="dense")
        assert np.array_equal(got, want)
    assert op.ctx.deferred_launches > 0
    assert_timelines_identical(dev_ref, op.ctx.replay())


def test_sharded_production_replay(tmp_path):
    """The sharded engine keeps counters inline even in production
    (replaying would re-fault evicted shards) — but the launches still
    defer into the log and replay to the counters-on timeline."""
    coo = random_coo(240, 240, density=0.05, seed=2)
    xs = [sparse_x(240, k, seed=k) for k in (5, 60)]

    dev_ref = Device()
    ref_op = ShardedSpMSpV(coo, nt=16, n_shards=3, device=dev_ref,
                           store_dir=tmp_path / "ref")
    refs = [ref_op.multiply(x, output="dense") for x in xs]

    op = ShardedSpMSpV(coo, nt=16, n_shards=3,
                       device=ExecutionContext(mode="production"),
                       store_dir=tmp_path / "prod")
    for x, want in zip(xs, refs):
        assert np.array_equal(op.multiply(x, output="dense"), want)
    assert op.ctx.deferred_launches > 0
    assert_timelines_identical(dev_ref, op.ctx.replay())


def test_production_replay_onto_shared_device():
    """A whole multi-operator workload replays in launch order onto one
    device, through the shared scoped-context log."""
    coo = random_graph_coo(150, avg_degree=4.0, seed=5)
    ctx = ExecutionContext(mode="production")
    TileBFS(coo, nt=16, device=ctx).run(0)
    TileSpMSpV(coo, nt=16, device=ctx).multiply(sparse_x(150, 10, 1))
    dev = Device()
    ctx.replay(dev)
    names = [r.name for r in dev.timeline]
    assert any(n.startswith("tilebfs_") for n in names)
    assert any(n.startswith("tile_spmspv") for n in names)
    # BFS layers precede the multiply: the log preserves launch order
    assert names.index("tile_spmspv_csr") > 0
    assert ctx.deferred_launches == len(names)
