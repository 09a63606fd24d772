"""ExecutionContext: the single launch path onto the simulated device."""

import numpy as np
import pytest

from repro.core import TileSpMSpV
from repro.gpusim import Device, KernelCounters, RTX3090
from repro.runtime import (ExecutionContext, Tracer, available_operators,
                           create_operator, operator_kind)
from repro.shards import ShardedTiledMatrix
from repro.vectors import random_sparse_vector

from ..conftest import random_coo


def _counters():
    c = KernelCounters(launches=1)
    c.coalesced_read_bytes += 4096.0
    c.flops += 256.0
    c.warps = 8.0
    return c


class TestLaunch:
    def test_launch_appends_to_device_timeline(self):
        dev = Device(RTX3090)
        ctx = ExecutionContext(device=dev, operator="op")
        ms = ctx.launch("k1", _counters())
        assert len(dev.timeline) == 1
        assert dev.timeline[0].name == "k1"
        assert ms == dev.timeline[0].ms > 0
        assert ctx.elapsed_ms == dev.elapsed_ms

    def test_launch_matches_direct_submit(self):
        """ctx.launch must append exactly what device.submit would."""
        dev_direct, dev_ctx = Device(RTX3090), Device(RTX3090)
        ctx = ExecutionContext(device=dev_ctx, operator="op")
        for name in ("a", "b"):
            dev_direct.submit(name, _counters(), tag="t")
            ctx.launch(name, _counters(), tag="t", phase="p")
        assert dev_direct.timeline == dev_ctx.timeline
        assert dev_direct.elapsed_ms == dev_ctx.elapsed_ms

    def test_none_device_is_noop(self):
        ctx = ExecutionContext(device=None)
        assert ctx.launch("k", _counters()) == 0.0
        assert ctx.elapsed_ms == 0.0

    def test_tracer_sees_operator_and_phase(self):
        tracer = Tracer()
        ctx = ExecutionContext(device=Device(RTX3090), tracer=tracer,
                               operator="myop")
        ctx.launch("k", _counters(), phase="iteration")
        assert len(tracer) == 1
        ev = tracer.events[0]
        assert (ev.name, ev.operator, ev.phase) == ("k", "myop",
                                                    "iteration")

    def test_tracer_not_fed_without_device(self):
        tracer = Tracer()
        ctx = ExecutionContext(device=None, tracer=tracer)
        ctx.launch("k", _counters())
        assert len(tracer) == 0


class TestWrapAndScope:
    def test_wrap_device(self):
        dev = Device(RTX3090)
        ctx = ExecutionContext.wrap(dev, operator="x")
        assert ctx.device is dev
        assert ctx.operator == "x"

    def test_wrap_none(self):
        assert ExecutionContext.wrap(None).device is None

    def test_wrap_context_shares_device_and_tracer(self):
        tracer = Tracer()
        base = ExecutionContext(device=Device(RTX3090), tracer=tracer)
        scoped = ExecutionContext.wrap(base, operator="child")
        assert scoped.device is base.device
        assert scoped.tracer is tracer
        assert scoped.operator == "child"

    def test_scoped_contexts_share_one_timeline(self):
        base = ExecutionContext(device=Device(RTX3090))
        a, b = base.scoped("a"), base.scoped("b")
        a.launch("ka", _counters())
        b.launch("kb", _counters())
        assert [r.name for r in base.device.timeline] == ["ka", "kb"]


class TestOperatorDeviceProperty:
    def test_post_construction_device_assignment(self, small_coo):
        op = TileSpMSpV(small_coo, nt=16)
        assert op.device is None
        dev = Device(RTX3090)
        op.device = dev
        assert op.device is dev
        op.multiply(random_sparse_vector(small_coo.shape[1], 0.1))
        assert len(dev.timeline) > 0

    def test_context_assignment_rescopes(self, small_coo):
        op = TileSpMSpV(small_coo, nt=16)
        tracer = Tracer()
        op.device = ExecutionContext(device=Device(RTX3090),
                                     tracer=tracer)
        op.multiply(random_sparse_vector(small_coo.shape[1], 0.1))
        assert len(tracer) > 0
        assert all(ev.operator == "tilespmspv" for ev in tracer.events)

    @pytest.mark.parametrize("name", available_operators())
    def test_every_operator_rebinds(self, name):
        """Built with no device, a registered operator rebinds to an
        assigned traced context (launches carry its tag) and then to a
        raw device, which keeps the tracer and grows its timeline."""
        assert set(available_operators()) == set(_OPERATOR_TAGS)
        coo = random_coo(64, 64, density=0.1, seed=5)
        op = create_operator(name, coo)
        assert op.device is None
        tracer = Tracer()
        op.device = ExecutionContext(device=Device(RTX3090), tracer=tracer)
        _run_once(op, name)
        assert len(tracer) > 0
        assert {ev.operator for ev in tracer.events} == {_OPERATOR_TAGS[name]}
        dev = Device(RTX3090)
        op.device = dev
        assert op.device is dev
        _run_once(op, name)
        assert len(dev.timeline) > 0
        assert {ev.operator for ev in tracer.events} == {_OPERATOR_TAGS[name]}

    def test_sharded_operator_rebinds_its_engine(self):
        """TileSpMSpV over a sharded matrix: both kinds of assignment
        reach the sharded engine, whose launches carry its own tag."""
        coo = random_coo(64, 64, density=0.1, seed=6)
        op = TileSpMSpV(ShardedTiledMatrix.from_coo(coo, nt=16, n_shards=2))
        x = random_sparse_vector(64, 0.2)
        tracer = Tracer()
        op.device = ExecutionContext(device=Device(RTX3090), tracer=tracer)
        op.multiply(x)
        assert len(tracer) > 0
        assert {ev.operator for ev in tracer.events} == {"sharded-spmspv"}
        dev = Device(RTX3090)
        op.device = dev
        op.multiply(x)
        assert len(dev.timeline) > 0
        assert {ev.operator for ev in tracer.events} == {"sharded-spmspv"}


#: The operator tag every registered operator's launches carry.
_OPERATOR_TAGS = {
    "tilespmspv": "tilespmspv", "batched-spmspv": "batched_spmspv",
    "tilespmm": "tilespmm", "sharded-spmspv": "sharded-spmspv",
    "tilebfs": "tilebfs", "msbfs": "msbfs", "tilespmv": "tilespmv",
    "cusparse-bsr": "cusparse-bsr", "combblas": "combblas",
    "spmspv-via-spgemm": "spmspv-via-spgemm", "gunrock": "gunrock",
    "gswitch": "gswitch", "enterprise": "enterprise",
}


def _run_once(op, name):
    """One operation of the kind the registry says ``name`` is."""
    kind = operator_kind(name)
    if kind == "bfs":
        op.run(0)
    elif kind == "msbfs":
        op.run([0, 1])
    else:
        op.multiply(random_sparse_vector(op.shape[1], 0.2))


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("sparsity", [0.02, 0.2])
    def test_device_does_not_change_results(self, sparsity):
        coo = random_coo(90, 90, density=0.08, seed=3)
        x = random_sparse_vector(90, sparsity)
        y_none = TileSpMSpV(coo, nt=16).multiply(x)
        y_dev = TileSpMSpV(coo, nt=16,
                           device=Device(RTX3090)).multiply(x)
        assert np.array_equal(y_none.indices, y_dev.indices)
        assert np.allclose(y_none.values, y_dev.values)
