"""ShardedSpMSpV: equivalence, shard-count invariance, modeled bytes."""

import numpy as np
import pytest

import repro.parallel.executor as executor
import repro.shards.engine as engine
from repro.core import TileSpMSpV
from repro.core.spmspv import as_tiled_vector
from repro.core.spmspv_kernels import batched_union_kernel, tiled_kernel
from repro.formats import COOMatrix
from repro.gpusim import Device, RTX3090
from repro.runtime import PlanCache, create_operator
from repro.semiring import MAX_TIMES, MIN_PLUS, OR_AND, PLUS_TIMES
from repro.shards import ShardedSpMSpV, ShardedTiledMatrix
from repro.shards.engine import ShardResult
from repro.tiles import TiledVector
from repro.vectors import SparseVector, random_sparse_vector

from ..conftest import random_coo, random_dense


@pytest.fixture
def coo():
    return random_coo(70, 70, 0.08, seed=5)


def or_and_inputs(coo, x):
    bits = coo.val.copy().view(np.uint64)
    coo2 = type(coo)(coo.shape, coo.row, coo.col, bits)
    x2 = SparseVector(x.n, x.indices, x.values.view(np.uint64))
    return coo2, x2


class TestEquivalence:
    @pytest.mark.parametrize(
        "sr", [PLUS_TIMES, OR_AND, MIN_PLUS, MAX_TIMES],
        ids=lambda s: s.name)
    def test_matches_tilespmspv(self, coo, sr):
        x = random_sparse_vector(70, 0.2, seed=6)
        if sr.dtype.kind == "u":
            coo, x = or_and_inputs(coo, x)
        y_ref = TileSpMSpV(coo, semiring=sr).multiply(
            x, output="dense")
        y = ShardedSpMSpV(coo, semiring=sr, n_shards=3).multiply(
            x, output="dense")
        if sr.dtype.kind == "u":
            assert np.array_equal(y, y_ref)
        else:
            assert np.allclose(y, y_ref)

    def test_sparse_output_and_dense_input(self, coo):
        xd = np.zeros(70)
        xd[[3, 10, 42]] = [1.0, 2.0, 0.5]
        op = ShardedSpMSpV(coo, n_shards=4)
        y = op.multiply(xd)
        y_ref = TileSpMSpV(coo).multiply(xd)
        assert np.allclose(y.to_dense(), y_ref.to_dense())

    def test_mask_and_complement(self, coo):
        x = random_sparse_vector(70, 0.2, seed=7)
        mask = np.zeros(70, dtype=bool)
        mask[::3] = True
        for comp in (False, True):
            y = ShardedSpMSpV(coo, n_shards=3).multiply(
                x, output="dense", mask=mask, mask_complement=comp)
            y_ref = TileSpMSpV(coo).multiply(
                x, output="dense", mask=mask, mask_complement=comp)
            assert np.allclose(y, y_ref)

    def test_batch_matches_looped(self, coo):
        xs = [random_sparse_vector(70, s, seed=8 + i)
              for i, s in enumerate((0.1, 0.3, 0.02))]
        op = ShardedSpMSpV(coo, n_shards=3)
        ys = op.multiply_batch(xs, output="dense")   # (B, m)
        for x, y in zip(xs, ys):
            assert np.allclose(y, TileSpMSpV(coo).multiply(
                x, output="dense"))

    def test_rectangular(self):
        coo = random_coo(90, 40, 0.1, seed=9)
        x = random_sparse_vector(40, 0.3, seed=10)
        y = ShardedSpMSpV(coo, n_shards=4).multiply(x, output="dense")
        y_ref = TileSpMSpV(coo).multiply(x, output="dense")
        assert np.allclose(y, y_ref)


class TestShardCountInvariance:
    @pytest.mark.parametrize("n_shards", [2, 4, 7])
    def test_bit_identical_to_single_shard(self, coo, n_shards):
        x = random_sparse_vector(70, 0.2, seed=11)
        y1 = ShardedSpMSpV(coo, n_shards=1).multiply(x, output="dense")
        yn = ShardedSpMSpV(coo, n_shards=n_shards).multiply(
            x, output="dense")
        assert np.array_equal(y1.view(np.uint64), yn.view(np.uint64))


class TestModeledBytes:
    def test_combine_bytes_formula(self, coo):
        dev = Device(RTX3090)
        op = ShardedSpMSpV(coo, n_shards=4, device=dev)
        op.multiply(random_sparse_vector(70, 0.2, seed=12))
        # tags may carry ;device=D;worker=W suffixes under REPRO_WORKERS
        executed = [int(r.tag.split(";")[0].split("=")[1])
                    for r in dev.timeline
                    if r.name == "sharded_spmspv_shard"]
        combine = [r for r in dev.timeline
                   if r.name == "sharded_combine"]
        assert len(combine) == 1
        expect = 2.0 * 8 * sum(op.matrix.strip_rows(s)
                               for s in executed)
        assert combine[0].counters.global_bytes == expect

    def test_schedule_launch_present(self, coo):
        dev = Device(RTX3090)
        ShardedSpMSpV(coo, n_shards=4, device=dev).multiply(
            random_sparse_vector(70, 0.2, seed=12))
        names = [r.name for r in dev.timeline]
        assert names[0] == "sharded_schedule"
        assert names[-1] == "sharded_combine"

    def test_shard_launches_tagged(self, coo):
        dev = Device(RTX3090)
        ShardedSpMSpV(coo, n_shards=4, device=dev).multiply(
            random_sparse_vector(70, 0.2, seed=12))
        for r in dev.timeline:
            if r.name in ("sharded_spmspv_shard", "shard_load"):
                assert r.tag and r.tag.startswith("shard=")


class TestResidencyAndPlans:
    def test_evicted_shard_invalidates_plan(self, coo):
        cache = PlanCache(maxsize=32)
        op = ShardedSpMSpV(coo, n_shards=4, budget_bytes=1,
                           plan_cache=cache)
        x = random_sparse_vector(70, 0.3, seed=13)
        y1 = op.multiply(x, output="dense")
        assert cache.stats()["removals"] > 0      # evictions drop plans
        y2 = op.multiply(x, output="dense")       # rebuilt, same result
        assert np.array_equal(y1, y2)
        s = op.stats()
        assert s["evictions"] > 0
        assert s["loaded_bytes"] > 0

    def test_warm_resident_set_hits(self, coo):
        op = ShardedSpMSpV(coo, n_shards=3)      # unbudgeted
        x = random_sparse_vector(70, 0.3, seed=13)
        op.multiply(x)
        op.multiply(x)
        s = op.stats()
        assert s["hits"] >= 3
        assert s["evictions"] == 0

    def test_stats_merge_scheduler_and_resident(self, coo):
        op = ShardedSpMSpV(coo, n_shards=3)
        op.multiply(random_sparse_vector(70, 0.2, seed=14))
        s = op.stats()
        for key in ("schedule_calls", "shards_executed",
                    "shards_skipped", "loads", "resident_bytes"):
            assert key in s


class TestRegistry:
    def test_create_operator(self, coo):
        op = create_operator("sharded-spmspv", coo)
        assert isinstance(op, ShardedSpMSpV)
        x = random_sparse_vector(70, 0.2, seed=15)
        assert np.allclose(
            op.multiply(x, output="dense"),
            TileSpMSpV(coo).multiply(x, output="dense"))

    def test_accepts_prebuilt_sharded_matrix(self, coo):
        sm = ShardedTiledMatrix.from_coo(coo, nt=16, n_shards=3)
        op = ShardedSpMSpV(sm)
        assert op.matrix is sm



# ----------------------------------------------------------------------
# the strip product against the in-core operator
# ----------------------------------------------------------------------
SEMIRINGS = [PLUS_TIMES, OR_AND, MIN_PLUS, MAX_TIMES]
N = 70
MASK = np.arange(N) % 3 == 0
#: (output, mask, mask_complement) of every multiply in the grid
OUTPUTS = [("sparse", None, False), ("tiled", None, False),
           ("dense", None, False), ("sparse", MASK, False),
           ("tiled", MASK, True), ("dense", MASK, True)]


def holed_coo(sr):
    """A 70x70 matrix in ``sr``'s dtype with empty rows 20..39 and no
    entry in columns 48.. — tile columns 3 and 4 at nt=16, so a vector
    there skips every shard."""
    dense = random_dense(N, N, 0.12, seed=5)
    dense[20:40] = 0.0
    dense[:, 48:] = 0.0
    coo = COOMatrix.from_dense(dense)
    if sr.dtype.kind == "u":
        return COOMatrix(coo.shape, coo.row, coo.col,
                         coo.val.view(np.uint64))
    return coo


def grid_vectors(sr):
    """Name -> input: signed random values, explicit identity values
    among real ones, identity values only, no entries, and entries only
    in tile columns no shard stores."""
    rng = np.random.default_rng(3)

    def values(k):
        if sr.dtype.kind == "u":
            return rng.integers(1, 2 ** 63, k, dtype=np.uint64)
        return rng.normal(size=k)

    idx = np.sort(rng.choice(N, 16, replace=False))
    mixed = values(16)
    mixed[::2] = sr.add_identity
    return {
        "random": SparseVector(N, idx, values(16)),
        "identity": SparseVector(N, idx, mixed),
        "only-identity": SparseVector(
            N, idx[:4], np.full(4, sr.add_identity, dtype=sr.dtype)),
        "empty": SparseVector(N, np.zeros(0, dtype=np.int64),
                              np.zeros(0, dtype=sr.dtype)),
        "skips-all": SparseVector(N, np.array([50, 61, 69]), values(3)),
    }


def raw(a):
    return np.ascontiguousarray(a).view(np.uint8).tobytes()


def assert_same(got, want, what):
    """Bit-identical results of the same type."""
    assert type(got) is type(want), what
    if isinstance(want, SparseVector):
        assert got.n == want.n, what
        assert np.array_equal(got.indices, want.indices), what
        assert got.values.dtype == want.values.dtype, what
        assert raw(got.values) == raw(want.values), what
    elif isinstance(want, TiledVector):
        assert (got.n, got.nt) == (want.n, want.nt), what
        assert np.array_equal(got.x_ptr, want.x_ptr), what
        assert raw(got.x_tile) == raw(want.x_tile), what
    else:
        assert got.dtype == want.dtype, what
        assert raw(got) == raw(want), what


def sharded(coo, sr, n_shards, store_dir=None, parallel=1, device=None,
            budget_bytes=None):
    sm = ShardedTiledMatrix.from_coo(coo, nt=16, n_shards=n_shards,
                                     store_dir=store_dir)
    if store_dir is not None:
        sm = ShardedTiledMatrix.open(store_dir, budget_bytes=budget_bytes)
    else:
        sm.resident.budget_bytes = budget_bytes
    return ShardedSpMSpV(sm, semiring=sr, parallel=parallel,
                         device=device, plan_cache=PlanCache())


def dense_strip_shard(host, sid, xs, batched, with_counters,
                      spmm_selector=None, device=0, worker=""):
    """The per-shard step as a dense strip: the tile kernel into a
    strip-length accumulator, then a scan for its non-identity rows."""
    sr = host.semiring
    plan, loaded, evicted = host.acquire_shard(sid)
    try:
        A = plan.data["tiled"]
        xts = [xt for xt, _ in xs]
        if batched:
            Ys, counters = batched_union_kernel(
                A, xts, semiring=sr, with_counters=with_counters)
        else:
            y, counters = tiled_kernel(A, xts[0], semiring=sr,
                                       with_counters=with_counters)
            Ys = [y]
    finally:
        host.release_shard(sid, plan)
    outs = []
    for y in Ys:
        idx = np.flatnonzero(~sr.is_identity(y))
        outs.append((idx, y[idx]))
    return ShardResult(sid, device, worker, outs, counters, loaded,
                       evicted)


@pytest.fixture
def closing():
    """Register engines whose worker pools must close after the test."""
    ops = []
    yield ops.append
    for op in ops:
        if op._executor is not None:
            op._executor.close()


class TestStripProduct:
    """``multiply`` and ``multiply_batch`` give the in-core operator's
    bits in every semiring, output mode, shard count, store and worker
    count; in-memory stores run the thread backend, directory stores
    the process backend."""

    @pytest.mark.parametrize("parallel", [1, 4])
    @pytest.mark.parametrize("store", ["memory", "directory"])
    @pytest.mark.parametrize("sr", SEMIRINGS, ids=lambda s: s.name)
    def test_matches_in_core(self, sr, store, parallel, tmp_path,
                             closing):
        coo = holed_coo(sr)
        ref = TileSpMSpV(coo, extract_threshold=0, semiring=sr,
                         plan_cache=PlanCache())
        xs = grid_vectors(sr)
        batch = list(xs.values())
        for n_shards in (1, 3):
            op = sharded(coo, sr, n_shards, parallel=parallel,
                         store_dir=(tmp_path / f"s{n_shards}"
                                    if store == "directory" else None))
            closing(op)
            for name, x in xs.items():
                for output, mask, comp in OUTPUTS:
                    assert_same(
                        op.multiply(x, output=output, mask=mask,
                                    mask_complement=comp),
                        ref.multiply(x, output=output, mask=mask,
                                     mask_complement=comp),
                        (n_shards, name, output, mask is not None, comp))
            for output in ("sparse", "dense"):
                got = op.multiply_batch(batch, output=output)
                want = ref.multiply_batch(batch, output=output)
                if output == "dense":
                    got, want = [got], [want]
                for g, w in zip(got, want):
                    assert_same(g, w, (n_shards, "batch", output))

    def test_scheduler_sees_explicit_identity_tiles(self):
        """A tile column holding only identity values is active, as in
        ``x_ptr``: the sparse route executes and loads the same shards
        as the tiled one."""
        coo = holed_coo(PLUS_TIMES)
        x = grid_vectors(PLUS_TIMES)["only-identity"]
        stats = []
        for form in (x, as_tiled_vector(x, 16, 0.0)):
            op = sharded(coo, PLUS_TIMES, 3)
            y = op.multiply(form)
            assert y.nnz == 0
            stats.append(op.stats())
        assert stats[0]["shards_executed"] > 0
        for key in ("shards_executed", "shards_skipped", "loads"):
            assert stats[0][key] == stats[1][key]

    @pytest.mark.parametrize("store,parallel",
                             [("memory", 1), ("directory", 1),
                              ("memory", 4)])
    @pytest.mark.parametrize("sr", SEMIRINGS, ids=lambda s: s.name)
    def test_counters_on_timeline_matches_dense_strip(
            self, sr, store, parallel, tmp_path, monkeypatch, closing):
        """Launch for launch — names, tags, counters, order — and bit
        for bit, the strip product's counters-on run is the dense-strip
        run's, faults and evictions included (sequential runs hold a
        one-shard budget)."""
        coo = holed_coo(sr)
        xs = list(grid_vectors(sr).values())

        def run(path):
            dev = Device()
            budget = 1 if parallel == 1 else None
            op = sharded(coo, sr, 3, parallel=parallel, device=dev,
                         budget_bytes=budget,
                         store_dir=(tmp_path / path
                                    if store == "directory" else None))
            closing(op)
            out = [op.multiply(x, output=o, mask=m, mask_complement=c)
                   for x in xs for o, m, c in OUTPUTS]
            out += op.multiply_batch(xs, tag="batch")
            out.append(op.multiply_batch(xs, output="dense"))
            return out, dev.timeline

        with monkeypatch.context() as patch:
            patch.setattr(engine, "execute_shard", dense_strip_shard)
            patch.setattr(executor, "execute_shard", dense_strip_shard)
            want, want_timeline = run("dense")
        got, got_timeline = run("strip")
        assert got_timeline == want_timeline
        assert any(r.name == "shard_load" for r in got_timeline)
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, i)
