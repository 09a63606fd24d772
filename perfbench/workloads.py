"""The four benchmark workloads.

Each workload builds its fixed matrices and draws its op stream from the
seed (never timed), prepares the program's operators (timed as set-up),
runs one op per call (timed), checks sampled outputs against an oracle,
and prices a fixed prefix of its op stream on a simulated device (the
counters-on pass).

The matrices do not depend on the seed, as the paper's matrices are a
fixed collection: a run-to-run difference then comes from the program
and the host, not from a different graph.  The seed draws the vectors,
sources and request mix.

Everything here talks to ``repro`` through its public constructors and
methods; the per-layer numbers come from :mod:`perfbench.shims`.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from repro import Device, TileBFS, TileSpMSpV
from repro.core.batched import BatchedSpMSpV
from repro.fastpath.fused_bfs import bfs_layout
from repro.graphs import bfs_levels
from repro.graphs.pagerank import pagerank
from repro.matrices import erdos_renyi, rmat, road_network
from repro.runtime import PlanCache
from repro.serving import (BFSQuery, GraphQueryService, MultiplyQuery,
                           PageRankQuery, VirtualClock)
from repro.shards import ShardedSpMSpV, ShardedTiledMatrix
from repro.vectors import SparseVector

#: Generator seed of every workload's matrices.
MATRIX_SEED = 0

#: Ops per stratified block: each block draws one density from each of
#: this many equal slices of the log range, in shuffled order.
STRATA = 32


def stratified_loguniform(rng, lo: float, hi: float,
                          count: int) -> np.ndarray:
    """``count`` draws, log-uniform on ``[lo, hi]``, stratified in
    blocks of :data:`STRATA` so every block covers the whole range."""
    blocks = -(-count // STRATA)
    u = np.concatenate([(rng.permutation(STRATA) + rng.random(STRATA))
                        / STRATA for _ in range(blocks)])[:count]
    return lo * (hi / lo) ** u


def random_support(rng, n: int, k: int, lo: int = 0,
                   hi: Optional[int] = None) -> SparseVector:
    """About ``k`` distinct indices drawn in ``[lo, hi)``, values in
    (0, 1]."""
    hi = n if hi is None else hi
    idx = np.unique(rng.integers(lo, hi, max(1, k)))
    return SparseVector(n, idx, 1.0 - rng.random(len(idx)))


def col_nnz(coo) -> np.ndarray:
    return np.bincount(coo.col, minlength=coo.shape[1])


def useful_flops(colnnz: np.ndarray, x: SparseVector) -> float:
    """2 x matched nonzeros: the numerator of the paper's GFlops."""
    return 2.0 * float(colnnz[x.indices].sum())


def device_summary(recs, n_ops: int, useful: float) -> Dict:
    """Per-op modeled time, bytes and launches of a counters-on pass
    from its launch records."""
    flops = sum(r.counters.flops for r in recs)
    return {
        "modeled_ms_per_op": sum(r.ms for r in recs) / n_ops,
        "bytes_per_op": sum(r.counters.global_bytes for r in recs)
        / n_ops,
        "launches_per_op": sum(r.counters.launches for r in recs) / n_ops,
        "useful_flop_frac": useful / flops if flops else 0.0,
    }


def same_sparse(a: SparseVector, b: SparseVector) -> bool:
    return (np.array_equal(a.indices, b.indices)
            and np.array_equal(a.values, b.values))


class Workload:
    """One closed-loop stream of ops over a prepared operator."""

    name = ""
    #: Percentile reported as ``op_tail_ms`` (lowered at run time only
    #: if fewer than ten samples lie beyond it).
    tail_pct = 99.0
    #: Fresh set-up builds per run; ``setup_s`` is their median.
    setup_reps = 3
    #: Ops in the counters-on pass (the first ops of the stream).
    fixed_ops = 32
    #: Upper bound on ops per second, sizing the pre-generated stream.
    max_rate = 400
    #: Keep every this-many-th timed op for the output check.
    check_every = 25
    #: Most outputs checked per run.
    max_checks = 24

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def inputs(self) -> Dict:
        raise NotImplementedError

    def stream(self, inp: Dict, rng, count: int) -> List:
        raise NotImplementedError

    def setup(self, inp: Dict, rep: int):
        raise NotImplementedError

    def run(self, state, op):
        raise NotImplementedError

    def check(self, inp: Dict, op, result) -> bool:
        raise NotImplementedError

    def fixed_pass(self, inp: Dict, state, ops: List) -> Dict:
        raise NotImplementedError

    def settle(self, state) -> None:
        """Untimed work after each set-up build, before its timed
        chunk."""

    def timed(self, state, ops: List, seconds: float, first: int) -> Dict:
        """Single-client closed loop for ``seconds``: run ops back to
        back from stream index ``first``, cycling the stream if it runs
        out."""
        lat, samples, failed = [], [], 0
        clock = time.perf_counter
        start = clock()
        deadline = start + seconds
        i = first
        while True:
            op = ops[i % len(ops)]
            t0 = clock()
            try:
                result = self.run(state, op)
            except Exception:
                traceback.print_exc()
                failed += 1
                result = None
            t1 = clock()
            if result is not None:
                lat.append(t1 - t0)
                if i % self.check_every == 0 \
                        and len(samples) < self.max_checks:
                    samples.append((op, result))
            i += 1
            if t1 >= deadline:
                break
        return {"latencies": lat, "wall": clock() - start,
                "attempted": i - first, "failed": failed,
                "samples": samples, "next": i, "layer": {}}


# ----------------------------------------------------------------------
class SpMSpVSweep(Workload):
    """Single-vector multiplies with nnz(x)/n log-uniform on
    [1e-4, 1e-1] over an R-MAT scale-16 graph."""

    name = "spmspv-sweep"
    tail_pct = 98.0
    max_rate = 150

    def inputs(self):
        A = rmat(16, 16, seed=MATRIX_SEED)
        csr = sp.csr_matrix((A.val, (A.row, A.col)), shape=A.shape)
        return {"A": A, "csr": csr, "colnnz": col_nnz(A)}

    def stream(self, inp, rng, count):
        n = inp["A"].shape[1]
        dens = stratified_loguniform(rng, 1e-4, 1e-1, count)
        return [random_support(rng, n, int(round(d * n))) for d in dens]

    def setup(self, inp, rep):
        return TileSpMSpV(inp["A"])

    def run(self, op, x):
        return op.multiply(x)

    def check(self, inp, x, y):
        ref = inp["csr"] @ x.to_dense()
        got = np.zeros_like(ref)
        got[y.indices] = y.values
        return bool(np.allclose(got, ref, rtol=1e-12, atol=0.0))

    def fixed_pass(self, inp, state, ops):
        dev = Device()
        op = TileSpMSpV(inp["A"], device=dev)
        useful = 0.0
        for x in ops:
            op.multiply(x)
            useful += useful_flops(inp["colnnz"], x)
        return device_summary(dev.timeline, len(ops), useful)


# ----------------------------------------------------------------------
class BFSGiant(Workload):
    """Fused-tier TileBFS traversals from non-isolated sources of an
    R-MAT scale-16 graph."""

    name = "bfs-giant"
    tail_pct = 95.0
    fixed_ops = 6
    max_rate = 40
    check_every = 10
    max_checks = 8

    def inputs(self):
        A = rmat(16, 16, seed=MATRIX_SEED)
        return {"A": A, "csc": A.to_csc(),
                "sources": np.flatnonzero(col_nnz(A))}

    def stream(self, inp, rng, count):
        return [int(s) for s in rng.choice(inp["sources"], size=count)]

    def setup(self, inp, rep):
        t0 = time.perf_counter()
        op = TileBFS(inp["A"])
        t1 = time.perf_counter()
        bfs_layout(op)
        t2 = time.perf_counter()
        self.parts = {"bfs_plan_s": t1 - t0, "layout_s": t2 - t1}
        return op

    def run(self, op, source):
        return op.run(source)

    def check(self, inp, source, result):
        return bool(np.array_equal(result.levels,
                                   bfs_levels(inp["csc"], source)))

    def fixed_pass(self, inp, state, ops):
        dev = Device()
        op = TileBFS(inp["A"], device=dev)
        kernels: Dict[str, int] = {}
        layers, reached = 0, []
        for s in ops:
            res = op.run(s)
            layers += len(res.iterations)
            reached.append(res.n_reached)
            for it in res.iterations:
                kernels[it.kernel] = kernels.get(it.kernel, 0) + 1
        out = device_summary(dev.timeline, len(ops), 0.0)
        out.update(layers_per_op=layers / len(ops),
                   kernel_layers=kernels, reached=reached)
        return out


# ----------------------------------------------------------------------
#: Request mix per block of 50 requests (80/12/6/2 %): every block
#: holds exactly these counts, in shuffled order.
MIX = (("multiply-hot", 40), ("multiply-cold", 6), ("bfs-hot", 3),
       ("pagerank-hot", 1))


def mixed_kinds(rng, count: int) -> List[str]:
    block = [name for name, k in MIX for _ in range(k)]
    blocks = -(-count // len(block))
    return [block[i] for _ in range(blocks)
            for i in rng.permutation(len(block))][:count]


class ServeClosed(Workload):
    """A closed loop of 32 async clients against GraphQueryService on
    the wall clock: coalesced multiplies plus inline BFS / PageRank."""

    name = "serve-closed"
    tail_pct = 99.0
    clients = 32
    max_batch = 16
    max_delay_ms = 2.0
    fixed_ops = 250
    #: Virtual inter-arrival of the counters-on replay (seconds).
    replay_gap_s = 1.0 / 190.0
    max_rate = 400
    check_every = 40

    def inputs(self):
        hot = rmat(14, 16, seed=MATRIX_SEED)
        mats = {"hot": hot,
                "cold0": erdos_renyi(4096, 8, seed=MATRIX_SEED + 1),
                "cold1": erdos_renyi(4096, 8, seed=MATRIX_SEED + 2)}
        return {"mats": mats,
                "colnnz": {k: col_nnz(m) for k, m in mats.items()},
                "sources": np.flatnonzero(col_nnz(hot))}

    def stream(self, inp, rng, count):
        dens = stratified_loguniform(rng, 1e-3, 1e-1, count)
        out = []
        for name, d in zip(mixed_kinds(rng, count), dens):
            if name == "multiply-hot":
                mat = "hot"
            elif name == "multiply-cold":
                mat = f"cold{rng.integers(2)}"
            elif name == "bfs-hot":
                out.append(BFSQuery("hot", int(rng.choice(inp["sources"]))))
                continue
            else:
                out.append(PageRankQuery("hot"))
                continue
            n = inp["mats"][mat].shape[1]
            out.append(MultiplyQuery(
                mat, random_support(rng, n, int(round(d * n)))))
        return out

    def _service(self, inp, **kwargs) -> GraphQueryService:
        svc = GraphQueryService(max_batch=self.max_batch,
                                max_delay_ms=self.max_delay_ms, **kwargs)
        svc.register_matrix("hot", inp["mats"]["hot"], pin=True)
        svc.register_matrix("cold0", inp["mats"]["cold0"])
        svc.register_matrix("cold1", inp["mats"]["cold1"])
        svc.submit_nowait(BFSQuery("hot", int(inp["sources"][0])))
        svc.submit_nowait(PageRankQuery("hot"))
        return svc

    def setup(self, inp, rep):
        return self._service(inp)

    def timed(self, svc, ops, seconds, first):
        return asyncio.run(self._closed_loop(svc, ops, seconds, first))

    async def _closed_loop(self, svc, ops, seconds, first):
        clock = time.perf_counter
        lat, samples = [], []
        counts = {"attempted": 0, "failed": 0, "next": first}
        stalls = []

        async def client():
            while clock() < deadline:
                i = counts["next"]
                counts["next"] += 1
                q = ops[i % len(ops)]
                counts["attempted"] += 1
                t0 = clock()
                try:
                    result = await svc.submit(q)
                except Exception:
                    traceback.print_exc()
                    counts["failed"] += 1
                    continue
                lat.append(clock() - t0)
                if i % self.check_every == 0 \
                        and len(samples) < self.max_checks:
                    samples.append((q, result))

        async def heartbeat():
            # how late a 1 ms timer fires: the event-loop stall
            while clock() < deadline:
                t0 = clock()
                await asyncio.sleep(1e-3)
                stalls.append(clock() - t0 - 1e-3)

        await svc.start()
        start = clock()
        deadline = start + seconds
        beat = asyncio.create_task(heartbeat())
        await asyncio.gather(*(client() for _ in range(self.clients)))
        wall = clock() - start
        await beat
        await svc.stop(drain=True)
        stats = svc.stats()
        queues = stats["queues"].values()
        batches = sum(q["batches"] for q in queues)
        layer = {
            "rejected": stats["rejected"],
            "errors": counts["failed"],
            "batch_size_mean": (sum(q["dispatched"] for q in queues)
                                / batches if batches else 0.0),
            "loop_stall_max_ms": max(stalls, default=0.0) * 1e3,
        }
        return {"latencies": lat, "wall": wall,
                "attempted": counts["attempted"],
                "failed": counts["failed"], "samples": samples,
                "next": counts["next"], "layer": layer}

    def _oracle(self, inp, kind: str, name: str):
        """Direct engines on a private plan cache, built once per run."""
        cache = inp.setdefault("oracles", {})
        if (kind, name) not in cache:
            engine = BatchedSpMSpV if kind == "multiply" else TileBFS
            cache[(kind, name)] = engine(inp["mats"][name],
                                         plan_cache=PlanCache())
        return cache[(kind, name)]

    def check(self, inp, q, result):
        if isinstance(q, MultiplyQuery):
            ref = self._oracle(inp, "multiply", q.matrix).multiply(q.x)
            return same_sparse(result, ref)
        if isinstance(q, BFSQuery):
            ref = self._oracle(inp, "bfs", q.matrix).run(q.source)
            return bool(np.array_equal(result.levels, ref.levels))
        ranks, iters = pagerank(inp["mats"][q.matrix], damping=q.damping,
                                tol=q.tol, max_iter=q.max_iter)
        return bool(np.array_equal(result[0], ranks)
                    and result[1] == iters)

    def fixed_pass(self, inp, state, ops):
        """Replay the stream prefix on a virtual clock with a device:
        deterministic batches, modeled time per request."""
        dev = Device()
        clock = VirtualClock()
        svc = self._service(inp, device=dev, clock=clock)
        mark = dev.split()
        useful = 0.0
        for q in ops:
            svc.submit_nowait(q)
            clock.advance(self.replay_gap_s)
            svc.pump()
            if isinstance(q, MultiplyQuery):
                useful += useful_flops(inp["colnnz"][q.matrix], q.x)
        svc.drain()
        out = device_summary(dev.records_since(mark), len(ops), useful)
        out["replay_batches"] = sum(
            s["batches"] for s in svc.stats()["queues"].values())
        return out


# ----------------------------------------------------------------------
class ShardLocal(Workload):
    """Localized multiplies over a row-strip sharded grid read from a
    shard directory under a 30 % resident byte budget."""

    name = "shard-local"
    tail_pct = 99.0
    grid = 768
    n_shards = 32
    budget_frac = 0.30
    fixed_ops = 64
    max_rate = 400
    check_every = 50

    def inputs(self):
        A = road_network(self.grid, rewire=0.0, seed=MATRIX_SEED)
        return {"A": A, "colnnz": col_nnz(A)}

    def stream(self, inp, rng, count):
        n = inp["A"].shape[1]
        width = np.rint(4000 * 10 ** rng.random(count)).astype(np.int64)
        middle = rng.random(count) < 0.8
        centre = np.where(middle,
                          rng.uniform(0.4 * n, 0.6 * n, count),
                          rng.uniform(0, n, count)).astype(np.int64)
        lo = np.clip(centre - width // 2, 0, n - width)
        return [random_support(rng, n, int(round(0.05 * w)), int(a),
                               int(a + w))
                for a, w in zip(lo, width)]

    def setup(self, inp, rep):
        store = self.workdir / f"shards{rep}"
        for old in self.workdir.glob("shards*"):
            shutil.rmtree(old)
        written = ShardedTiledMatrix.from_coo(inp["A"], nt=16,
                                              n_shards=self.n_shards,
                                              store_dir=store)
        self.store = store
        self.budget = int(self.budget_frac * written.total_tile_bytes)
        return TileSpMSpV(ShardedTiledMatrix.open(
            store, budget_bytes=self.budget))

    def settle(self, op):
        # flush the freshly written store so write-back does not land
        # in a timed chunk
        for path in self.store.rglob("*"):
            if path.is_file():
                with open(path, "rb") as fh:
                    os.fsync(fh.fileno())

    def run(self, op, x):
        return op.multiply(x)

    def check(self, inp, x, y):
        if "incore" not in inp:
            inp["incore"] = TileSpMSpV(inp["A"], extract_threshold=0,
                                       plan_cache=PlanCache())
        ref = inp["incore"].multiply(x)
        return bool(np.array_equal(ref.indices, y.indices)
                    and np.allclose(ref.values, y.values, rtol=1e-12,
                                    atol=0.0))

    def fixed_pass(self, inp, state, ops):
        dev = Device()
        op = ShardedSpMSpV(ShardedTiledMatrix.open(
            self.store, budget_bytes=self.budget),
            device=dev, plan_cache=PlanCache())
        useful = 0.0
        for x in ops:
            op.multiply(x)
            useful += useful_flops(inp["colnnz"], x)
        out = device_summary(dev.timeline, len(ops), useful)
        st = op.stats()
        out.update(loads=st["loads"], hits=st["hits"],
                   executed=st["shards_executed"],
                   skipped=st["shards_skipped"])
        return out


WORKLOADS = {w.name: w for w in (SpMSpVSweep, BFSGiant, ServeClosed,
                                  ShardLocal)}
