#!/usr/bin/env python
"""Out-of-core streaming demo: a scale-20+ R-MAT through the sharded
engine under a resident-set budget smaller than the total tile bytes.

The matrix (2**scale vertices, power-law degrees) is partitioned into
row-strip shards written as mmap tile directories; the resident-set
manager is budgeted to a fraction of the total tile footprint, so a
full SpMSpV or BFS *must* stream shards through memory — exactly the
regime where a dense representation (2**40 * 8 bytes at scale 20) is
unrepresentable.  Prints per-phase scheduler skip counts and the
resident-set load/evict traffic.

Usage::

    PYTHONPATH=src python benchmarks/bench_sharded_streaming.py \
        [--scale 20] [--edge-factor 8] [--shards 16] \
        [--budget-fraction 0.25] [--store DIR] [--workers 1,2,4]

With ``--workers`` the whole workload repeats per worker count (each
count reopens the store cold): multi-worker runs execute shards on the
parallel pool and additionally report the modeled multi-device
critical-path speedup from the replayed timeline.
"""

import argparse
import pathlib
import sys
import tempfile
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

try:
    from repro.core import TileBFS, TileSpMSpV
except ImportError:  # direct invocation without PYTHONPATH=src
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.core import TileBFS, TileSpMSpV

from repro.matrices.generators import rmat
from repro.runtime import ExecutionContext
from repro.shards import ShardedTiledMatrix
from repro.vectors import random_sparse_vector


def fmt_bytes(n: float) -> str:
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if n < 1024 or unit == "TiB":
            return f"{n:.1f} {unit}"
        n /= 1024
    return f"{n:.1f} TiB"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=int, default=20,
                        help="RMAT scale (2**scale vertices; default 20)")
    parser.add_argument("--edge-factor", type=int, default=8)
    parser.add_argument("--nt", type=int, default=16)
    parser.add_argument("--shards", type=int, default=16)
    parser.add_argument("--budget-fraction", type=float, default=0.25,
                        help="resident-set budget as a fraction of the "
                             "total tile bytes (default 0.25)")
    parser.add_argument("--store", type=pathlib.Path, default=None,
                        help="shard directory (default: a temp dir)")
    parser.add_argument("--sparsities", default="0.00001,0.0001,0.001",
                        help="comma-separated input sparsities for the "
                             "SpMSpV sweep")
    parser.add_argument("--source", type=int, default=0,
                        help="BFS source vertex")
    parser.add_argument("--workers", default="1",
                        help="comma-separated worker counts to sweep "
                             "(default 1; e.g. 1,2,4)")
    args = parser.parse_args(argv)
    worker_counts = [max(1, int(w)) for w in args.workers.split(",")]

    n = 1 << args.scale
    dense_bytes = float(n) * n * 8
    print(f"RMAT scale={args.scale} edge_factor={args.edge_factor}: "
          f"n={n}, dense would need {fmt_bytes(dense_bytes)} — "
          f"only the sharded tiled form is materializable")

    t0 = time.perf_counter()
    coo = rmat(args.scale, edge_factor=args.edge_factor, seed=7)
    print(f"generated nnz={coo.nnz} in {time.perf_counter() - t0:.1f}s")

    store_ctx = (tempfile.TemporaryDirectory(prefix="shards-")
                 if args.store is None else None)
    store_dir = (pathlib.Path(store_ctx.name) if store_ctx
                 else args.store)
    try:
        t0 = time.perf_counter()
        sm = ShardedTiledMatrix.from_coo(
            coo, nt=args.nt, n_shards=args.shards,
            store_dir=store_dir)
        total = sm.total_tile_bytes
        budget = max(1, int(total * args.budget_fraction))
        print(f"partitioned into {args.shards} shards "
              f"({fmt_bytes(total)} on disk) in "
              f"{time.perf_counter() - t0:.1f}s; resident budget "
              f"{fmt_bytes(budget)} "
              f"({100 * args.budget_fraction:.0f}% of tile bytes)")

        for w in worker_counts:
            # reopen per worker count: every sweep streams from cold
            sm = ShardedTiledMatrix.open(store_dir, budget_bytes=budget)
            print(f"-- workers={w} --")

            # ---- SpMSpV sweep ----------------------------------------
            op = TileSpMSpV(sm, parallel=w)
            print(f"{'sparsity':>10} {'nnz(y)':>9} {'ms':>9} "
                  f"{'exec':>5} {'skip':>5} {'loaded':>10} "
                  f"{'evicted':>10}")
            for s in (float(f) for f in args.sparsities.split(",")):
                before = op._sharded.stats()
                x = random_sparse_vector(n, s, seed=11)
                t0 = time.perf_counter()
                y = op.multiply(x)
                ms = (time.perf_counter() - t0) * 1e3
                after = op._sharded.stats()
                print(f"{s:>10g} {y.nnz:>9} {ms:>9.1f} "
                      f"{after['shards_executed'] - before['shards_executed']:>5} "
                      f"{after['shards_skipped'] - before['shards_skipped']:>5} "
                      f"{fmt_bytes(after['loaded_bytes'] - before['loaded_bytes']):>10} "
                      f"{fmt_bytes(after['evicted_bytes'] - before['evicted_bytes']):>10}")

            # ---- BFS end-to-end --------------------------------------
            ctx = ExecutionContext(mode="production")
            bfs = TileBFS(sm, device=ctx, parallel=w)
            t0 = time.perf_counter()
            res = bfs.run(args.source)
            ms = (time.perf_counter() - t0) * 1e3
            reached = int((res.levels >= 0).sum())
            stats = bfs._sharded.stats()
            print(f"BFS from {args.source}: {reached}/{n} reached in "
                  f"{len(res.iterations)} layers, {ms:.1f} ms host")
            print(f"  scheduler: {stats['schedule_calls']} passes, "
                  f"{stats['shards_executed']} shard executions, "
                  f"{stats['shards_skipped']} skipped")
            print(f"  resident set: {stats['loads']} loads "
                  f"({fmt_bytes(stats['loaded_bytes'])}), "
                  f"{stats['hits']} hits, {stats['evictions']} evictions "
                  f"({fmt_bytes(stats['evicted_bytes'])}), "
                  f"{fmt_bytes(stats['resident_bytes'])} resident of "
                  f"{fmt_bytes(stats['budget_bytes'])} budget")
            if w > 1:
                mt = bfs._sharded.multi_timeline(w)
                print(f"  modeled: critical path "
                      f"{mt.critical_path_ms:.3f} ms of "
                      f"{mt.sum_of_work_ms:.3f} ms total work = "
                      f"{mt.modeled_speedup:.2f}x on {w} devices")
            assert stats["evictions"] > 0, \
                "budget never bound — not an out-of-core run"
    finally:
        if store_ctx is not None:
            store_ctx.cleanup()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
