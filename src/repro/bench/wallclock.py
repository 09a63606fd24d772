"""Wall-clock microbenchmarks of the matched-entry execution engine.

Everything else under :mod:`repro.bench` reports *simulated* GPU time
from the cost model; this module times the **host** NumPy execution
with ``time.perf_counter`` — the cost the matched-entry engine attacks.
Each workload runs both the production path and the preserved O(nnz)
seed oracles (:mod:`repro.core.reference_kernels`) on identical inputs,
so the recorded speedup is exactly the host-side win of gathering the
entries whose x slot is set instead of masking all ``nnz`` entries.
The ``multiply`` rows time :meth:`~repro.core.TileSpMSpV.multiply`
itself (counters off) against the seed kernel of its form, and the
``bfs_kernels`` rows each fused TileBFS layer kernel against its seed
kernel (:mod:`repro.core.reference_bfs_kernels`); each sample of both is
a loop of ``loops`` calls long enough to clear :data:`NOISE_FLOOR_MS`.

``benchmarks/bench_wallclock.py`` is the CLI wrapper; it writes the
results to ``BENCH_wallclock.json`` so every PR leaves a perf data
point behind (see the developer guide, "Matched-entry execution &
wall-clock benchmarking").
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.msbfs import MultiSourceBFS
from ..core.reference_bfs_kernels import (reference_msbfs_expand,
                                          reference_pull_csc_kernel,
                                          reference_push_csc_kernel,
                                          reference_push_csr_kernel)
from ..core.reference_kernels import (reference_csc_tiled_kernel,
                                      reference_tiled_kernel)
from ..core.spmm_kernels import (spmm_merge_path_kernel,
                                 spmm_row_warp_kernel)
from ..core.spmspv import TileSpMSpV
from ..core.spmspv_kernels import tiled_kernel
from ..core.tilebfs import TileBFS
from ..fastpath import fastpath_tier
from ..fastpath.fused_bfs import bfs_layout
from ..fastpath.fused_layers import (fused_pull_csc, fused_push_csc,
                                     fused_push_csr)
from ..gpusim import KernelCounters
from ..matrices.generators import rmat
from ..shards.engine import ShardedSpMSpV
from ..tiles.bitmask import BitVector
from ..tiles.tiled_matrix import TiledMatrix
from ..tiles.tiled_vector import TiledVector
from ..vectors.dense_block import DenseBlock
from ..vectors.sparse_vector import SparseVector

__all__ = ["run_wallclock", "check_regression", "known_sections"]


def _best_ms(fn: Callable[[], object], repeats: int) -> float:
    """Best-of-``repeats`` wall time in milliseconds (best-of is the
    standard low-noise estimator for short deterministic kernels)."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def _loop_ms(fns: Sequence[Callable[[], object]], repeats: int,
             floor_ms: float) -> tuple:
    """``(K, [best ms of K calls of fn for fn in fns])``, with ``K`` the
    fewest calls that keep the faster side's sample at twice
    ``floor_ms`` — so a sub-floor kernel still yields a row the
    regression guard compares, and timer noise stays a small part of
    each sample.  The sides' samples are interleaved, so a slow spell
    of a shared host lands on both sides of the ratio."""
    once = min(_best_ms(fn, repeats) for fn in fns)
    k = max(1, math.ceil(2.0 * floor_ms / once)) if once > 0 else 1
    best = [float("inf")] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            best[i] = min(best[i], _best_ms(
                lambda: [fn() for _ in range(k)], 1))
    return k, best


def _frontier(n: int, density: float, nt: int,
              rng: np.random.Generator) -> TiledVector:
    k = max(1, int(round(n * density)))
    idx = rng.choice(n, size=k, replace=False)
    return TiledVector.from_sparse(idx, 1.0 + rng.random(k), n, nt)


def _bitmask_frontier(n: int, density: float, nt: int,
                      rng: np.random.Generator) -> BitVector:
    k = max(1, int(round(n * density)))
    idx = rng.choice(n, size=k, replace=False)
    return BitVector.from_indices(np.sort(idx), n, nt)


def _bfs_kernel_rows(bfs: TileBFS, densities: Sequence[float],
                     visited_fractions: Sequence[float], repeats: int,
                     rng: np.random.Generator, say) -> list:
    """Per-kernel BFS breakdown: each fused layer kernel of the plan's
    :func:`~repro.fastpath.fused_bfs.bfs_layout`, forced on synthetic
    frontier / visited states, against its seed kernel.

    ``bfs`` must be side-free (``extract_threshold=0``): the NumPy
    Push-CSR sweep folds extracted side edges in, and the seed kernels
    know nothing of them, so only then do both sides compute the same
    layer.  The fused side runs as the layer loop runs it — clear the
    result, then one call on the frontier indices the previous layer
    produced.  Samples are interleaved loops of ``loops`` calls
    (:func:`_loop_ms`).

    K1/K2 sweep the frontier densities of the multiply section (with a
    visited set a little larger than the frontier, as mid-traversal);
    K3 only makes sense near the end of a traversal, so it sweeps high
    visited fractions instead.
    """
    n, nt = bfs.n, bfs.nt
    layout = bfs_layout(bfs)
    use_numba = fastpath_tier() == "numba"
    y = BitVector.zeros(n, nt)
    rows = []
    cases = []
    for density in densities:
        cases.append(("push_csc", density, min(1.0, density * 2.5)))
        cases.append(("push_csr", density, min(1.0, density * 2.5)))
    for vf in visited_fractions:
        cases.append(("pull_csc", 0.02, vf))
    for kernel, density, vf in cases:
        x = _bitmask_frontier(n, density, nt, rng)
        m = _bitmask_frontier(n, vf, nt, rng)
        m |= x                   # the frontier is always visited
        frontier = x.to_indices()
        layer = {
            "push_csc": (lambda: fused_push_csc(layout, frontier, m, y,
                                                use_numba),
                         lambda: reference_push_csc_kernel(bfs.A1, x, m)),
            "push_csr": (lambda: fused_push_csr(layout, frontier, x, m,
                                                y, use_numba),
                         lambda: reference_push_csr_kernel(bfs.A2, x, m)),
            "pull_csc": (lambda: fused_pull_csc(layout, m, y, use_numba),
                         lambda: reference_pull_csc_kernel(bfs.A1, x, m)),
        }
        fused, ref_fn = layer[kernel]

        def new_fn():
            y.clear()
            fused()

        say(f"bfs kernel {kernel} density={density:g} visited={vf:g}")
        new_fn()
        assert np.array_equal(y.words, ref_fn()[0].words), kernel
        loops, (new_ms, ref_ms) = _loop_ms((new_fn, ref_fn), repeats,
                                           NOISE_FLOOR_MS)
        rows.append({
            "kernel": kernel,
            "density": density,
            "visited_fraction": vf,
            "loops": loops,
            "ref_ms": ref_ms,
            "new_ms": new_ms,
            "speedup": ref_ms / new_ms if new_ms > 0 else float("inf"),
        })
    return rows


def _seed_tilebfs_ms(bfs: TileBFS, source: int, repeats: int) -> Dict:
    """The seed ``TileBFS.run`` loop, replayed over the same plan with
    the oracle kernels: per-layer ``BitVector`` allocation, double
    index conversion, ``m.count()``, O(n) side-kernel scratch — the
    baseline the fused layer loop is measured against."""
    impls = {"push_csc": lambda x, m: reference_push_csc_kernel(
                 bfs.A1, x, m),
             "push_csr": lambda x, m: reference_push_csr_kernel(
                 bfs.A2, x, m),
             "pull_csc": lambda x, m: reference_pull_csc_kernel(
                 bfs.A1, x, m)}

    def side_kernel(x, m, y):
        counters = KernelCounters(launches=1)
        src_active = np.zeros(bfs.side.nnz, dtype=bool)
        frontier = x.to_indices()
        if len(frontier):
            in_frontier = np.zeros(bfs.n, dtype=bool)
            in_frontier[frontier] = True
            src_active = in_frontier[bfs.side.col]
        rows_ = bfs.side.row[src_active]
        if len(rows_):
            visited = np.zeros(bfs.n, dtype=bool)
            visited[m.to_indices()] = True
            rows_ = rows_[~visited[rows_]]
            y = y.copy()
            y.set_indices(rows_)
        counters.coalesced_read_bytes += bfs.side.nnz * 16.0
        counters.random_read_count += float(src_active.sum())
        counters.atomic_ops += float(len(rows_))
        counters.random_write_count += float(len(rows_))
        counters.warps = max(1.0, bfs.side.nnz / 32.0)
        return y, counters

    state = {}

    def run() -> None:
        levels = np.full(bfs.n, -1, dtype=np.int64)
        levels[source] = 0
        x = BitVector.from_indices(
            np.array([source], dtype=np.int64), bfs.n, bfs.nt)
        m = x.copy()
        depth = 0
        frontier_size = 1
        while frontier_size > 0:
            depth += 1
            kernel_name = bfs.selector.choose(
                frontier_sparsity=frontier_size / bfs.n,
                unvisited_fraction=(bfs.n - m.count()) / bfs.n,
            )
            y, counters = impls[kernel_name](x, m)
            if bfs.side.nnz:
                y, side_counters = side_kernel(x, m, y)
                counters = counters.merged(side_counters)
            bfs.ctx.launch(f"tilebfs_{kernel_name}", counters,
                           phase="iteration")
            new = y.to_indices()
            if len(new) == 0:
                break
            levels[new] = depth
            m = m | y
            x = y
            frontier_size = len(new)
        state["levels"] = levels

    ms = _best_ms(run, repeats)
    return {"ms": ms, "levels": state["levels"]}


def _tilebfs_ms(scale: int, edge_factor: int, seed: int, repeats: int
                ) -> Dict[str, float]:
    """Best-of-``repeats`` ms of the seed loop and then the fused layer
    loop of TileBFS from vertex 0 of ``rmat(scale, edge_factor, seed)``
    — the ``tilebfs`` row, run by :func:`_tilebfs_fresh`."""
    bfs = TileBFS(rmat(scale, edge_factor=edge_factor, seed=seed))
    seed_run = _seed_tilebfs_ms(bfs, source=0, repeats=repeats)
    new_ms = _best_ms(lambda: bfs.run(0), repeats)
    assert np.array_equal(bfs.run(0).levels, seed_run["levels"])
    return {"ref_ms": seed_run["ms"], "new_ms": new_ms}


def _tilebfs_fresh(scale: int, edge_factor: int, seed: int,
                   repeats: int) -> Dict[str, float]:
    """:func:`_tilebfs_ms` in a fresh interpreter.  How fast the seed
    loop runs depends on the allocator state of its process (about 2x
    slower on the smoke graph once any fused traversal has run), so
    both loops are timed in a process that has run nothing else."""
    code = ("import json, sys\n"
            "from repro.bench.wallclock import _tilebfs_ms\n"
            "print(json.dumps(_tilebfs_ms(*map(int, sys.argv[1:]))))")
    path = [str(Path(__file__).resolve().parents[2]),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    out = subprocess.run(
        [sys.executable, "-c", code, str(scale), str(edge_factor),
         str(seed), str(repeats)],
        env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def _msbfs_ms(op: MultiSourceBFS, sources: np.ndarray, repeats: int,
              use_reference: bool) -> float:
    """Time a full MS-BFS run; with ``use_reference`` the expansion is
    swapped for the preserved seed ``bitwise_or.at`` version, keeping
    every other loop cost identical."""
    from ..core import msbfs as msbfs_mod
    production = msbfs_mod.msbfs_expand
    if use_reference:
        msbfs_mod.msbfs_expand = reference_msbfs_expand
    try:
        return _best_ms(lambda: op.run(sources), repeats)
    finally:
        msbfs_mod.msbfs_expand = production


def run_wallclock(scale: int = 17, edge_factor: int = 16, nt: int = 16,
                  densities: Sequence[float] = (
                      1e-4, 5e-4, 2e-3, 1e-2, 0.1),
                  repeats: int = 5, batch: int = 4, seed: int = 1,
                  smoke: bool = False,
                  progress: Optional[Callable[[str], None]] = None
                  ) -> Dict:
    """Time the active-set kernels against the seed oracles.

    Parameters
    ----------
    scale, edge_factor:
        RMAT parameters of the benchmark graph (``2**scale`` vertices);
        the defaults give a ~3.7M-nnz matrix, comfortably above the
        1e6-nnz floor the acceptance criterion names.
    nt:
        Tile size (16, the paper's SpMSpV choice).
    densities:
        Frontier densities (``nnz(x) / n``) swept for every multiply
        form; the report also records the resulting active-tile-column
        fraction, the quantity the engine's cost is proportional to.
    repeats:
        Timing repetitions per measurement (best-of).
    batch:
        Frontiers drawn and discarded per density after each multiply
        input, and the width of the retired batched section's draws —
        kept so every section's inputs stay those of the committed
        reports.
    smoke:
        Shrink everything for CI (a few seconds end to end).

    Returns
    -------
    dict with ``meta``, per-density ``multiply`` rows (form, density,
    active column fraction, loops, reference/new ms of one loop,
    speedup), per-kernel ``bfs_kernels`` rows (the same fields, plus
    the visited fraction), the ``tilebfs``, ``msbfs``, ``spmm``,
    ``sharded`` and ``parallel`` sections — the JSON payload of
    ``BENCH_wallclock.json``.
    """
    if smoke:
        # shrink the workload, not the repeats: smoke rows are sub-ms,
        # so best-of-N is what keeps their speedups reproducible enough
        # for the CI regression guard
        scale, edge_factor = min(scale, 13), min(edge_factor, 8)
        densities = tuple(densities)[:3]

    def say(msg: str) -> None:
        if progress is not None:
            progress(msg)

    say(f"generating rmat(scale={scale}, edge_factor={edge_factor})")
    coo = rmat(scale, edge_factor=edge_factor, seed=seed)
    say(f"tiling {coo.nnz} nonzeros at nt={nt}")
    A = TiledMatrix.from_coo(coo, nt)
    At = TiledMatrix.from_coo(coo.transpose(), nt)
    # plan-time warming, as TileSpMSpV does for each form
    for t in (A, At):
        t.tile_nnz()
        t.n_occupied_tile_rows()
    A.column_entries()
    A.column_gather()

    n = A.shape[1]
    rng = np.random.default_rng(seed)
    # what TileSpMSpV.multiply runs for each form, counters-off, on the
    # same tiling (both forms run one host product; the form picks only
    # the counters, which are off)
    ops = {form: TileSpMSpV(A, nt=nt, mode=form) for form in ("csr", "csc")}
    rows = []
    for density in densities:
        x = _frontier(n, density, nt, rng)
        xs = SparseVector(n, *x.to_sparse())
        frac = x.n_nonempty_tiles / max(1, x.n_tiles)
        say(f"density {density:g} (active cols {frac:.4f})")
        forms = [
            ("csr", lambda: ops["csr"].multiply(xs),
             lambda: reference_tiled_kernel(A, x)),
            ("csc", lambda: ops["csc"].multiply(xs),
             lambda: reference_csc_tiled_kernel(At, x)),
        ]
        if batch > 1:
            # advance the stream past one batch of frontiers: the
            # committed inputs of the later sections were drawn after it
            for _ in range(batch):
                _frontier(n, density, nt, rng)
        for form, new_fn, ref_fn in forms:
            loops, (new_ms, ref_ms) = _loop_ms((new_fn, ref_fn), repeats,
                                               NOISE_FLOOR_MS)
            rows.append({
                "form": form,
                "density": density,
                "active_col_fraction": frac,
                "loops": loops,
                "ref_ms": ref_ms,
                "new_ms": new_ms,
                "speedup": ref_ms / new_ms if new_ms > 0 else float("inf"),
            })

    say("TileBFS (bitmask) per-kernel breakdown")
    bfs_op = TileBFS(coo, extract_threshold=0)
    visited_fractions = (0.9, 0.98) if smoke else (0.5, 0.9, 0.98)
    kernel_rows = _bfs_kernel_rows(bfs_op, densities, visited_fractions,
                                   repeats, rng, say)

    say("TileBFS end to end: fused layer loop vs seed loop")
    tilebfs = _tilebfs_fresh(scale, edge_factor, seed, repeats)
    res = bfs_op.run(0)

    # advance the stream past the frontiers of the retired batched
    # section, so the later sections keep their committed inputs
    for bsize in ((batch,) if smoke else (batch, batch * 4)):
        for density in densities:
            for _ in range(bsize):
                _frontier(n, density, nt, rng)

    say("SpMM: merge-path vs row-per-warp over a dense block")
    spmm_batches = (8,) if smoke else (8, 32)
    spmm_rows = []
    for bsize in spmm_batches:
        for density in densities:
            k = max(1, int(round(n * density)))
            X = np.zeros((n, bsize))
            for j in range(bsize):
                idx = rng.choice(n, size=k, replace=False)
                X[idx, j] = 1.0 + rng.random(k)
            Xb = DenseBlock.from_dense(X, nt)
            say(f"spmm b={bsize} density={density:g}")
            Yr, cr = spmm_row_warp_kernel(A, Xb)
            Ym, cm = spmm_merge_path_kernel(A, Xb)
            assert np.array_equal(Yr, Ym), "merge-path != row-per-warp"
            row_bytes = cr.global_bytes + cr.l2_read_bytes
            merge_bytes = cm.global_bytes + cm.l2_read_bytes
            # the acceptance invariant of the merge-path cost model: a
            # row segment has at least one nonzero, so the staged
            # traffic can never exceed the naive per-nonzero fetches
            assert merge_bytes <= row_bytes, \
                "merge-path modeled bytes exceed row-per-warp"
            ref_ms = _best_ms(lambda: spmm_row_warp_kernel(
                A, Xb, with_counters=False), repeats)
            new_ms = _best_ms(lambda: spmm_merge_path_kernel(
                A, Xb, with_counters=False), repeats)
            spmm_rows.append({
                "batch": bsize,
                "density": density,
                "ref_ms": ref_ms,
                "new_ms": new_ms,
                "speedup": (ref_ms / new_ms if new_ms > 0
                            else float("inf")),
                "launches": int(cr.launches),
                "rowwarp_bytes": row_bytes,
                "mergepath_bytes": merge_bytes,
                "bytes_ratio": (merge_bytes / row_bytes
                                if row_bytes > 0 else 1.0),
            })

    say("sharded engine: row-strip shards vs single tiling")
    shard_counts = (4,) if smoke else (4, 8)
    sharded_rows = []
    for n_shards in shard_counts:
        sharded_op = ShardedSpMSpV(coo, nt=nt, n_shards=n_shards)
        for density in densities:
            x = _frontier(n, density, nt, rng)
            before = sharded_op.scheduler.stats()
            y_sharded = sharded_op.multiply(x, output="dense")
            after = sharded_op.scheduler.stats()
            y_ref, _ = tiled_kernel(A, x)
            assert np.allclose(y_sharded, y_ref), "sharded != tiled"
            say(f"sharded s={sharded_op.matrix.n_shards} "
                f"density={density:g}")
            new_ms = _best_ms(
                lambda: sharded_op.multiply(x, output="dense"), repeats)
            ref_ms = _best_ms(lambda: tiled_kernel(A, x), repeats)
            sharded_rows.append({
                "n_shards": sharded_op.matrix.n_shards,
                "density": density,
                "ref_ms": ref_ms,
                "new_ms": new_ms,
                "speedup": ref_ms / new_ms if new_ms > 0
                           else float("inf"),
                "shards_executed": (after["shards_executed"]
                                    - before["shards_executed"]),
                "shards_skipped": (after["shards_skipped"]
                                   - before["shards_skipped"]),
            })

    say("parallel shard execution: worker sweep")
    from ..gpusim import Device
    from ..gpusim.multi_device import device_of_tag
    from ..shards.sharded_matrix import ShardedTiledMatrix
    worker_counts = (1, 2, 4) if smoke else (1, 2, 4, 8)
    par_shards = 8 if smoke else 16
    par_density = densities[-1]
    x_par = _frontier(n, par_density, nt, rng)
    y_par_ref, _ = tiled_kernel(A, x_par)
    par_matrix = ShardedTiledMatrix.from_coo(coo, nt=nt,
                                             n_shards=par_shards)
    parallel_rows = []
    base_wall_ms = None
    for w in worker_counts:
        say(f"parallel workers={w} shards={par_shards} "
            f"density={par_density:g}")
        par_op = ShardedSpMSpV(par_matrix, parallel=w)
        y_par = par_op.multiply(x_par, output="dense")
        assert np.allclose(y_par, y_par_ref), "parallel != tiled"
        wall_ms = _best_ms(
            lambda: par_op.multiply(x_par, output="dense"), repeats)
        if base_wall_ms is None:
            base_wall_ms = wall_ms
        # the modeled numbers come from a fresh counters-on engine so
        # each worker count prices the same cold launch stream; the
        # committed `speedup` is the multi-device critical-path ratio —
        # deterministic on any host, unlike the wall clock of a
        # CI runner with fewer cores than workers
        dev = Device()
        m_op = ShardedSpMSpV(par_matrix, device=dev, parallel=w)
        m_op.multiply(x_par, output="dense")
        mt = m_op.multi_timeline(max(1, w))
        predicted = (m_op._last_plan.predicted_speedup
                     if m_op._last_plan is not None else 1.0)
        # Amdahl-corrected cost-model prediction: barrier launches
        # (scheduler pass, scatter-gather combine) serialize on every
        # device, so the predicted critical path is the serial time
        # plus the shard work divided by the plan's balance bound.
        # `model_agreement` is measured/predicted critical path — 1.0
        # means the cost model priced the placement exactly.
        serial_ms = math.fsum(r.ms for r in dev.timeline
                              if device_of_tag(r.tag) is None)
        shard_ms = mt.sum_of_work_ms - serial_ms
        predicted_crit = serial_ms + (shard_ms / predicted
                                      if predicted > 0 else shard_ms)
        parallel_rows.append({
            "workers": w,
            "n_shards": par_shards,
            "density": par_density,
            "wall_ms": wall_ms,
            "wall_speedup": (base_wall_ms / wall_ms
                             if wall_ms > 0 else float("inf")),
            "critical_path_ms": mt.critical_path_ms,
            "sum_of_work_ms": mt.sum_of_work_ms,
            "serial_ms": serial_ms,
            "predicted_speedup": predicted,
            "predicted_critical_path_ms": predicted_crit,
            "model_agreement": (mt.critical_path_ms / predicted_crit
                                if predicted_crit > 0 else 1.0),
            "speedup": mt.modeled_speedup,
        })

    say("MS-BFS end to end")
    ms_op = MultiSourceBFS(coo)
    ms_sources = rng.choice(A.shape[0], size=min(64, A.shape[0]),
                            replace=False).astype(np.int64)
    msbfs_new = _msbfs_ms(ms_op, ms_sources, repeats, use_reference=False)
    msbfs_ref = _msbfs_ms(ms_op, ms_sources, repeats, use_reference=True)

    return {
        "meta": {
            "matrix": f"rmat(scale={scale}, edge_factor={edge_factor})",
            "n": int(A.shape[0]),
            "nnz": int(A.nnz),
            "nt": nt,
            "n_nonempty_tiles": int(A.n_nonempty_tiles),
            "repeats": repeats,
            "batch": batch,
            "smoke": bool(smoke),
            "fastpath_tier": fastpath_tier(),
            "reference": "repro.core.reference_kernels (seed O(nnz) "
                         "mask-based kernels)",
        },
        "multiply": rows,
        "bfs_kernels": kernel_rows,
        "tilebfs": {
            "nt": bfs_op.nt,
            "ref_ms": tilebfs["ref_ms"],
            "new_ms": tilebfs["new_ms"],
            "speedup": (tilebfs["ref_ms"] / tilebfs["new_ms"]
                        if tilebfs["new_ms"] > 0 else float("inf")),
            "iterations": len(res.iterations),
            "reached": res.n_reached,
        },
        "msbfs": {
            "sources": int(len(ms_sources)),
            "ref_ms": msbfs_ref,
            "new_ms": msbfs_new,
            "speedup": (msbfs_ref / msbfs_new
                        if msbfs_new > 0 else float("inf")),
        },
        "spmm": spmm_rows,
        "sharded": sharded_rows,
        "parallel": parallel_rows,
    }


#: Measurements whose faster side is below this many milliseconds are
#: timer-noise-bound (a best-of-N ``perf_counter`` delta at tens of µs
#: wobbles by tens of percent run to run); the regression guard skips
#: them rather than flake.
NOISE_FLOOR_MS = 0.25

#: Report keys that are metadata, not benchmark sections.  Everything
#: else recorded in the committed baseline is a workload the current
#: report must also carry — derived from the baseline rather than a
#: hard-coded section list, so a newly added section (``sharded``) is
#: covered by the missing-section guard the moment it lands in the
#: baseline instead of silently bypassing it.
_META_KEYS = ("meta",)


def known_sections(committed: Dict) -> tuple:
    """The benchmark sections of a committed baseline report."""
    return tuple(k for k in committed if k not in _META_KEYS)


def _speedup_entries(report: Dict) -> Dict[str, tuple]:
    """Flatten a wall-clock report to ``label -> (speedup, min_ms)``
    (every row and scalar section that records one); ``min_ms`` is the
    faster of the two timed sides, ``inf`` when the report carries no
    timings (synthetic fixtures)."""
    entries: Dict[str, tuple] = {}

    def min_ms(row):
        if "ref_ms" in row and "new_ms" in row:
            return min(row["ref_ms"], row["new_ms"])
        return float("inf")

    for row in report.get("multiply", ()):
        entries[f"multiply/{row['form']}@{row['density']:g}"] = \
            (row["speedup"], min_ms(row))
    for row in report.get("bfs_kernels", ()):
        entries[(f"bfs_kernels/{row['kernel']}@{row['density']:g}"
                 f"/v{row['visited_fraction']:g}")] = \
            (row["speedup"], min_ms(row))
    for row in report.get("spmm", ()):
        entries[f"spmm/b{row['batch']}@{row['density']:g}"] = \
            (row["speedup"], min_ms(row))
    for row in report.get("sharded", ()):
        entries[f"sharded/s{row['n_shards']}@{row['density']:g}"] = \
            (row["speedup"], min_ms(row))
    for row in report.get("parallel", ()):
        # the guarded speedup is the modeled critical-path ratio, which
        # carries no host timings — min_ms stays inf so these rows are
        # never waved through as timer noise
        entries[f"parallel/w{row['workers']}"] = \
            (row["speedup"], min_ms(row))
    for section in ("tilebfs", "msbfs"):
        if section in report:
            entries[section] = (report[section]["speedup"],
                                min_ms(report[section]))
    return entries


def check_regression(current: Dict, committed: Dict, floor: float = 0.6,
                     noise_floor_ms: float = NOISE_FLOOR_MS,
                     section_floors: Optional[Dict[str, float]] = None
                     ) -> Tuple[list, list]:
    """Compare two wall-clock reports; ``(failures, skipped)`` lists
    every regression and every shared label left uncompared.

    A regression is a speedup in ``current`` below ``floor`` times the
    value recorded for the same label in ``committed``.  Labels present
    on only one side are ignored (new rows are allowed to appear), as
    are labels whose faster timed side is under ``noise_floor_ms`` in
    either report (micro rows whose speedup is timer noise — these are
    returned in ``skipped``, so a guard never skips in silence); ratios of
    speedups are compared rather than raw milliseconds so the guard is
    stable across host machines of different speed.

    ``section_floors`` overrides ``floor`` per section (a label's
    section is its prefix before the first ``/``, or the whole label
    for scalar sections) — e.g. ``{"parallel": 0.8}`` holds the
    deterministic modeled worker sweep to a tighter floor than the
    timed sections.

    Any section recorded in ``committed`` (every non-meta key; see
    :func:`known_sections`) but missing from ``current`` is itself a
    failure (entry ``{"label": "section:<name>", "missing": True}``):
    a report that silently dropped a workload must not pass the guard.
    """
    cur = _speedup_entries(current)
    ref = _speedup_entries(committed)
    failures, skipped = [], []
    for section in known_sections(committed):
        if section not in current:
            failures.append({"label": f"section:{section}",
                             "missing": True})
    for label in sorted(set(cur) & set(ref)):
        cur_s, cur_ms = cur[label]
        ref_s, ref_ms = ref[label]
        if min(cur_ms, ref_ms) < noise_floor_ms:
            skipped.append(label)
            continue
        label_floor = floor
        if section_floors:
            label_floor = section_floors.get(label.split("/", 1)[0],
                                             floor)
        if ref_s > 0 and cur_s < label_floor * ref_s:
            failures.append({
                "label": label,
                "committed_speedup": ref_s,
                "current_speedup": cur_s,
                "floor": label_floor * ref_s,
            })
    return failures, skipped
