"""Host-side profiling of the BFS hot loop: ``python -m repro.bench
profile``.

Answers "where does the wall-clock go?" for the TileBFS layer loop.
Two views of the same run:

* a **per-layer breakdown**: every BFS layer timed individually, with
  the chosen kernel and frontier size, so regressions can be pinned to
  one layer/regime;
* a **cProfile capture** of the end-to-end run, exported as a
  ``pstats`` dump for interactive digging.

Results serialize to JSON (``{"meta": ..., "total_ms": ...,
"layers": [...]}``) for EXPERIMENTS.md bookkeeping.
"""

from __future__ import annotations

import cProfile
import json
import platform
import pstats
import time
from typing import Optional

import numpy as np

from ..core.tilebfs import TileBFS
from ..fastpath import fastpath_tier
from ..matrices.generators import rmat

__all__ = ["profile_bfs", "main"]


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def profile_bfs(scale: int = 17, edge_factor: int = 16, nt: int = 64,
                source: int = 0, repeats: int = 5,
                pstats_out: Optional[str] = None) -> dict:
    """Profile one TileBFS traversal.

    Returns the result document (also what the CLI writes as JSON).
    With ``pstats_out``, a cProfile capture of the run is dumped to
    that path.
    """
    coo = rmat(scale, edge_factor=edge_factor, seed=7)
    op = TileBFS(coo, nt=nt)
    result = op.run(source)    # warm the plan + layouts
    total_ms = _best_of(lambda: op.run(source), repeats)

    # per-layer breakdown: run layer-by-layer via max_depth slicing
    # (each prefix is re-traversed; the difference isolates a layer)
    prefix_ms = [0.0]
    for depth in range(1, len(result.iterations) + 1):
        prefix_ms.append(_best_of(
            lambda d=depth: op.run(source, max_depth=d), repeats))
    layers = []
    for i, it in enumerate(result.iterations):
        layers.append({
            "depth": it.depth,
            "kernel": it.kernel,
            "frontier_size": it.frontier_size,
            "new_vertices": it.new_vertices,
            "ms": round(max(0.0, prefix_ms[i + 1] - prefix_ms[i]), 4),
        })
    doc = {
        "meta": {
            "benchmark": "profile",
            "scale": scale,
            "edge_factor": edge_factor,
            "nt": nt,
            "source": source,
            "repeats": repeats,
            "fastpath_tier": fastpath_tier(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "total_ms": round(total_ms, 4),
        "iterations": len(result.iterations),
        "reached": int(np.count_nonzero(result.levels >= 0)),
        "layers": layers,
    }
    if pstats_out:
        prof = cProfile.Profile()
        prof.enable()
        op.run(source)
        prof.disable()
        pstats.Stats(prof).dump_stats(pstats_out)
        doc["pstats"] = pstats_out
    return doc


def _format_report(doc: dict) -> str:
    meta = doc["meta"]
    lines = [f"TileBFS profile: R-MAT scale {meta['scale']} "
             f"(nt={meta['nt']}, kernels={meta['fastpath_tier']})",
             f"  total {doc['total_ms']:.2f} ms, "
             f"{doc['iterations']} layers, {doc['reached']} reached"]
    for layer in doc["layers"]:
        lines.append(
            f"    depth {layer['depth']}: {layer['kernel']:>9s} "
            f"|frontier|={layer['frontier_size']:<7d} "
            f"{layer['ms']:7.2f} ms")
    return "\n".join(lines)


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench profile",
        description="Per-layer host-time breakdown + cProfile capture "
                    "of the TileBFS layer loop.")
    parser.add_argument("--scale", type=int, default=17,
                        help="R-MAT scale (default: 17)")
    parser.add_argument("--edge-factor", type=int, default=16,
                        help="R-MAT edge factor (default: 16)")
    parser.add_argument("--nt", type=int, default=64,
                        help="tile size (default: 64)")
    parser.add_argument("--source", type=int, default=0,
                        help="BFS source vertex (default: 0)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timing repeats, best-of (default: 5)")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI-sized run (scale 12, 2 repeats)")
    parser.add_argument("--out", default=None, metavar="JSON",
                        help="write the result document as JSON")
    parser.add_argument("--pstats-out", default=None, metavar="PATH",
                        help="dump cProfile stats to PATH")
    args = parser.parse_args(argv)

    scale = 12 if args.smoke else args.scale
    repeats = 2 if args.smoke else args.repeats
    doc = profile_bfs(scale=scale, edge_factor=args.edge_factor,
                      nt=args.nt, source=args.source, repeats=repeats,
                      pstats_out=args.pstats_out)
    print(_format_report(doc))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2)
        print(f"-> {args.out}")
    return 0
