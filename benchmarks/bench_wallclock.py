#!/usr/bin/env python
"""Wall-clock benchmark of the matched-entry execution engine.

Times ``TileSpMSpV.multiply`` and the production kernels against the
preserved O(nnz) seed oracles at swept frontier densities (multiply in
CSR / CSC form, the fused TileBFS layer kernels, plus end-to-end
TileBFS and MS-BFS) and writes the measurements to
``BENCH_wallclock.json`` — the perf trajectory future PRs append to.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py          # full
    PYTHONPATH=src python benchmarks/bench_wallclock.py --smoke  # CI

Unlike the other ``bench_*`` modules (pytest-benchmark over *simulated*
GPU time), this is a standalone CLI measuring *host* wall-clock time;
see :mod:`repro.bench.wallclock` for the methodology.
"""

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

try:
    from repro.bench.wallclock import run_wallclock
except ImportError:  # direct invocation without PYTHONPATH=src
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.bench.wallclock import run_wallclock


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small matrix / few repeats for CI")
    parser.add_argument("--scale", type=int, default=17,
                        help="RMAT scale (2**scale vertices)")
    parser.add_argument("--edge-factor", type=int, default=16)
    parser.add_argument("--nt", type=int, default=16)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--out", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_wallclock.json")
    args = parser.parse_args(argv)

    result = run_wallclock(scale=args.scale, edge_factor=args.edge_factor,
                           nt=args.nt, repeats=args.repeats,
                           smoke=args.smoke,
                           progress=lambda m: print(f"  .. {m}",
                                                    file=sys.stderr))
    args.out.write_text(json.dumps(result, indent=2) + "\n",
                        encoding="utf-8")

    meta = result["meta"]
    print(f"{meta['matrix']}: n={meta['n']} nnz={meta['nnz']} "
          f"nt={meta['nt']}")
    print(f"{'form':>8} {'density':>9} {'act.cols':>9} {'loops':>6} "
          f"{'ref ms':>9} {'new ms':>9} {'speedup':>8}")
    for r in result["multiply"]:
        print(f"{r['form']:>8} {r['density']:>9g} "
              f"{r['active_col_fraction']:>9.4f} {r['loops']:>6} "
              f"{r['ref_ms']:>9.3f} {r['new_ms']:>9.3f} "
              f"{r['speedup']:>7.1f}x")

    print("TileBFS fused layer kernels (forced) vs seed kernels:")
    print(f"{'kernel':>10} {'density':>9} {'visited':>9} {'loops':>6} "
          f"{'ref ms':>9} {'new ms':>9} {'speedup':>8}")
    for r in result["bfs_kernels"]:
        print(f"{r['kernel']:>10} {r['density']:>9g} "
              f"{r['visited_fraction']:>9g} {r['loops']:>6} "
              f"{r['ref_ms']:>9.3f} {r['new_ms']:>9.3f} "
              f"{r['speedup']:>7.1f}x")
    t = result["tilebfs"]
    print(f"{'tilebfs':>10} end-to-end (nt={t['nt']}): "
          f"{t['ref_ms']:.3f} -> {t['new_ms']:.3f} ms "
          f"= {t['speedup']:.1f}x "
          f"({t['iterations']} iterations, {t['reached']} reached)")
    s = result["msbfs"]
    print(f"{'msbfs':>10} end-to-end ({s['sources']} sources): "
          f"{s['ref_ms']:.3f} -> {s['new_ms']:.3f} ms "
          f"= {s['speedup']:.1f}x")
    print("SpMM dense-block kernels (merge-path vs row-per-warp):")
    print(f"{'B':>6} {'density':>9} {'rw ms':>9} {'mp ms':>9} "
          f"{'speedup':>8} {'bytes':>7}")
    for r in result["spmm"]:
        print(f"{r['batch']:>6} {r['density']:>9g} {r['ref_ms']:>9.3f} "
              f"{r['new_ms']:>9.3f} {r['speedup']:>7.1f}x "
              f"{r['bytes_ratio']:>6.2f}x")
    print("Sharded out-of-core engine (row strips vs one in-core tiling):")
    print(f"{'shards':>7} {'density':>9} {'ref ms':>9} {'new ms':>9} "
          f"{'speedup':>8} {'exec':>5} {'skip':>5}")
    for r in result["sharded"]:
        print(f"{r['n_shards']:>7} {r['density']:>9g} "
              f"{r['ref_ms']:>9.3f} {r['new_ms']:>9.3f} "
              f"{r['speedup']:>7.1f}x {r['shards_executed']:>5} "
              f"{r['shards_skipped']:>5}")
    print("Parallel shard execution (worker sweep, modeled multi-device "
          "critical path):")
    print(f"{'workers':>8} {'shards':>7} {'wall ms':>9} {'wall x':>7} "
          f"{'crit ms':>9} {'work ms':>9} {'pred x':>7} {'model x':>8} "
          f"{'agree':>6}")
    for r in result["parallel"]:
        print(f"{r['workers']:>8} {r['n_shards']:>7} "
              f"{r['wall_ms']:>9.3f} {r['wall_speedup']:>6.1f}x "
              f"{r['critical_path_ms']:>9.4f} "
              f"{r['sum_of_work_ms']:>9.4f} "
              f"{r['predicted_speedup']:>6.1f}x "
              f"{r['speedup']:>7.1f}x "
              f"{r['model_agreement']:>6.3f}")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
