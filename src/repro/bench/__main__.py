"""CLI entry point: ``python -m repro.bench [experiment ...]``.

With no arguments, runs every experiment (Table 2 and Figures 6-12 plus
the extraction ablation) and prints the paper-style tables.

``python -m repro.bench trace`` instead runs a traced workload and
writes the launch-by-launch record as Chrome ``trace_event`` JSON
(default) or JSONL — see ``trace --help``.

``python -m repro.bench verify`` runs the differential verification
harness (oracles, sibling cross-checks, counter invariants, metamorphic
relations) over the operator registry — see ``verify --help``.

``python -m repro.bench profile`` prints a per-layer host-time
breakdown of the TileBFS layer loop and can dump a cProfile capture —
see ``profile --help``.
"""

from __future__ import annotations

import argparse
import sys

from .harness import ALL_EXPERIMENTS


def _run_trace(argv) -> int:
    from ..runtime import available_operators
    from .trace import DEFAULT_TRACE_OPERATORS, run_traced_workload

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench trace",
        description="Run operators under a traced execution context and "
                    "export the kernel-launch timeline.")
    parser.add_argument("--matrix", default="cant",
                        help="collection matrix name (default: cant)")
    parser.add_argument("--operators", default=None,
                        help="comma-separated registry names "
                             f"(default: {','.join(DEFAULT_TRACE_OPERATORS)}; "
                             f"known: {','.join(available_operators())})")
    parser.add_argument("--sparsity", type=float, default=0.01,
                        help="input-vector sparsity for spmspv/spmv "
                             "operators (default: 0.01)")
    parser.add_argument("--source", type=int, default=0,
                        help="BFS source vertex (default: 0)")
    parser.add_argument("--format", choices=("chrome", "jsonl"),
                        default="chrome",
                        help="output format (default: chrome)")
    parser.add_argument("--shard", type=int, default=None, metavar="SID",
                        help="keep only launches tagged shard=SID "
                             "(sharded operators tag every per-shard "
                             "launch)")
    parser.add_argument("--device", type=int, default=None,
                        metavar="DID",
                        help="keep only launches tagged device=DID "
                             "(parallel shard execution tags every "
                             "worker launch shard=S;device=D;worker=W)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="run the workload with N shard workers "
                             "(sets REPRO_WORKERS for this run)")
    parser.add_argument("--out", default=None,
                        help="output path (default: trace.json / "
                             "trace.jsonl by format)")
    args = parser.parse_args(argv)

    operators = (args.operators.split(",") if args.operators else None)
    if args.workers is not None:
        # scope the override to this workload: main() also runs
        # in-process (tests, notebooks), so the variable must not leak
        import os
        from ..parallel import WORKERS_ENV
        prev = os.environ.get(WORKERS_ENV)
        os.environ[WORKERS_ENV] = str(args.workers)
        try:
            tracer, device = run_traced_workload(
                matrix=args.matrix, operators=operators,
                sparsity=args.sparsity, source=args.source)
        finally:
            if prev is None:
                os.environ.pop(WORKERS_ENV, None)
            else:
                os.environ[WORKERS_ENV] = prev
    else:
        tracer, device = run_traced_workload(
            matrix=args.matrix, operators=operators,
            sparsity=args.sparsity, source=args.source)
    total_launches = len(tracer)
    if args.shard is not None:
        tracer = tracer.filtered_by_shard(args.shard)
        print(f"shard={args.shard}: {len(tracer)} of "
              f"{total_launches} launches kept")
    if args.device is not None:
        tracer = tracer.filtered_by_device(args.device)
        print(f"device={args.device}: {len(tracer)} of "
              f"{total_launches} launches kept")
    out = args.out or ("trace.json" if args.format == "chrome"
                       else "trace.jsonl")
    if args.format == "chrome":
        tracer.write_chrome(out)
    else:
        tracer.write_jsonl(out)
    print(f"{len(tracer)} launches, {device.elapsed_ms:.3f} simulated ms "
          f"-> {out}")
    return 0


def _run_verify(argv) -> int:
    from ..runtime import available_operators
    from ..verify import replay_repro, run_verification

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench verify",
        description="Differential verification: cross-check every "
                    "registered operator against independent oracles, "
                    "sibling operators, and gpusim counter invariants "
                    "over a randomized case grid; failures shrink to "
                    "replayable JSON repros.")
    parser.add_argument("--smoke", action="store_true",
                        help="small CI-sized grid (default is the "
                             "nightly full grid)")
    parser.add_argument("--seed", type=int, default=0,
                        help="grid seed; the same seed reproduces the "
                             "same cases (default: 0)")
    parser.add_argument("--operator", action="append", default=None,
                        metavar="NAME",
                        help="restrict to one registry operator (repeat "
                             "for several; known: "
                             f"{','.join(available_operators())})")
    parser.add_argument("--replay", default=None, metavar="REPRO.json",
                        help="re-run one serialized repro file instead "
                             "of the grid")
    parser.add_argument("--out", default="verify-failures",
                        help="directory for shrunk failure repros "
                             "(default: verify-failures)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="serialize failing cases without "
                             "minimizing them first")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print each case as it runs")
    args = parser.parse_args(argv)

    if args.replay:
        case, check, failure = replay_repro(args.replay)
        if failure is None:
            print(f"PASS {case.describe()} [{check}]")
            return 0
        print(f"FAIL {case.describe()} [{check}]: {failure}")
        return 1

    report = run_verification(
        seed=args.seed, smoke=args.smoke, operators=args.operator,
        out_dir=args.out, shrink_failures=not args.no_shrink,
        verbose=args.verbose)
    print(report.summary())
    return 0 if report.ok else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "trace":
        return _run_trace(argv[1:])
    if argv and argv[0] == "verify":
        return _run_verify(argv[1:])
    if argv and argv[0] == "profile":
        from .profile import main as profile_main
        return profile_main(argv[1:])
    names = argv or list(ALL_EXPERIMENTS)
    unknown = [n for n in names if n not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {unknown}; "
              f"available: {sorted(ALL_EXPERIMENTS)}")
        return 2
    for name in names:
        result = ALL_EXPERIMENTS[name]()
        print(result.text)
        print()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
