#!/usr/bin/env python
"""Wall-clock regression guard over committed benchmark baselines.

Compares a freshly measured wall-clock report (typically the CI smoke
run) against a committed baseline and fails when any speedup shared by
both drops below ``--floor`` (default 0.6) times its recorded value.
Speedup *ratios* are compared, not raw milliseconds, so the guard
holds across host machines of different speed; labels present on only
one side are ignored so new benchmark rows can land without churn —
but a whole report *section* recorded in the baseline and missing from
the current report fails hard (a bench run that silently dropped a
workload must not pass).

Usage::

    PYTHONPATH=src python benchmarks/check_wallclock_regression.py \
        --current BENCH_wallclock.ci.json \
        --committed BENCH_wallclock.smoke.json
"""

import argparse
import json
import pathlib
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

try:
    from repro.bench.wallclock import check_regression
except ImportError:  # direct invocation without PYTHONPATH=src
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.bench.wallclock import check_regression


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", type=pathlib.Path, required=True,
                        help="freshly measured report (JSON)")
    parser.add_argument("--committed", type=pathlib.Path,
                        default=REPO_ROOT / "BENCH_wallclock.smoke.json",
                        help="committed baseline report (JSON)")
    parser.add_argument("--floor", type=float, default=0.6,
                        help="minimum fraction of the committed speedup")
    parser.add_argument("--parallel-floor", type=float, default=0.8,
                        help="floor for the parallel worker-sweep "
                             "section; its guarded speedup is the "
                             "modeled multi-device critical-path "
                             "ratio — deterministic, so it gets a "
                             "tighter floor than timed sections "
                             "(default 0.8)")
    args = parser.parse_args(argv)

    current = json.loads(args.current.read_text(encoding="utf-8"))
    committed = json.loads(args.committed.read_text(encoding="utf-8"))
    failures = check_regression(
        current, committed, floor=args.floor,
        section_floors={"parallel": args.parallel_floor})
    if failures:
        print(f"wall-clock regression: {len(failures)} failure(s) vs "
              f"the committed baseline (floor {args.floor:g}x)")
        for f in failures:
            if f.get("missing"):
                print(f"  {f['label']}: present in the committed "
                      f"baseline but missing from the current report")
            else:
                print(f"  {f['label']}: {f['current_speedup']:.2f}x < "
                      f"{f['floor']:.2f}x "
                      f"(committed {f['committed_speedup']:.2f}x)")
        return 1
    print(f"no wall-clock regressions vs {args.committed.name} "
          f"(floor {args.floor:g}x)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
