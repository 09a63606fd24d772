"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload spmspv-sweep --seed 7 \\
        --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
same workload and seed with timing shims installed and prints the
per-layer metrics.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Thread-count variables pinned to 1 before NumPy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mib": "MiB",
              "modeled_ms_per_op": "ms"}

PER_LAYER = {
    "core.spmspv_kernel_ms": "ms", "core.side_kernel_ms": "ms",
    "tiles.coerce_ms": "ms", "core.multiply_self_ms": "ms",
    "tiles.tiling_s": "s", "runtime.plan_warm_s": "s",
    "runtime.plan_hits": "count", "runtime.plan_misses": "count",
    "fastpath.traversal_ms": "ms", "fastpath.layers_per_op": "count",
    "core.bfs_push_csc_frac": "frac", "core.bfs_push_csr_frac": "frac",
    "core.bfs_pull_frac": "frac", "core.bfs_plan_s": "s",
    "fastpath.layout_s": "s", "serving.submit_ms": "ms",
    "runtime.queue_wait_ms": "ms", "runtime.batch_size_mean": "count",
    "runtime.batches": "count", "core.union_kernel_ms": "ms",
    "serving.direct_ms": "ms", "serving.loop_stall_max_ms": "ms",
    "serving.rejected": "count", "serving.errors": "count",
    "shards.load_ms": "ms", "shards.loads": "count",
    "shards.hit_rate": "frac", "shards.skip_frac": "frac",
    "shards.exec_per_op": "count", "shards.combine_ms": "ms",
    "gpusim.bytes_per_op": "B", "gpusim.launches_per_op": "count",
    "core.useful_flop_frac": "frac", "bench.trace_overhead_frac": "frac",
}

#: Candidate tail percentiles, highest first.
TAIL_CANDIDATES = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the untraced half of a traced run (ops/s only)
    p.add_argument("--baseline", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def calibrate() -> float:
    """Seconds for a fixed pure-NumPy loop (host-speed diagnostic only;
    never used to normalise a metric)."""
    import numpy as np
    a = np.arange(1 << 18, dtype=np.float64)
    t0 = time.perf_counter()
    for _ in range(40):
        a = np.sqrt(a * a + 1.0)
        a.sort()
    return time.perf_counter() - t0


def tail_percentile(n: int, preferred: float):
    """The workload's preferred percentile, or the highest lower
    candidate that still has at least ten samples beyond it."""
    for pct in TAIL_CANDIDATES:
        if pct <= preferred and n * (1 - pct / 100.0) >= 10:
            return pct
    return 50.0


def frac(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


#: Least wall time between the end of one timed chunk and the start of
#: the next.  Spreading the timed seconds over a longer span averages
#: out more of the host's slow speed drift.
GAP_S = 4.0


class Runner:
    """One workload run: inputs, set-up builds interleaved with timed
    chunks, checks, and the counters-on pass."""

    def __init__(self, args, workload, recorder=None):
        self.args = args
        self.wl = workload
        self.rec = recorder

    def _phase(self, name: str) -> None:
        if self.rec is not None:
            self.rec.phase = name

    def prepare(self) -> None:
        import numpy as np
        rng = np.random.default_rng(self.args.seed)
        self.inp = self.wl.inputs()
        count = max(self.wl.fixed_ops,
                    int(self.wl.max_rate * self.args.seconds) + 1)
        self.ops = self.wl.stream(self.inp, rng, count)

    def _setup(self, rep: int) -> float:
        from repro.runtime import reset_plan_cache
        self._phase("setup")
        self.state = None
        reset_plan_cache()
        gc.collect()
        t0 = time.perf_counter()
        self.state = self.wl.setup(self.inp, rep)
        took = time.perf_counter() - t0
        self.wl.settle(self.state)
        return took

    def measure(self, reps: int):
        """``reps`` fresh set-up builds, each followed by a timed chunk
        of ``seconds / reps``; chunks are at least :data:`GAP_S` apart.
        Returns the set-up times and the pooled timed result, with the
        process's peak RSS read after the last chunk (inputs, set-up and
        timed ops; the checks come later)."""
        setup_times, pooled = [], None
        first, last_end = 0, None
        for rep in range(reps):
            setup_times.append(self._setup(rep))
            if last_end is not None:
                time.sleep(max(0.0, last_end + GAP_S - time.perf_counter()))
            self._phase("timed")
            gc.collect()
            tr = self.wl.timed(self.state, self.ops,
                               self.args.seconds / reps, first)
            last_end = time.perf_counter()
            first = tr["next"]
            pooled = tr if pooled is None else {
                "latencies": pooled["latencies"] + tr["latencies"],
                "wall": pooled["wall"] + tr["wall"],
                "attempted": pooled["attempted"] + tr["attempted"],
                "failed": pooled["failed"] + tr["failed"],
                "samples": (pooled["samples"]
                            + tr["samples"])[:self.wl.max_checks],
                "next": first, "layer": tr["layer"]}
        pooled["peak_rss_mib"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return setup_times, pooled

    def checks(self, samples) -> int:
        self._phase("check")
        return sum(1 for op, result in samples
                   if not self.wl.check(self.inp, op, result))

    def fixed(self):
        self._phase("fixed")
        return self.wl.fixed_pass(self.inp, self.state,
                                  self.ops[:self.wl.fixed_ops])


def run_baseline(args, workload) -> dict:
    runner = Runner(args, workload)
    runner.prepare()
    _, tr = runner.measure(1)
    return {"ops_per_s": len(tr["latencies"]) / tr["wall"]}


def untraced_ops_per_s(args) -> float:
    """ops/s of the same workload and seed in a fresh untraced
    process, timed for as long as the traced half."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", "0", "--baseline"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=170,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["ops_per_s"]


def end_to_end(setup_times, tr, fx, wl):
    import numpy as np
    lat_ms = np.asarray(tr["latencies"]) * 1e3
    pct = tail_percentile(len(lat_ms), wl.tail_pct)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(lat_ms) / tr["wall"],
        "op_p50_ms": float(np.percentile(lat_ms, 50)),
        "op_tail_ms": float(np.percentile(lat_ms, pct)),
        "peak_rss_mib": tr["peak_rss_mib"],
        "modeled_ms_per_op": fx["modeled_ms_per_op"],
    }
    tail = {"percentile": pct, "samples": int(len(lat_ms)),
            "beyond": int(np.sum(lat_ms > metrics["op_tail_ms"]))}
    return metrics, tail


def per_layer(rec, tr, fx, wl, setup_reps, base_ops_per_s):
    import numpy as np
    counts = rec.counts
    kernels = fx.get("kernel_layers", {})
    layers = sum(kernels.values())
    shard_runs = fx.get("executed", 0) + fx.get("skipped", 0)
    waits = rec.queue_waits
    parts = getattr(wl, "parts", {})
    return {
        "core.spmspv_kernel_ms": rec.mean_ms("core.spmspv_kernel"),
        "core.side_kernel_ms": rec.mean_ms("core.side_kernel"),
        "tiles.coerce_ms": rec.mean_ms("tiles.coerce"),
        "core.multiply_self_ms": rec.mean_ms("core.multiply",
                                             self_only=True),
        "tiles.tiling_s": rec.total_s("tiles.tiling") / setup_reps,
        "runtime.plan_warm_s": rec.total_s("runtime.plan_warm")
        / setup_reps,
        "runtime.plan_hits": counts[("setup", "plan_hits")]
        + counts[("fixed", "plan_hits")],
        "runtime.plan_misses": counts[("setup", "plan_misses")]
        + counts[("fixed", "plan_misses")],
        "fastpath.traversal_ms": rec.mean_ms("fastpath.traversal"),
        "fastpath.layers_per_op": fx.get("layers_per_op", 0.0),
        "core.bfs_push_csc_frac": frac(kernels.get("push_csc", 0), layers),
        "core.bfs_push_csr_frac": frac(kernels.get("push_csr", 0), layers),
        "core.bfs_pull_frac": frac(kernels.get("pull_csc", 0), layers),
        "core.bfs_plan_s": parts.get("bfs_plan_s", 0.0),
        "fastpath.layout_s": parts.get("layout_s", 0.0),
        "serving.submit_ms": rec.mean_ms("serving.submit", self_only=True),
        "runtime.queue_wait_ms": float(np.mean(waits)) * 1e3
        if waits else 0.0,
        "runtime.batch_size_mean": tr["layer"].get("batch_size_mean", 0.0),
        "runtime.batches": fx.get("replay_batches", 0),
        "core.union_kernel_ms": rec.mean_ms("core.union_kernel"),
        "serving.direct_ms": 1e3 * frac(counts[("timed", "direct_s")],
                                        counts[("timed", "direct_calls")]),
        "serving.loop_stall_max_ms": tr["layer"].get("loop_stall_max_ms",
                                                     0.0),
        "serving.rejected": tr["layer"].get("rejected", 0),
        "serving.errors": tr["layer"].get("errors", 0),
        "shards.load_ms": 1e3 * frac(counts[("timed", "shard_load_s")],
                                     counts[("timed", "shard_loads")]),
        "shards.loads": fx.get("loads", 0),
        "shards.hit_rate": frac(fx.get("hits", 0),
                                fx.get("hits", 0) + fx.get("loads", 0)),
        "shards.skip_frac": frac(fx.get("skipped", 0), shard_runs),
        "shards.exec_per_op": fx.get("executed", 0) / wl.fixed_ops,
        "shards.combine_ms": rec.mean_ms("shards.multiply",
                                         self_only=True),
        "gpusim.bytes_per_op": fx["bytes_per_op"],
        "gpusim.launches_per_op": fx["launches_per_op"],
        "core.useful_flop_frac": fx["useful_flop_frac"],
        "bench.trace_overhead_frac": 1.0 - frac(
            len(tr["latencies"]) / tr["wall"], base_ops_per_s),
    }


def metadata(args, calib_before, calib_after, tail=None) -> dict:
    import numpy as np
    from repro.fastpath import fastpath_tier
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "fastpath_tier": fastpath_tier(),
            "workers": int(os.environ["REPRO_WORKERS"]),
            "calibration_s": {"before": calib_before,
                              "after": calib_after},
            "tail": tail}


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["REPRO_WORKERS"] = "1"
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(ROOT))
    import repro
    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print("perfbench: repro imported from outside the checkout",
              file=sys.stderr)
        return 2
    from perfbench import shims
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload](workdir)
    try:
        if args.baseline:
            print(json.dumps(run_baseline(args, wl)))
            return 0
        return report(args, wl, shims)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still has its directory there


def report(args, wl, shims) -> int:
    """Run the workload, traced or not, and print its metrics, the
    ``meta`` line and the result line."""
    if args.trace:
        # the untraced child and the traced run split the time budget
        args.seconds /= 2.0
    calib_before = calibrate()
    base_ops = untraced_ops_per_s(args) if args.trace else None
    rec = shims.Recorder() if args.trace else None
    if rec is not None:
        rec.install()
    try:
        runner = Runner(args, wl, rec)
        reps = 1 if args.trace else wl.setup_reps
        runner.prepare()
        setup_times, tr = runner.measure(reps)
        bad = runner.checks(tr["samples"])
        fx = runner.fixed()
    finally:
        if rec is not None:
            rec.uninstall()
    leftover = shims.installed()
    calib_after = calibrate()

    if args.trace:
        metrics = per_layer(rec, tr, fx, wl, reps, base_ops)
        units, tail = PER_LAYER, None
    else:
        metrics, tail = end_to_end(setup_times, tr, fx, wl)
        units = END_TO_END
    attempted = tr["attempted"] + len(runner.ops[:wl.fixed_ops])
    failed = tr["failed"] + bad
    meta = metadata(args, calib_before, calib_after, tail)
    meta.update(checked=len(tr["samples"]), check_failures=bad,
                shims_left=leftover, fixed=fx)
    for name, value in metrics.items():
        print(f"{name:28s} {value:14.6g} {units[name]}")
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": failed == 0 and not leftover,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
