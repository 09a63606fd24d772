"""Self-checks of the benchmark: metric names, shim hygiene, exact
repeats of count-type metrics, and failure outside a checkout.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import run, shims
from perfbench.workloads import STRATA, WORKLOADS, stratified_loguniform

ROOT = Path(__file__).resolve().parents[2]

#: Per-layer metrics that must repeat exactly for one seed.
EXACT = ("runtime.plan_hits", "runtime.plan_misses",
         "fastpath.layers_per_op", "core.bfs_push_csc_frac",
         "core.bfs_push_csr_frac", "core.bfs_pull_frac",
         "runtime.batches", "serving.rejected", "serving.errors",
         "shards.loads", "shards.hit_rate", "shards.skip_frac",
         "shards.exec_per_op", "gpusim.bytes_per_op",
         "gpusim.launches_per_op", "core.useful_flop_frac")


def bench(workload, seed, trace, seconds=1.0, cwd=ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) \
        == sorted(WORKLOADS)


def test_shims_install_and_remove_cleanly():
    assert shims.installed() == []
    rec = shims.Recorder()
    rec.install()
    try:
        assert len(shims.installed()) == len(shims.TARGETS)
    finally:
        rec.uninstall()
    assert shims.installed() == []


def test_spans_subtract_child_time():
    rec = shims.Recorder()
    rec.phase = "timed"
    inner = rec._wrap("inner", lambda: sum(range(20000)))
    outer = rec._wrap("outer", lambda: inner() + inner())
    outer()
    assert rec.calls[("timed", "inner")] == 2
    total = rec.total[("timed", "outer")]
    self_time = rec.self_time[("timed", "outer")]
    assert 0 <= self_time < total
    assert self_time + rec.total[("timed", "inner")] \
        == pytest.approx(total)


def test_stratified_draws_cover_every_stratum():
    u = np.log10(stratified_loguniform(np.random.default_rng(0), 1e-4,
                                       1e-1, 4 * STRATA))
    assert u.min() >= -4 and u.max() <= -1
    for block in u.reshape(4, STRATA):
        strata = np.floor((block + 4) / 3 * STRATA).astype(int)
        assert sorted(strata) == list(range(STRATA))


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(2000, 99.0) == 99.0
    assert run.tail_percentile(500, 99.0) == 98.0
    assert run.tail_percentile(150, 99.0) == 90.0


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_run_is_correct_and_unshimmed(workload):
    meta, result = bench(workload, seed=3, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert meta["shims_left"] == []
    assert meta["checked"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counts_repeat_exactly_for_one_seed(workload):
    meta1, r1 = bench(workload, seed=5, trace=1)
    meta2, r2 = bench(workload, seed=5, trace=1)
    assert r1["correct"] and r2["correct"]
    assert set(r1["metrics"]) == set(run.PER_LAYER)
    for name in EXACT:
        assert r1["metrics"][name] == r2["metrics"][name], name
    # modeled ms/bytes/launches, BFS reached counts, shard
    # loads/hits/skips and the virtual-replay batch count
    assert meta1["fixed"] == meta2["fixed"]


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "spmspv-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
