"""The wall-clock regression guard: speedup-ratio comparison between a
fresh report and the committed baseline."""

from repro.bench.wallclock import (_speedup_entries, check_regression,
                                   known_sections)


def report(multiply_speedup=10.0, kernel_speedup=5.0, tilebfs=6.0,
           msbfs=1.0, batched=1.2, sharded=0.9):
    return {
        "multiply": [
            {"form": "csr", "density": 0.001,
             "speedup": multiply_speedup},
        ],
        "bfs_kernels": [
            {"kernel": "push_csr", "density": 0.01,
             "visited_fraction": 0.025, "speedup": kernel_speedup},
        ],
        "bfs": {"speedup": 1.1},
        "tilebfs": {"speedup": tilebfs},
        "msbfs": {"speedup": msbfs},
        "batched": [
            {"batch": 4, "density": 0.01, "speedup": batched},
        ],
        "sharded": [
            {"n_shards": 4, "density": 0.01, "speedup": sharded,
             "shards_executed": 3, "shards_skipped": 1},
        ],
    }


def test_speedup_entries_labels():
    entries = {k: v[0] for k, v in _speedup_entries(report()).items()}
    assert entries == {
        "multiply/csr@0.001": 10.0,
        "bfs_kernels/push_csr@0.01/v0.025": 5.0,
        "bfs": 1.1,
        "tilebfs": 6.0,
        "msbfs": 1.0,
        "batched/b4@0.01": 1.2,
        "sharded/s4@0.01": 0.9,
    }


def test_known_sections_derived_from_baseline():
    """Sections come from the committed report's keys (minus meta), so
    a new workload committed to the baseline is guarded without
    touching any hard-coded list."""
    committed = report()
    committed["meta"] = {"smoke": True}
    assert set(known_sections(committed)) == {
        "multiply", "bfs_kernels", "bfs", "tilebfs", "msbfs",
        "batched", "sharded"}
    committed["brand_new_workload"] = [{"speedup": 2.0}]
    current = report()
    failures, _ = check_regression(current, committed)
    assert {"label": "section:brand_new_workload",
            "missing": True} in failures


def test_no_regression_on_identical_reports():
    assert check_regression(report(), report()) == ([], [])


def test_small_wobble_passes():
    current = report(multiply_speedup=7.0)      # 0.7x of committed 10x
    assert check_regression(current, report(), floor=0.6) == ([], [])


def test_detects_drop_below_floor():
    current = report(kernel_speedup=2.0)        # 0.4x of committed 5x
    failures, _ = check_regression(current, report(), floor=0.6)
    assert [f["label"] for f in failures] == \
        ["bfs_kernels/push_csr@0.01/v0.025"]
    assert failures[0]["committed_speedup"] == 5.0
    assert failures[0]["current_speedup"] == 2.0


def test_labels_on_one_side_are_ignored():
    committed = report()
    current = report()
    current["bfs_kernels"] = []                  # rows removed: ignored
    current["multiply"].append(                  # new row: ignored
        {"form": "csc", "density": 0.5, "speedup": 0.1})
    assert check_regression(current, committed) == ([], [])


def test_floor_is_configurable():
    current = report(tilebfs=5.0)               # 5/6 ~ 0.83
    assert check_regression(current, report(), floor=0.9)[0] != []
    assert check_regression(current, report(), floor=0.8) == ([], [])


def test_missing_section_fails():
    """A whole section recorded in the committed baseline but absent
    from the current report is a hard failure — the guard used to pass
    silently on reports that dropped a workload."""
    committed = report()
    current = report()
    del current["batched"]
    failures, _ = check_regression(current, committed)
    assert failures == [{"label": "section:batched", "missing": True}]
    # both sides missing the section: nothing to compare, no failure
    committed2 = report()
    del committed2["batched"]
    assert check_regression(current, committed2) == ([], [])
    # a section only in the current report is fine (new workloads land)
    assert check_regression(report(), committed2) == ([], [])


def test_empty_section_is_not_missing():
    """An empty row list is still a present section (its labels are
    simply gone, which per-label logic ignores); only a *removed*
    section key trips the missing-section failure."""
    committed = report()
    current = report()
    current["batched"] = []
    assert check_regression(current, committed) == ([], [])


def test_noise_floor_skips_micro_rows():
    """Rows whose faster timed side is below the noise floor are timer
    noise and must not flake the guard — they are reported as skipped;
    rows without timings (synthetic fixtures) are always compared."""
    committed = report()
    committed["bfs_kernels"][0].update(ref_ms=0.20, new_ms=0.04)
    current = report(kernel_speedup=0.5)        # would fail the floor
    current["bfs_kernels"][0].update(ref_ms=0.02, new_ms=0.04)
    assert check_regression(current, committed) == (
        [], ["bfs_kernels/push_csr@0.01/v0.025"])
    # same drop on a well-measured row still fails
    committed["bfs_kernels"][0].update(ref_ms=25.0, new_ms=5.0)
    current["bfs_kernels"][0].update(ref_ms=5.0, new_ms=10.0)
    failures, skipped = check_regression(current, committed)
    assert len(failures) == 1 and skipped == []
