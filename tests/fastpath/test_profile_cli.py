"""The ``python -m repro.bench profile`` per-layer breakdown CLI."""

import json

from repro.bench.profile import main, profile_bfs


def test_profile_document_shape():
    doc = profile_bfs(scale=8, edge_factor=4, nt=16, repeats=1)
    assert doc["iterations"] == len(doc["layers"])
    assert doc["total_ms"] > 0
    assert doc["reached"] == sum(r["new_vertices"]
                                 for r in doc["layers"]) + 1
    assert [r["depth"] for r in doc["layers"]] == \
        list(range(1, doc["iterations"] + 1))
    assert doc["meta"]["fastpath_tier"] in ("numba", "numpy")


def test_profile_cli_json_and_pstats(tmp_path, capsys):
    out = tmp_path / "prof.json"
    rc = main(["--scale", "8", "--edge-factor", "4", "--nt", "16",
               "--repeats", "1", "--out", str(out),
               "--pstats-out", str(tmp_path / "prof.pstats")])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["meta"]["scale"] == 8
    assert (tmp_path / "prof.pstats").exists()
    text = capsys.readouterr().out
    assert "TileBFS profile" in text


def test_profile_dispatch_via_bench_main(tmp_path, capsys):
    from repro.bench.__main__ import main as bench_main
    rc = bench_main(["profile", "--scale", "7", "--edge-factor", "4",
                     "--nt", "16", "--repeats", "1"])
    assert rc == 0
    assert "TileBFS profile" in capsys.readouterr().out
