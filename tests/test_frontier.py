import importlib.util
import json
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "frontier.py"


def _frontier():
    spec = importlib.util.spec_from_file_location("frontier", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_frontier_records_a_pass_and_a_timeout(tmp_path, monkeypatch):
    frontier = _frontier()
    # A4 passes in well under a second; A24 with a live solve takes ~14 s,
    # far past the 3 s timeout, so its one run times out however it varies
    monkeypatch.setattr(frontier, "LADDER", [("A4", "builtin"), ("A24", "solve")])
    monkeypatch.setattr(frontier, "TIMEOUT_S", 3)
    monkeypatch.setattr(frontier, "OUT_DIR", tmp_path)
    assert frontier.main(["t"]) == 0
    doc = json.loads((tmp_path / "BENCH_frontier_t.json").read_text())
    assert doc["label"] == "t" and doc["timeout_s"] == 3
    a4, slow = doc["rungs"]
    assert (a4["graph"], a4["cells"], a4["outcome"], a4["exit"]) == ("A4", "builtin", "pass", 0)
    assert 0 < a4["wall_s"] < 3 and a4["peak_rss_mb"] > 0 and a4["runs"] == 3
    # the sha256 of `acy compute --graph A4 --format json`
    assert a4["report_sha256"] == \
        "67caaf932182d69c482a3884006d4cb6efd04f30242cdf57995bfbd7e19f5ffa"
    assert (slow["graph"], slow["outcome"], slow["runs"]) == ("A24", "timeout", 1)
    assert "report_sha256" not in slow
    assert slow["exit"] < 0 and 3 <= slow["wall_s"] < 10 and slow["peak_rss_mb"] > 0


def test_frontier_repeats_a_passing_rung_only(monkeypatch):
    frontier = _frontier()
    walls = {"pass": [5.0, 1.0, 3.0], "fail": [2.0], "timeout": [9.0]}
    calls = []

    def run_rung(graph, cells):
        calls.append(graph)
        wall = walls[graph][calls.count(graph) - 1]
        return {"graph": graph, "cells": cells, "outcome": graph, "exit": 0,
                "wall_s": wall, "peak_rss_mb": 10 * wall}

    monkeypatch.setattr(frontier, "run_rung", run_rung)
    row = frontier.measure_rung("pass", "builtin")
    assert (row["runs"], row["wall_s"], row["peak_rss_mb"]) == (3, 3.0, 30.0)
    for outcome in ("fail", "timeout"):
        row = frontier.measure_rung(outcome, "builtin")
        assert (row["outcome"], row["runs"], row["wall_s"]) == (outcome, 1, walls[outcome][0])
    assert calls == ["pass"] * 3 + ["fail", "timeout"]


def test_frontier_compiles_the_package_once_before_the_first_rung(tmp_path, monkeypatch):
    frontier = _frontier()
    events = []

    def compile_dir(path, **kwargs):
        events.append(("compile", pathlib.Path(path)))
        return True

    def run_rung(graph, cells):
        events.append(("rung", graph))
        return {"graph": graph, "cells": cells, "outcome": "fail", "exit": 3,
                "wall_s": 0.1, "peak_rss_mb": 10.0}

    monkeypatch.setattr(frontier.compileall, "compile_dir", compile_dir)
    monkeypatch.setattr(frontier, "run_rung", run_rung)
    monkeypatch.setattr(frontier, "LADDER", [("A4", "builtin"), ("A5", "builtin")])
    monkeypatch.setattr(frontier, "OUT_DIR", tmp_path)
    assert frontier.main(["t"]) == 0
    assert events == [("compile", frontier.ROOT / "src" / "acy"), ("rung", "A4"), ("rung", "A5")]
