"""Tests of the benchmark itself: its correctness gate, the transparency of its
tracing, and its coverage of the stages `build_report` runs.

    python -m pytest -q perfbench
"""

from __future__ import annotations

import ast
import inspect
import json
import os
import shutil
import subprocess
import sys
import textwrap

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402

SMALL = workload.Workload("A5")  # the whole certified pipeline in well under a second

# Helpers build_report calls that only do index arithmetic or build the result.
NOT_STAGES = {"_shift_hom", "HomologyReport"}


def test_gate_rejects_failed_check_and_wrong_digest():
    good = {"checks": {"d2": True, "euler": True}, "digest": "abc"}
    assert run.gate(good, "plain", "abc") is None
    assert run.gate(good, "plain", "abd") is not None
    assert run.gate({"checks": {"d2": True, "euler": False}, "digest": "abc"},
                    "plain", "abc") is not None
    assert run.gate({"checks": {}, "digest": "abc"}, "plain", "abc") is not None
    assert run.gate({"checks": {"cells_type_I": True}}, "setup", "abc") is None


def test_corrupted_frozen_digest_counts_as_failed(tmp_path, monkeypatch, capsys):
    with open(run.DIGESTS, encoding="utf-8") as fh:
        digests = json.load(fh)
    digests["d9-certified"] = "0" * 64
    corrupted = tmp_path / "digests.json"
    corrupted.write_text(json.dumps(digests))
    monkeypatch.setattr(run, "DIGESTS", str(corrupted))
    assert run.main(["--workload", "d9-certified", "--seed", "0", "--seconds", "1"]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["run_s"]["value"] is None


def _traced_run(counting: bool):
    tracer = tracing.Tracer(counting=counting)
    try:
        out = workload.run_pipeline(SMALL, 0, tracer)
    finally:
        tracer.uninstall()
    return out, tracer


def test_traced_and_untraced_runs_give_the_same_report():
    plain = workload.run_pipeline(SMALL, 0, tracing.NullTracer())
    spans, _ = _traced_run(counting=False)
    counts, tracer = _traced_run(counting=True)
    assert plain["digest"] == spans["digest"] == counts["digest"]
    assert all(plain["checks"].values())
    assert run.totals(tracer.to_doc()["counts"])["scalar.mul"] > 0


def _build_report_callees() -> set[str]:
    import acy.homology

    tree = ast.parse(textwrap.dedent(inspect.getsource(acy.homology.build_report)))
    names = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id not in NOT_STAGES:
            if callable(vars(acy.homology).get(f.id)):
                names.add(f.id)
        elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
            owner = f.value.id
            if owner == "hom" or inspect.ismodule(vars(acy.homology).get(owner)):
                names.add(f"{owner}.{f.attr}")
    return names


def test_trace_covers_every_stage_of_build_report():
    import acy.homology

    tracer = tracing.Tracer()
    try:
        out = workload.run_pipeline(SMALL, 0, tracer)
        for name in _build_report_callees():
            owner, _, attr = name.rpartition(".")
            if owner == "hom":
                target = getattr(acy.homology.Homology, attr)
            elif owner:
                target = getattr(vars(acy.homology)[owner], attr)
            else:
                target = vars(acy.homology)[attr]
                if inspect.isclass(target):
                    target = target.__init__
            assert hasattr(target, "__wrapped__"), f"build_report calls {name} untraced"
    finally:
        tracer.uninstall()
    assert not hasattr(acy.homology.Homology.__init__, "__wrapped__")
    doc = tracer.to_doc()
    for stage in ("homology.init", "homology.hh_table", "homology.duality",
                  "series.euler", "homology.resolution", "report.serialize"):
        assert stage in doc["spans"], stage
    total = out["report_done"] - doc["first_start"]
    unattributed = total - doc["top_s"]
    assert 0 <= unattributed < 0.05 * total


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "a9-certified",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
