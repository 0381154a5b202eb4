#!/usr/bin/env python3
"""Record the certified frontier: how far up a fixed ladder of graphs
`acy compute` passes every check within a fixed time and memory budget.

    python scripts/frontier.py LABEL

Each rung of LADDER runs `python -m acy.cli compute --format json` in its own
child process, against the source tree next to this script, with a wall-clock
limit of TIMEOUT_S and an address-space cap of RSS_CAP_MB (RLIMIT_AS, set in
the child only).  The record, BENCH_frontier_LABEL.json at the repository
root, gives per rung the wall time, the peak RSS (from os.wait4), the exit
status and the outcome: pass, fail, timeout or oom; a rung that passes also
gets `report_sha256`, the sha256 of the report on standard output, so that a
record shows which bytes held at each rung.  The package is compiled to
bytecode once, before the first rung, so that no run times the compile.
A rung that passes runs REPEATS times, and the record keeps the medians of
its wall times and peak RSS, so that one slow run does not set the figure;
a rung that fails or times out runs once.  The record's `runs` says how
many runs a rung took.
"""

import compileall
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
OUT_DIR = ROOT
LADDER = [("A12", "builtin"), ("A13*", "builtin"), ("D9*", "builtin"),
          ("A13", "solve"), ("A15", "solve"), ("A16", "solve"), ("A18", "solve"),
          ("D15", "solve"), ("D18", "solve"), ("A15*", "solve"),
          ("A21", "solve"), ("D21", "solve"), ("A24", "solve"), ("D24", "solve"),
          ("A27", "solve"), ("D27", "solve"), ("A30", "solve"), ("D30", "solve")]
TIMEOUT_S = 600
RSS_CAP_MB = 4096
REPEATS = 3


def _cap_address_space():
    cap = RSS_CAP_MB << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def run_rung(graph: str, cells: str) -> dict:
    """One `acy compute` child: its wall time, peak RSS, exit status and
    outcome, and the sha256 of its report when it passes."""
    cmd = [sys.executable, "-m", "acy.cli", "compute", "--graph", graph,
           "--cells", cells, "--format", "json"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    with tempfile.TemporaryFile("w+") as err, tempfile.TemporaryFile() as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdout=out, stderr=err,
                                preexec_fn=_cap_address_space)
        killed = False
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if not killed and time.perf_counter() - start > TIMEOUT_S:
                proc.kill()
                killed = True
            time.sleep(0.02)
        wall = time.perf_counter() - start
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read()
        out.seek(0)
        report_sha256 = hashlib.sha256(out.read()).hexdigest()
    if killed:
        outcome = "timeout"
    elif code == 0:
        outcome = "pass"
    elif "MemoryError" in stderr:
        outcome = "oom"
    else:
        outcome = "fail"
    row = {"graph": graph, "cells": cells, "outcome": outcome, "exit": code,
           "wall_s": round(wall, 2), "peak_rss_mb": round(usage.ru_maxrss / 1024, 1)}
    if outcome == "pass":
        row["report_sha256"] = report_sha256
    elif stderr.strip():
        row["error"] = stderr.strip().splitlines()[-1]
    return row


def measure_rung(graph: str, cells: str) -> dict:
    """`run_rung` REPEATS times while every run passes, with the median wall
    time and peak RSS of the runs; the first run that does not pass, as it is."""
    runs = []
    while len(runs) < REPEATS:
        row = run_rung(graph, cells)
        runs.append(row)
        if row["outcome"] != "pass":
            return dict(row, runs=len(runs))
    return dict(runs[0], runs=len(runs),
                wall_s=statistics.median(r["wall_s"] for r in runs),
                peak_rss_mb=statistics.median(r["peak_rss_mb"] for r in runs))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    label = argv[0]
    if not compileall.compile_dir(str(ROOT / "src" / "acy"), quiet=1):
        print("cannot compile src/acy to bytecode", file=sys.stderr)
        return 1
    rungs = []
    for graph, cells in LADDER:
        rungs.append(measure_rung(graph, cells))
        print(json.dumps(rungs[-1]), flush=True)
    doc = {"schema": "acy-frontier/1", "label": label, "timeout_s": TIMEOUT_S,
           "rss_cap_mb": RSS_CAP_MB, "repeats": REPEATS, "cpus": os.cpu_count(),
           "python": platform.python_version(), "rungs": rungs}
    path = OUT_DIR / f"BENCH_frontier_{label}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
