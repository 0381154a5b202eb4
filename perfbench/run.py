"""Benchmark runner for acy: time to a certified report, per workload.

    python3 perfbench/run.py --workload a9-certified --seed 0 --seconds 20 --trace 0

Runs `workload.py` in fresh, single-threaded child processes, one at a time,
from the root of the checkout (acy is imported from `src/`; nothing is
installed).  Every child passes a correctness gate: it exits 0, every `checks`
value is true, and the sha256 of its canonical report equals the digest
frozen in `digests.json`.  A child that misses the gate counts as failed and
its timings are dropped.

--trace 0: full-pipeline children until the next one would overrun
`--seconds` (at least one), then setup-only children until there are
SETUP_SAMPLES set-up samples.  Reports the medians of run_s, setup_s, cpu_s
and peak_rss_mb.

--trace 1: one untraced child, one child with stage and layer spans, and one
with call counters on the hot methods (`--seconds` is not used).  Reports the
per-layer metrics, the full per-stage breakdown and the tracing overhead.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  See README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")
CHILD = os.path.join(HERE, "workload.py")
DIGESTS = os.path.join(HERE, "digests.json")

DEADLINE_S = 170.0   # the whole run ends within 180 s
SETUP_SAMPLES = 5    # set-up samples per untraced run

sys.path.insert(0, HERE)
from workload import WORKLOADS  # noqa: E402

HOT_COUNTERS = ("algebra.mul_basis", "algebra.mul", "algebra.mul_edge", "algebra.unit",
                "linalg.eliminator_add", "scalar.mul", "scalar.add", "scalar.inverse",
                "scalar.reduce_mod", "scalar.prime_find")

# Counters also reported under the stage that encloses them: the pairings an
# optimisation of the resolution, duality, HH_0 or algebra build would move.
NESTED = {
    "homology.resolution": HOT_COUNTERS,
    "homology.duality": ("algebra.mul_basis", "algebra.mul", "algebra.mul_edge",
                         "algebra.unit", "scalar.mul", "scalar.add"),
    "homology.hh_table": ("algebra.mul", "algebra.mul_edge", "algebra.unit",
                          "linalg.eliminator_add", "scalar.mul", "scalar.add",
                          "scalar.inverse"),
    "homology.hh0": ("algebra.mul_basis", "linalg.eliminator_add", "scalar.mul",
                     "scalar.add", "scalar.inverse"),
    "algebra.build": ("linalg.eliminator_add", "scalar.mul", "scalar.add",
                      "scalar.inverse"),
    "algebra.form": ("algebra.mul_basis", "algebra.mul", "algebra.mul_edge",
                     "algebra.unit", "scalar.mul"),
    "quiver.graph": ("linalg.eliminator_add", "scalar.mul", "scalar.add"),
    "cells.verify": ("scalar.mul", "scalar.add", "scalar.inverse"),
    "solver.solve": ("scalar.mul", "scalar.add", "scalar.inverse"),
}

SPAN_METRICS = {  # per-layer metric -> span (inclusive seconds)
    "quiver.graph_s": "quiver.graph", "cells.load_s": "cells.load",
    "cells.verify_s": "cells.verify", "solver.solve_s": "solver.solve",
    "series.hilbert_s": "series.hilbert", "series.euler_s": "series.euler",
    "algebra.build_s": "algebra.build", "algebra.form_s": "algebra.form",
    "linalg.rank_s": "linalg.rank",
    "homology.hh_table_s": "homology.hh_table", "homology.coh_table_s": "homology.coh_table",
    "homology.d2_s": "homology.d2", "homology.hh0_s": "homology.hh0",
    "homology.duality_s": "homology.duality", "homology.periodicity_s": "homology.periodicity",
    "homology.cohomology_routes_s": "homology.cohomology_routes",
    "homology.resolution_s": "homology.resolution", "report.serialize_s": "report.serialize",
}

RSS_METRICS = {"algebra.rss_growth_mb": "algebra.build",
               "homology.duality_rss_growth_mb": "homology.duality",
               "homology.resolution_rss_growth_mb": "homology.resolution"}


@dataclass
class Sample:
    """One child process: its gate verdict and, if it passed, its timings."""
    mode: str
    error: str | None = None
    run_s: float | None = None
    setup_s: float | None = None
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    scale: float = 1.0       # the child's speed_scale, see workload.SpeedProbe
    launched: float = 0.0
    doc: dict = field(default_factory=dict)


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED=str(seed % 2**32), PYTHONPATH=SRC)
    return env


def gate(doc: dict, mode: str, digest: str) -> str | None:
    """Why the child's output is not a correct report, or None if it is."""
    checks = doc.get("checks") or {}
    failed = sorted(k for k, v in checks.items() if v is not True)
    if not checks or failed:
        return f"checks failed: {failed}"
    if mode != "setup" and doc.get("digest") != digest:
        return f"report digest {doc.get('digest')} != frozen {digest}"
    return None


def run_child(workload: str, seed: int, mode: str, digest: str, deadline: float) -> Sample:
    cmd = [sys.executable, CHILD, "--workload", workload, "--seed", str(seed), "--mode", mode]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    launched = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=child_env(seed), cwd=REPO, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - launched))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return Sample(mode, error="timed out")
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        return Sample(mode, error=f"exit code {proc.returncode}: {tail[0]}")
    try:
        doc = json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return Sample(mode, error="no result line")
    error = gate(doc, mode, digest)
    if error:
        return Sample(mode, error=error, doc=doc)
    return Sample(
        mode, launched=launched, doc=doc,
        run_s=doc["report_done"] - launched if "report_done" in doc else None,
        setup_s=doc["setup_done"] - launched,
        cpu_s=(after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
        peak_rss_mb=doc["maxrss_kb"] / 1024, scale=doc["speed_scale"])


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info = {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version()}
    for lib in ("mpmath", "sympy", "numpy", "scipy"):
        try:
            info[lib] = metadata.version(lib)
        except metadata.PackageNotFoundError:
            info[lib] = None
    return info


def log(line: str):
    print(line, flush=True)


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced(workload, seed, seconds, digest, deadline):
    # The first child warms the file and bytecode caches; it is gated, not timed.
    samples = [run_child(workload, seed, "setup", digest, deadline)]
    budget_end = time.monotonic() + seconds
    full = []
    longest = 0.0
    while not any(s.error for s in samples) and \
            (not full or time.monotonic() + longest <= budget_end):
        t0 = time.monotonic()
        full.append(run_child(workload, seed, "plain", digest, deadline))
        samples.append(full[-1])
        longest = max(longest, time.monotonic() - t0)
    good = [s for s in full if not s.error]
    set_up = good[:]
    while not any(s.error for s in samples) and len(set_up) < SETUP_SAMPLES:
        samples.append(run_child(workload, seed, "setup", digest, deadline))
        set_up.append(samples[-1])
    set_up = [s for s in set_up if not s.error]
    series = {"run_s": (good, lambda s: s.run_s), "setup_s": (set_up, lambda s: s.setup_s),
              "cpu_s": (good, lambda s: s.cpu_s)}
    metrics = {}
    for name, (group, raw) in series.items():
        scaled = [raw(s) * s.scale for s in group]
        metrics[name] = metric(statistics.median(scaled) if scaled else None, "s")
        log(f"  {name:<12} {metrics[name]['value'] or float('nan'):10.4f} s   median of "
            f"{len(scaled)}: {[round(v, 4) for v in scaled]}; raw {[round(raw(s), 4) for s in group]}")
    rss = [s.peak_rss_mb for s in good]
    metrics["peak_rss_mb"] = metric(statistics.median(rss) if rss else None, "MB")
    log(f"  {'peak_rss_mb':<12} {metrics['peak_rss_mb']['value'] or float('nan'):10.4f} MB  "
        f"median of {len(rss)}: {[round(v, 4) for v in rss]}")
    return samples, metrics


def totals(counts: dict[str, dict[str, int]]) -> dict[str, int]:
    """Call counts summed over the stages they were filed under."""
    out: dict[str, int] = {}
    for per_stage in counts.values():
        for name, n in per_stage.items():
            out[name] = out.get(name, 0) + n
    return out


def layer_metrics(plain: Sample, spans: Sample, counts: Sample) -> dict:
    """Per-layer metrics from one untraced, one span and one counting child."""
    sd, cd = spans.doc["trace"], counts.doc["trace"]
    sp = sd["spans"]
    details = sd["details"]
    span_calls = totals(sd["counts"])
    hot_calls = totals(cd["counts"])

    def s(name):
        return sp.get(name, {}).get("s", 0.0)

    out = {k: metric(s(v), "s") for k, v in SPAN_METRICS.items()}
    out.update({k: metric(sp.get(v, {}).get("rss_growth_mb", 0.0), "MB")
                for k, v in RSS_METRICS.items()})
    out["cells.frames"] = metric(int(details.get("cells.frames", 0)), "count")
    out["algebra.dim"] = metric(int(details.get("algebra.dim", 0)), "count")
    out["scalar.tower_degree"] = metric(spans.doc["tower_degree"], "count")
    for name in HOT_COUNTERS:
        out[name + "_calls"] = metric(hot_calls.get(name, 0), "count")
    cols = details.get("linalg.rank_cols", 0)
    out["linalg.rank_calls"] = metric(span_calls.get("linalg.rank", 0), "count")
    out["linalg.rank_cols"] = metric(int(cols), "count")
    out["linalg.rank_nnz"] = metric(int(details.get("linalg.rank_nnz", 0)), "count")
    out["linalg.rank_fill"] = metric(details.get("linalg.rank_sum", 0) / cols if cols else 0.0,
                                     "ratio")
    hom_rank = span_calls.get("homology.rank", 0)
    out["homology.rank_calls"] = metric(hom_rank, "count")
    out["homology.rank_cache_hit_ratio"] = metric(
        1 - span_calls.get("linalg.rank", 0) / hom_rank if hom_rank else 0.0, "ratio")
    finds = sd["counts"].get("homology.resolution", {}).get("scalar.prime_find", 0)
    out["homology.resolution_prime_yield"] = metric(
        details.get("homology.usable_primes", 0) / finds if finds else 0.0, "ratio")
    for stage, names in NESTED.items():
        per_stage = cd["counts"].get(stage, {})
        for name in names:
            out[f"{stage}.{name}_calls"] = metric(per_stage.get(name, 0), "count")
    out["trace.overhead_ratio"] = metric(spans.run_s * spans.scale / (plain.run_s * plain.scale),
                                         "ratio")
    out["trace.unattributed_s"] = metric(unattributed_s(spans), "s")
    return out


def unattributed_s(spans: Sample) -> float:
    """Time from the first span to the report that no top-level span covers.
    Before the first span the interpreter starts and workload.py parses its
    arguments; that is reported as `process.start` in the breakdown."""
    t = spans.doc["trace"]
    return spans.doc["report_done"] - t["first_start"] - t["top_s"]


def breakdown(spans: Sample, counts: Sample):
    t = spans.doc["trace"]
    log(f"  process.start {t['first_start'] - spans.launched:.4f} s")
    log(f"  {'span':<32}{'calls':>8}{'incl s':>10}{'self s':>10}{'rss+ MB':>9}")
    for name, a in sorted(t["spans"].items(), key=lambda kv: -kv[1]["s"]):
        log(f"  {name:<32}{a['calls']:>8}{a['s']:>10.4f}{a['self_s']:>10.4f}"
            f"{a['rss_growth_mb']:>9.1f}")
    log("  calls by enclosing stage (counting pass):")
    for stage, per in sorted(counts.doc["trace"]["counts"].items()):
        items = ", ".join(f"{k}={v}" for k, v in sorted(per.items()))
        log(f"    {stage}: {items}")


def traced(workload, seed, digest, deadline):
    plain = run_child(workload, seed, "plain", digest, deadline)
    spans = run_child(workload, seed, "spans", digest, deadline)
    counts = run_child(workload, seed, "counts", digest, deadline)
    samples = [plain, spans, counts]
    if any(s.error for s in samples):
        return samples, {}
    log(f"{workload}: traced run {spans.run_s:.3f} s, untraced {plain.run_s:.3f} s, "
        f"counting {counts.run_s:.3f} s")
    breakdown(spans, counts)
    return samples, layer_metrics(plain, spans, counts)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not os.path.isfile(os.path.join(SRC, "acy", "__init__.py")):
        print(f"error: no acy package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with open(DIGESTS, encoding="utf-8") as fh:
        digest = json.load(fh)[args.workload]

    log("machine " + json.dumps(machine_info(), sort_keys=True))
    if args.trace:
        samples, metrics = traced(args.workload, args.seed, digest, deadline)
    else:
        samples, metrics = untraced(args.workload, args.seed, args.seconds, digest, deadline)
    failed = [s for s in samples if s.error]
    for s in failed:
        print(f"FAILED {s.mode} child: {s.error}", file=sys.stderr)
    log(f"  {'fail_ratio':<12} {len(failed) / len(samples):10.4f} ratio "
        f"({len(failed)} of {len(samples)} runs failed)")
    print(json.dumps({"correct": not failed, "attempted": len(samples),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
