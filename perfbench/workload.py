"""One run of one benchmark workload, in a fresh process.

    python3 perfbench/workload.py --workload a9-certified --seed 0 --mode plain

Drives acy's public pipeline from outside, in the order of `acy compute`:
parse_graph_spec -> builtin_cells / solve_cells -> verify_type_I/II ->
derive_relations -> GradedAlgebra -> build_report -> spot_checks -> to_doc.
Prints one JSON line with monotonic timestamps of the milestones, the checks,
the sha256 of the canonical report, the peak RSS and the speed scale of the
speed probe.  `run.py` starts this script one process at a time and turns the
timestamps into metrics.

Modes: `plain` (untraced), `setup` (stops after type I/II certification),
`spans` (stage and layer spans, see tracing.py) and `counts` (spans plus
counters on the hot methods; its timings are distorted and not reported).
"""

from __future__ import annotations

import time

STARTED = time.monotonic()  # first thing: the interpreter has just come up

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SRC = os.path.join(REPO, "src")


@dataclass(frozen=True)
class Workload:
    graph: str
    solve: bool = False        # live solve_cells instead of the shipped cells
    report: bool = True        # run build_report; else stop after the algebra
    resolution: bool = True    # build_report's resolution certificate


# Why each workload is in the benchmark: see README.md.
WORKLOADS = {
    "a9-certified": Workload("A9"),
    "d9-certified": Workload("D9"),
    "a12-tables": Workload("A12", resolution=False),
    "a11-solve": Workload("A11", solve=True, report=False),
}

SOLVER_DIGITS = 70  # acy compute's default --precision
PROBE_PERIOD_S = 0.1
# Times are reported at the machine speed at which the probe loop takes
# REF_PROBE_S: a child's times are multiplied by its speed_scale.
REF_PROBE_S = 2.0e-4


def canonical(doc: dict) -> str:
    """The report as `acy compute --format json` writes it (minus the newline)."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def dims_doc(A) -> dict:
    """Graded block dimensions of the algebra: what a11-solve's digest covers.
    They do not depend on the gauge of the solved cells."""
    return {"graph": A.graph.name,
            "dims": {str(k): {f"{s}->{d}": len(idxs)
                              for (s, d), idxs in sorted(A.block_index[k].items())}
                     for k in range(len(A.block_index))}}


def _probe_loop() -> int:
    acc = 0
    for i in range(3000):
        acc += (i * 7919) % 1009
    return acc


class SpeedProbe:
    """The machine's speed while the child runs.

    On the shared machine the speed of a core drifts by up to ~1.5x over
    seconds to minutes, which a 20-second run cannot average out.  A SIGALRM
    handler times a fixed pure-Python loop (~0.2 ms) every PROBE_PERIOD_S;
    `run.py` multiplies the child's times by REF_PROBE_S / (mean loop time).
    The loop is the benchmark's own code, so a change to acy does not move it.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        _probe_loop()
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if not self.samples:
            self._sample()

    def speed_scale(self) -> float:
        return REF_PROBE_S / statistics.mean(self.samples)


def run_pipeline(w: Workload, seed: int, tracer, setup_only: bool = False) -> dict:
    """Run the workload once; return milestones, checks and the report digest."""
    span = tracer.span
    with span("import"):
        import acy.algebra
        import acy.cells
        import acy.homology
        import acy.quiver
        import acy.solver
    with span("trace.install"):
        tracer.install()
    graph = acy.quiver.parse_graph_spec(w.graph)
    if w.solve:
        cells = acy.solver.solve_cells(graph, seed=seed, digits=SOLVER_DIGITS)
    else:
        cells = acy.cells.builtin_cells(graph)
    r1 = acy.cells.verify_type_I(cells)
    r2 = acy.cells.verify_type_II(cells)
    checks = {"cells_type_I": r1.ok, "cells_type_II": r2.ok}
    relations = acy.cells.derive_relations(cells)
    setup_done = time.monotonic()
    out = {"setup_done": setup_done, "checks": checks,
           "tower_degree": cells.tower.degree}
    if setup_only or not (r1.ok and r2.ok):
        return out
    A = acy.algebra.GradedAlgebra(graph, relations)  # raises if the Hilbert gate fails
    if w.report:
        rep = acy.homology.build_report(A, cells, max_index=13,
                                        with_resolution=w.resolution)
        rep.checks.update(acy.algebra.spot_checks(A, seed))
        with span("report.serialize"):
            doc = rep.to_doc()
            checks = doc["checks"]
            out["digest"] = hashlib.sha256(canonical(doc).encode()).hexdigest()
    else:
        checks["hilbert"] = True
        with span("report.serialize"):
            out["digest"] = hashlib.sha256(canonical(dims_doc(A)).encode()).hexdigest()
    out["report_done"] = time.monotonic()
    out["checks"] = checks
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["plain", "setup", "spans", "counts"],
                    default="plain")
    args = ap.parse_args(argv)
    seed = args.seed % 2**32  # numpy's generator takes no negative seed
    sys.path.insert(0, SRC)
    from tracing import NullTracer, Tracer

    tracer = NullTracer() if args.mode in ("plain", "setup") else \
        Tracer(counting=args.mode == "counts")
    with SpeedProbe() as probe:
        out = run_pipeline(WORKLOADS[args.workload], seed, tracer,
                           setup_only=args.mode == "setup")
    out["speed_scale"] = probe.speed_scale()
    out["started"] = STARTED
    out["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if isinstance(tracer, Tracer):
        out["trace"] = tracer.to_doc()
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
