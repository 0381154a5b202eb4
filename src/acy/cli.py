"""Command-line front end.

    acy graphs list
    acy compute --graph E8* --cells builtin --format json
    acy verify  --graph A5 --check duality

`compute` and `verify` pass the same gates, cell verification and the
Hilbert gate, and take their checks from one `build_report`: `compute`
prints the whole report, `verify` the check that `--check` selects (`all`:
every check of the report, plus the cell checks) with its first failing
locations.  `verify --check cells` runs the cell gates alone.

Exit codes: 0 all checks pass; 2 input/schema error; 3 mathematical check
failure; 4 solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .algebra import AlgebraError, GradedAlgebra, spot_checks
from .cells import (GaugeError, builtin_cells, cells_from_doc, derive_relations,
                    family_cells, verify_type_I, verify_type_II)
from .homology import build_report
from .quiver import GraphError, family_catalog, parse_graph_spec
from .solver import SolverError, solve_cells

EXIT_OK, EXIT_INPUT, EXIT_MATH, EXIT_SOLVER = 0, 2, 3, 4


def _emit(doc, args, text: str | None = None):
    if args.format == "json":
        payload = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    else:
        payload = (text if text is not None else json.dumps(doc, indent=2)) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _load_cells(graph, spec: str, seed: int, precision: int):
    if spec == "builtin":
        return builtin_cells(graph)
    if spec == "solve":
        if precision < 16:  # PSLQ needs 53 bits, at ~3.32 bits per digit
            raise GraphError(f"--precision must be >= 16 with --cells solve, got {precision}")
        return family_cells(graph, lambda base: solve_cells(base, seed=seed, digits=precision))
    if spec.startswith("file:"):
        with open(spec[5:], "r", encoding="utf-8") as fh:
            return cells_from_doc(graph, json.load(fh))
    raise GraphError(f"unknown cells spec {spec!r} (use builtin, solve, or file:PATH)")


def _tool_meta(seed: int, tower) -> dict:
    return {
        "name": "acy",
        "version": __version__,
        "seed": seed,
        "basis_order": "echelon over lexicographic path order (edge ids)",
        "tower": tower.describe(),
    }


def cmd_graphs_list(args) -> int:
    rows = family_catalog()
    if args.format == "json":
        _emit({"schema": "acy-graphs/1", "families": rows}, args)
    else:
        lines = []
        for r in rows:
            ex = r["example"]
            if ex:
                lines.append(f"{r['family']:<6} {r['constraint'] or '':<22} {r['note']}")
                lines.append(f"       e.g. {ex['name']}: h={ex['h']}, |V|={ex['vertices']}, "
                             f"|E|={ex['edges']}, P={ex['P']}")
            else:
                lines.append(f"{r['family']:<6} {'':<22} {r['note']}")
        _emit({}, args, "\n".join(lines))
    return EXIT_OK


def _cell_gates(args, graph):
    """Load the cells and run the cell gates of `compute` and `verify`:
    (cells, type I result, type II result)."""
    cells = _load_cells(graph, args.cells, args.seed, args.precision)
    return cells, verify_type_I(cells), verify_type_II(cells)


def _hilbert_gate(graph, cells):
    """The algebra of cells that passed the cell gates, which runs the
    Hilbert gate: (algebra, None), or (None, the gate's error)."""
    try:
        return GradedAlgebra(graph, derive_relations(cells)), None
    except AlgebraError as exc:
        return None, str(exc)


def cmd_compute(args) -> int:
    if args.periods < 1:
        raise GraphError(f"--periods must be >= 1, got {args.periods}")
    graph = parse_graph_spec(args.graph)
    if args.cutoff_degree is not None and args.cutoff_degree < 3 * graph.h:
        raise GraphError(f"--cutoff-degree must be >= 3h = {3 * graph.h} "
                         "when cyclic homology is requested")
    cells, r1, r2 = _cell_gates(args, graph)
    if not (r1.ok and r2.ok):
        _emit({"schema": "acy-report/1", "graph": graph.name, "failed_gate": "cells",
               "type_I_failures": r1.failures[:10], "type_II_failures": r2.failures[:10]},
              args, f"FAIL cells: type I/II verification failed for {graph.name}")
        return EXIT_MATH
    A, error = _hilbert_gate(graph, cells)
    if A is None:
        _emit({"schema": "acy-report/1", "graph": graph.name, "failed_gate": "hilbert",
               "error": error}, args, f"FAIL hilbert: {error}")
        return EXIT_MATH
    max_index = 12 * args.periods + 1
    rep = build_report(A, cells, max_index=max_index, cutoff=args.cutoff_degree)
    rep.checks.update(spot_checks(A, args.seed))
    doc = rep.to_doc()
    doc["tool"] = _tool_meta(args.seed, cells.tower)
    _emit(doc, args, rep.render_text())
    return EXIT_OK if rep.ok else EXIT_MATH


def cmd_verify(args) -> int:
    """The gates, then the selected checks of `build_report`: the one that
    `--check` names, or with `all` every check `compute` reports.  A failing
    gate is always shown, as the checks after it cannot run.  `cells`
    stops after the cell gates, and builds no algebra."""
    graph = parse_graph_spec(args.graph)
    want = args.check
    cells, r1, r2 = _cell_gates(args, graph)
    A = error = None
    if want != "cells" and r1.ok and r2.ok:
        A, error = _hilbert_gate(graph, cells)
    checks, details = {}, {}
    if want in ("cells", "all") or not (r1.ok and r2.ok):
        checks.update(cells_type_I=r1.ok, cells_type_II=r2.ok)
        details["frames"] = {"type_I": r1.frames, "type_II": r2.frames}
    if error is not None:
        checks["hilbert"] = False
        details["hilbert_error"] = error
    elif A is not None:
        checks["hilbert"] = True
    if A is not None and want != "hilbert":
        rep = build_report(A, cells, with_resolution=want in ("d2", "resolution", "all"))
        rep.checks.update(spot_checks(A, args.seed))
        selected = {"hh0": "hh0_cross", "resolution": "exactness"}.get(want, want)
        for key, ok in rep.checks.items():
            if selected in ("all", key):
                name = "resolution" if key == "exactness" else key
                checks[name] = ok
                if key in rep.failures:
                    details[f"{name}_failures"] = rep.failures[key]
    doc = {"schema": "acy-verify/1", "graph": graph.name, "checks": checks,
           "details": details}
    text = [f"graph {graph.name}"] + [f"  {k}: {'pass' if v else 'FAIL'}"
                                      for k, v in sorted(checks.items())]
    text += [f"  {k.removesuffix('_failures')} failed at: {json.dumps(v)}"
             for k, v in sorted(details.items()) if k.endswith("_failures")]
    _emit(doc, args, "\n".join(text))
    return EXIT_OK if all(checks.values()) else EXIT_MATH


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="acy", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--version", action="version", version=f"acy {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("graphs", help="built-in graph families")
    gsub = g.add_subparsers(dest="graphs_command", required=True)
    glist = gsub.add_parser("list", help="list built-in families")
    _common_output(glist)

    c = sub.add_parser("compute", help="full pipeline: cells, algebra, HH/HC/HH*")
    c.add_argument("--graph", required=True, help="family spec (A4, A7*, D9, E8*) or file:PATH")
    c.add_argument("--cells", default="builtin", help="builtin | solve | file:PATH")
    c.add_argument("--cutoff-degree", type=int, default=None, help="degree cutoff (default 4h)")
    c.add_argument("--periods", type=int, default=1, help="periods of the complex (index 12p+1)")
    c.add_argument("--precision", type=int, default=70, help="solver digits")
    c.add_argument("--seed", type=int, default=0,
                   help="seed for the spot checks, and for the least-squares solver where "
                        "--cells solve takes it; the A family and A5* are solved exactly "
                        "from type I, so the seed does not change their cells")
    _common_output(c)

    v = sub.add_parser("verify", help="the report's checks, all or one")
    v.add_argument("--graph", required=True)
    v.add_argument("--cells", default="builtin")
    v.add_argument("--check", default="all",
                   choices=["cells", "hilbert", "duality", "euler", "resolution",
                            "d2", "hh0", "all"])
    v.add_argument("--precision", type=int, default=70)
    v.add_argument("--seed", type=int, default=0)
    _common_output(v)

    args = ap.parse_args(argv)
    try:
        if args.command == "graphs":
            return cmd_graphs_list(args)
        if args.command == "compute":
            return cmd_compute(args)
        return cmd_verify(args)
    except (GraphError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except (AlgebraError, GaugeError) as exc:
        print(f"mathematical check failed: {exc}", file=sys.stderr)
        return EXIT_MATH


def _common_output(p):
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.add_argument("--out", default=None, help="write output to a file")


if __name__ == "__main__":
    sys.exit(main())
