#!/usr/bin/env python3
"""Regenerate the frozen cell data shipped in src/acy/data/.

Each file is produced by the solver with a fixed seed (the A graphs and A5*
take its exact type I route, on which the seed plays no part) and passes the
exact type I/II verification before being written; orbifold and unfolding
families (D, D*, E8) are reconstructed from these at runtime and need no
files of their own.

The shipped files were written by earlier versions of the solver, which
adjoined products of quantum integers; the current solver adjoins the first
|w|^2 of each square class instead.  A run of this script with the current
solver therefore writes other radicands, and so other bytes, for every file
but A5 and A5*.  For A4-A9, A12, A5*-A9*, A11* and A13* it writes the same
field and the same weights: each equals the shipped one once the shipped
roots are written in the new tower (tests/test_solver.py checks A4-A9 and
A5*-A9*).  For A10*, A12* and E8* it lands on a different gauge of the same
cells: every derived dimension agrees.  The shipped files have not been
regenerated with the current solver.
"""

import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from acy.cells import cells_to_doc  # noqa: E402
from acy.quiver import build_family  # noqa: E402
from acy.solver import solve_cells  # noqa: E402

TARGETS = [
    ("A", 4), ("A", 5), ("A", 6), ("A", 7), ("A", 8), ("A", 9), ("A", 12),
    ("A*", 5), ("A*", 6), ("A*", 7), ("A*", 8), ("A*", 9),
    ("A*", 10), ("A*", 11), ("A*", 12), ("A*", 13),
    ("E8*", None),
]


def main():
    outdir = pathlib.Path(__file__).resolve().parent.parent / "src" / "acy" / "data"
    outdir.mkdir(parents=True, exist_ok=True)
    for tag, n in TARGETS:
        t0 = time.time()
        g = build_family(tag, n)
        cells = solve_cells(g, seed=1)
        doc = cells_to_doc(cells)
        doc["label"] = "builtin"
        name = f"cells_{g.name.replace('*', 's')}.json"
        with open(outdir / name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"), sort_keys=True)
        print(f"{name}: |tri|={len(cells.weights)} tower_deg={cells.tower.degree} "
              f"({time.time() - t0:.1f}s)")


if __name__ == "__main__":
    main()
