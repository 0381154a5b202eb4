import hashlib
import json
import subprocess
import sys

import pytest

from acy.cells import CellSystem, builtin_cells, cells_to_doc
from acy.quiver import build_family, save_graph


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "acy.cli", *args],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_graphs_list():
    code, out, _ = run_cli("graphs", "list")
    assert code == 0
    assert "A4: h=4, |V|=3" in out
    assert "D9: h=9" in out and "P=identity" in out
    assert "E4(12)" in out


def test_compute_json_deterministic():
    code1, out1, _ = run_cli("compute", "--graph", "A4", "--cells", "builtin",
                             "--format", "json", "--seed", "5")
    code2, out2, _ = run_cli("compute", "--graph", "A4", "--cells", "builtin",
                             "--format", "json", "--seed", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["tables"]["hh"]["2"] == {"3": 1}
    assert all(doc["checks"].values())
    assert doc["tool"]["seed"] == 5


@pytest.mark.parametrize("graph,digest", [
    ("A4", "f2b58d0b3b417408fd0ae8545397779e0434ea32e5ab64f4e9d625abc6661286"),
    ("E8*", "8f652d55a6c71c24bf7d6c92a59ee277effef45da9a74252010e7825495ca2aa"),
])
def test_compute_text_is_pinned(graph, digest):
    # every byte of the text report: headers, series, spacing and checks line
    code, out, _ = run_cli("compute", "--graph", graph)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of `acy compute --format json`, the `tool` block included.  A6, A5*
# and D5* have no gauge invariants, so their algebra is built over Q.  The
# invariants of D6, D9 and D12 are omega and its conjugate, so theirs is built
# over Q(omega).  E8, A9*, A13* and D7* have invariants that are not cube roots
# of unity, A9* and A13* several real ones, and theirs is built over the cells'
# tower.  In every case the report, whose `tool.tower` is the cells' tower,
# keeps the bytes it had when every algebra with invariants was built over the
# cells' tower.
@pytest.mark.parametrize("graph,digest", [
    ("A6", "3b9208d7e5aab660864f47c0b1ded37c5b4f456e46a549e12a5744257cc5eb08"),
    ("A5*", "c809538465a071381e1129056b9af3e321754771405853c203d640fef92a6b2a"),
    ("D5*", "14c9d8c57a850d5d7ba2d5443914fd456f9b300660a280f43db459b8c950ce19"),
    ("D6", "1d5770726c9a015bbc9c521ea9ebf38b7f753e3f64b3f989cb340022d598d774"),
    ("D9", "1298b3c352031162981805fd809d02a9f7aca3707bc28266e2dfdbfc901b39cf"),
    ("D12", "179e26f0bdd5d67f6ea301d39a061283b45e965d72b7eaa1f117a60aa1664a99"),
    ("E8", "276ed2d28369590c958389a0bc49eca280932405306766d5d588da35ec9e729c"),
    ("D7*", "44da743b5c6f6edca399e13dbf39718653db307d3a7ec635dbc94e8b2f3e0505"),
    ("A9*", "c90c7cbfc75ad3b69f185e85eccebe993167f039b9c50f8bcd7ea8f563d7865f"),
    ("A13*", "16997d0aa8585096f6f4c55bdd3d5ce4e7d7cd6a3061276d50bd7e3bfe174da5"),
])
def test_compute_json_is_pinned(graph, digest):
    code, out, _ = run_cli("compute", "--graph", graph, "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_compute_solve_a4():
    code, out, _ = run_cli("compute", "--graph", "A4", "--cells", "solve",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["tables"]["hh"]["2"] == {"3": 1}


def test_compute_zero_cells_fails(tmp_path):
    g = build_family("A", 4)
    zero = CellSystem(g, g.tower, {t: g.tower.zero() for t in g.triangles()})
    path = tmp_path / "zero_cells.json"
    path.write_text(json.dumps(cells_to_doc(zero)))
    code, out, _ = run_cli("compute", "--graph", "A4", "--cells", f"file:{path}",
                           "--format", "json")
    assert code == 3
    assert json.loads(out)["failed_gate"] == "cells"


def test_bad_inputs():
    code, _, err = run_cli("compute", "--graph", "Z9")
    assert code == 2 and "error" in err
    code, _, err = run_cli("compute", "--graph", "A4", "--cells", "file:/nonexistent.json")
    assert code == 2
    code, _, err = run_cli("compute", "--graph", "A4", "--cutoff-degree", "5")
    assert code == 2 and "3h" in err
    # D15 is the orbifold of A15, for which no frozen cells ship
    code, _, err = run_cli("compute", "--graph", "D15")
    assert code == 2 and "for D15, which is built from A15:" in err


def _malformed(case):
    """(option, document, what the error must name) for one malformed input file."""
    if case.startswith("cells"):
        doc = cells_to_doc(builtin_cells(build_family("A", 4)))
        if case == "cells-without-tower":
            del doc["tower"]
            return "--cells", doc, "'tower'"
        ids = doc["triangles"][0]["edge_ids"]
        if case == "cells-edge-id-as-a-fraction":
            ids[0] = 0.25
            return "--cells", doc, "'edge_ids'"
        if case == "cells-edge-ids-as-strings":
            ids[:] = [str(x) for x in ids]
            return "--cells", doc, "'edge_ids'"
        if case == "cells-four-edge-ids":
            ids.append(ids[0])
            return "--cells", doc, "'edge_ids'"
        if case == "cells-triangle-listed-twice":
            doc["triangles"].append(doc["triangles"][0])
            return "--cells", doc, f"triangle {tuple(ids)}"
        if case == "cells-label-as-a-list":
            doc["label"] = ["x"]
            return "--cells", doc, "'label'"
        doc["tower"]["roots"] = [5]
        return "--cells", doc, "'roots'"
    doc = save_graph(build_family("A", 4))
    if case == "edge-without-id":
        del doc["edges"][0]["id"]
        return "--graph", doc, "'id'"
    if case == "coloring-as-a-list":
        doc["coloring"] = [0]
        return "--graph", doc, "'coloring'"
    if case == "coloring-with-a-string":
        doc["coloring"][doc["vertices"][0]] = "0"
        return "--graph", doc, "'coloring'"
    if case == "pf-coords-without-a-vertex":
        del doc["pf"]["coords"][doc["vertices"][0]]
        return "--graph", doc, "pf.coords"
    if case == "pf-coords-with-an-extra-key":
        doc["pf"]["coords"]["x"] = doc["pf"]["coords"][doc["vertices"][0]]
        return "--graph", doc, "pf.coords"
    if case == "vertex-as-a-list":
        doc["vertices"][0] = ["x"]
        return "--graph", doc, "vertices"
    return "--graph", [doc], "must be a JSON object, not list"


@pytest.mark.parametrize("case", ["cells-without-tower", "cells-with-a-bad-root",
                                  "cells-edge-id-as-a-fraction", "cells-edge-ids-as-strings",
                                  "cells-four-edge-ids", "cells-triangle-listed-twice",
                                  "cells-label-as-a-list",
                                  "edge-without-id", "coloring-as-a-list",
                                  "coloring-with-a-string", "pf-coords-without-a-vertex",
                                  "pf-coords-with-an-extra-key", "vertex-as-a-list",
                                  "graph-as-a-list"])
def test_malformed_files_are_input_errors(tmp_path, case):
    from acy.cli import EXIT_INPUT

    option, doc, named = _malformed(case)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    args = {"--graph": "A4", "--cells": "builtin", option: f"file:{path}"}
    code, _, err = run_cli("compute", *[x for kv in args.items() for x in kv])
    assert code == EXIT_INPUT and named in err and "Traceback" not in err


def test_mistyped_scalar_coordinates_are_input_errors(tmp_path):
    from acy.cli import EXIT_INPUT

    graph = save_graph(build_family("A", 4))
    graph["pf"]["coords"][graph["vertices"][0]]["re"]["0"] = "1"
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    code, _, err = run_cli("compute", "--graph", f"file:{path}")
    assert code == EXIT_INPUT and "'re'" in err and "Traceback" not in err


@pytest.mark.parametrize("root, named", [([1, 2], "must have 3 integers"),
                                         ([0, 1, 0], "zero denominator"),
                                         ([1, -1, 0], "not positive")])
def test_bad_radicands_are_input_errors(tmp_path, root, named):
    # a copy of the A5 cell file, whose tower adjoins one square root
    from acy.cells import _load_cell_doc
    from acy.cli import EXIT_INPUT

    doc = _load_cell_doc("cells_A5.json")
    doc["tower"]["roots"] = [root]
    path = tmp_path / "cells.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli("compute", "--graph", "A5", "--cells", f"file:{path}")
    assert code == EXIT_INPUT and named in err and "Traceback" not in err


def test_a_mistyped_nu_edge_map_is_an_input_error(tmp_path):
    from acy.cli import EXIT_INPUT

    graph = save_graph(build_family("A", 4))
    first = next(iter(graph["nu"]["edge_map"]))
    graph["nu"]["edge_map"][first] = "x"
    path = tmp_path / "graph.json"
    path.write_text(json.dumps(graph))
    code, _, err = run_cli("compute", "--graph", f"file:{path}")
    assert code == EXIT_INPUT and "nu.edge_map" in err and "Traceback" not in err


def test_compute_rejects_periods_below_one():
    for periods in ("0", "-1"):
        code, out, err = run_cli("compute", "--graph", "A4", "--periods", periods)
        assert code == 2 and "--periods" in err and out == ""


def test_verify_commands():
    code, out, _ = run_cli("verify", "--graph", "A5", "--check", "duality")
    assert code == 0 and "duality: pass" in out
    code, out, _ = run_cli("verify", "--graph", "E8*", "--check", "hilbert")
    assert code == 0 and "hilbert: pass" in out
    code, out, _ = run_cli("verify", "--graph", "D9", "--check", "euler")
    assert code == 0 and "euler: pass" in out
    code, out, _ = run_cli("verify", "--graph", "A4", "--check", "cells",
                           "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"]["cells_type_I"] and doc["checks"]["cells_type_II"]


def test_verify_cells_builds_no_algebra(monkeypatch, capsys):
    import acy.cli

    argv = ["verify", "--graph", "A12", "--check", "cells", "--format", "json"]
    assert acy.cli.main(argv) == 0
    expected = capsys.readouterr().out

    def no_algebra(*args, **kwargs):
        raise AssertionError("verify --check cells built the algebra")

    monkeypatch.setattr(acy.cli, "GradedAlgebra", no_algebra)
    assert acy.cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out == expected
    assert json.loads(out)["checks"] == {"cells_type_I": True, "cells_type_II": True}


def test_out_file(tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli("compute", "--graph", "A4", "--format", "json",
                           "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["graph"] == "A4"


@pytest.mark.parametrize("option", ["--out", "--graph", "--cells"])
def test_a_directory_path_is_an_input_error(tmp_path, option):
    from acy.cli import EXIT_INPUT

    args = {"--graph": "A4", "--cells": "builtin",
            option: str(tmp_path) if option == "--out" else f"file:{tmp_path}"}
    code, _, err = run_cli("compute", *[x for kv in args.items() for x in kv])
    assert code == EXIT_INPUT and "Traceback" not in err


@pytest.mark.parametrize("precision", ["0", "15", "-3"])
def test_a_solve_precision_below_16_is_an_input_error(precision):
    from acy.cli import EXIT_INPUT

    code, _, err = run_cli("compute", "--graph", "A4", "--cells", "solve",
                           "--precision", precision)
    assert code == EXIT_INPUT and "--precision" in err and "Traceback" not in err


def test_compute_from_graph_file(tmp_path):
    import json as _json

    from acy.quiver import save_graph

    path = tmp_path / "d9.json"
    path.write_text(_json.dumps(save_graph(build_family("D", 9))))
    code, out, _ = run_cli("compute", "--graph", f"file:{path}", "--format", "json")
    assert code == 0
    doc = _json.loads(out)
    assert doc["graph"] == "D9" and all(doc["checks"].values())


def test_compute_solve_from_graph_files(tmp_path):
    # a file-loaded D or D* graph has no cover or base graph attached: the
    # solved base cells reach it through the canonical built-in twin
    from acy.quiver import save_graph

    for family, n in (("D", 6), ("D*", 5)):
        g = build_family(family, n)
        path = tmp_path / f"{g.name}.json"
        path.write_text(json.dumps(save_graph(g)))
        code, out, err = run_cli("compute", "--graph", f"file:{path}", "--cells", "solve",
                                 "--format", "json")
        assert code == 0, err
        doc = json.loads(out)
        assert doc["graph"] == g.name and all(doc["checks"].values())


def test_verify_all_a4():
    code, out, _ = run_cli("verify", "--graph", "A4", "--check", "all")
    assert code == 0
    for line in ("cells_type_I: pass", "hilbert: pass", "duality: pass",
                 "resolution: pass", "euler: pass", "hh0_cross: pass"):
        assert line in out, line


def test_verify_all_runs_every_check_of_compute():
    code, out, _ = run_cli("compute", "--graph", "A4", "--format", "json")
    report = json.loads(out)
    assert code == 0 and "failures" not in report
    code, out, _ = run_cli("verify", "--graph", "A4", "--check", "all", "--format", "json")
    doc = json.loads(out)
    want = {"resolution" if k == "exactness" else k for k in report["checks"]}
    assert code == 0 and set(doc["details"]) == {"frames"}
    assert set(doc["checks"]) == want | {"cells_type_I", "cells_type_II"}


def test_verify_reports_where_d2_fails(monkeypatch, capsys):
    # +1 on the first term of mu_3 at the first vertex: the Hochschild
    # differentials then fail d o d at index 2, degree 3 only, and the
    # resolution fails it on the generators that meet that term
    import acy.cli
    import acy.homology

    differentials = acy.homology.differentials

    def bumped(A):
        mu = differentials(A)
        terms = next(iter(mu[3].values()))
        left, v, right, c = terms[0]
        terms[0] = (left, v, right, c + A.one)
        return mu

    monkeypatch.setattr(acy.homology, "differentials", bumped)
    code = acy.cli.main(["verify", "--graph", "A5", "--check", "d2", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["checks"] == {"hilbert": True, "d2": False}
    assert doc["details"] == {"d2_failures": [
        [2, 3], ["d2-exact", 3, "0,0"], ["d2-exact", 4, "0,0"], ["d2-exact", 4, "0,1"]]}


def test_failed_math_check_exits_3(monkeypatch, capsys):
    # a rank above the dimension bound makes an HH dimension negative: a typed
    # math failure, reported with exit 3 and no traceback
    import acy.cli
    from acy.homology import Homology

    monkeypatch.setattr(Homology, "rank", lambda self, r, twist, j: 10**6)
    assert acy.cli.main(["compute", "--graph", "A4"]) == 3
    err = capsys.readouterr().err
    assert "mathematical check failed: negative HH dimension" in err
    assert "Traceback" not in err


def test_an_undecided_square_test_is_a_solver_error(monkeypatch, capsys):
    # the square test gives up with ArithmeticError past its last
    # precision; solve_cells reports it as a SolverError, exit 4
    import acy.cli
    import acy.scalar
    from acy.cli import EXIT_SOLVER

    def undecided(h, g):
        raise ArithmeticError(f"undecided whether {g} is a square at h={h}")

    monkeypatch.setattr(acy.scalar, "_base_sqrt", undecided)
    assert acy.cli.main(["compute", "--graph", "A6", "--cells", "solve"]) == EXIT_SOLVER
    assert "solver error: cannot adjoin a squared weight of A6" in capsys.readouterr().err


def test_a_closed_form_that_is_no_polynomial_is_an_input_error(monkeypatch, capsys):
    # A4's h bumped to 5 once its cells have passed their gates: the closed
    # form of its Hilbert series is then no polynomial, a typed input error
    import acy.cli
    from acy.cli import EXIT_INPUT

    derive = acy.cli.derive_relations

    def bumped(cells):
        rels = derive(cells)
        cells.graph.h += 1
        return rels

    monkeypatch.setattr(acy.cli, "parse_graph_spec", lambda spec: build_family("A", 4))
    monkeypatch.setattr(acy.cli, "derive_relations", bumped)
    assert acy.cli.main(["verify", "--graph", "A4", "--check", "hilbert"]) == EXIT_INPUT
    assert "error: the Hilbert series of A4 is not a polynomial" in capsys.readouterr().err


def test_verify_reports_where_duality_fails(monkeypatch, capsys):
    # +1 on one entry of mu'_2 at algebra degree 1 (total degree 3) of the
    # twist-0 family: on A5 its dual partner mu'_10 has twist 2, so the
    # duality identity fails at (2, 3) only
    import acy.cli
    from acy import linalg
    from acy.homology import Homology

    mat = Homology.mat

    def bumped(self, r, twist, j):
        m = mat(self, r, twist, j)
        if (r, self._tw(twist), j) != (2, 0, 1):
            return m
        cols = [dict(c) for c in m["cols"]]
        # +1 on the first entry, which is -1 over Q: axpy drops the zero
        linalg.axpy(cols[0], [(next(iter(cols[0])), self.A.one)])
        return {**m, "cols": cols}

    monkeypatch.setattr(Homology, "mat", bumped)
    code = acy.cli.main(["verify", "--graph", "A5", "--check", "duality", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["checks"] == {"hilbert": True, "duality": False}
    assert doc["details"] == {"duality_failures": [[2, 3]]}


def test_a_flipped_relation_coefficient_fails_the_hilbert_gate(monkeypatch, capsys):
    # the sign of one term of A6's first two-term relation, flipped: the
    # algebra then misses a cycle at degree 3
    import acy.cli

    derive = acy.cli.derive_relations

    def flipped(cells):
        rels = derive(cells)
        terms = next(r.terms for r in rels.relations if len(r.terms) > 1)
        key = next(iter(terms))
        terms[key] = -terms[key]
        return rels

    monkeypatch.setattr(acy.cli, "derive_relations", flipped)
    code = acy.cli.main(["verify", "--graph", "A6", "--check", "hilbert", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["checks"] == {"hilbert": False}
    assert doc["details"]["hilbert_error"].startswith("Hilbert gate failed for A6 at degree 3")
    code = acy.cli.main(["compute", "--graph", "A6", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 3 and "Traceback" not in captured.err
    assert json.loads(captured.out)["failed_gate"] == "hilbert"
