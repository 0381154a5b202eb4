import json
import subprocess
import sys

import pytest

from acy.quiver import (GraphError, build_family, family_catalog, load_graph,
                        parse_graph_spec, perron_frobenius, save_graph)


def _matmul(A, B):
    n = len(A)
    return [[sum(A[i][k] * B[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


ALL_SPECS = ["A4", "A5", "A6", "A7", "A8", "A9", "A5*", "A6*", "A7*", "A8*", "A9*",
             "D6", "D9", "D12", "D5*", "D6*", "D7*", "D8*", "D9*", "E8", "E8*"]


def test_a4_structure():
    g = build_family("A", 4)
    assert len(g.vertices) == 3 and len(g.edges) == 3 and g.h == 4
    assert not g.nu_is_trivial()
    assert all(g.phi[v] == 1 for v in g.vertices)
    val, phi = perron_frobenius(g)
    assert val == g.tower.quantum(3) and all(phi[v] == 1 for v in g.vertices)


def test_e8star_structure():
    g = build_family("E8*")
    assert g.h == 8 and len(g.vertices) == 4 and len(g.edges) == 8
    pairs = sorted((e.src, e.dst) for e in g.edges)
    assert pairs == sorted([("1", "2"), ("2", "2"), ("2", "3"), ("3", "2"),
                            ("3", "3"), ("3", "1"), ("2", "4"), ("4", "3")])
    assert g.nu_is_trivial()


def test_vertex_counts():
    for n in (4, 5, 6, 7, 8, 9, 12):
        assert len(build_family("A", n).vertices) == (n - 1) * (n - 2) // 2
    for n in (6, 9, 12):
        k = (n - 3) // 3
        want = ((3 * k + 1) * (3 * k + 2) // 2 - 1) // 3 + 3
        assert len(build_family("D", n).vertices) == want


def test_d9_double_edge_and_identity_p():
    g = build_family("D", 9)
    doubles = [es for es in g.between.values() if len(es) > 1]
    assert len(doubles) == 1 and len(doubles[0]) == 2
    assert g.nu_is_trivial()


def test_p_commutes_and_nu_order():
    for spec in ALL_SPECS:
        g = parse_graph_spec(spec)
        D = g.adjacency()
        P = [[int(g.nu_v[v] == w) for w in g.vertices] for v in g.vertices]
        DT = [list(r) for r in zip(*D)]
        assert _matmul(P, D) == _matmul(D, P), spec
        assert _matmul(P, DT) == _matmul(DT, P), spec
        for v in g.vertices:
            assert g.nu_vertex_pow(v, 3) == v
            assert g.phi[g.nu_v[v]] == g.phi[v]
        eperm = g.nu_e
        assert all(eperm[eperm[eperm[e]]] == e for e in eperm)


def test_coloring_advances():
    for spec in ("A7", "D9", "D8*", "E8"):
        g = parse_graph_spec(spec)
        assert g.coloring is not None
        for e in g.edges:
            assert (g.coloring[e.src] + 1) % 3 == g.coloring[e.dst]
    assert parse_graph_spec("A7*").coloring is None


def test_a5_pf_values():
    g = build_family("A", 5)
    two = g.tower.quantum(2)
    vals = {str(g.phi[v].value(60)) for v in g.vertices}
    assert all(g.phi[v] == 1 or g.phi[v] == two for v in g.vertices)


def test_illegal_parameters():
    for tag, n in (("A", 3), ("A*", 4), ("D", 7), ("D", 5), ("D*", 4)):
        with pytest.raises(GraphError):
            build_family(tag, n)
    with pytest.raises(GraphError):
        parse_graph_spec("E12")
    with pytest.raises(GraphError):
        parse_graph_spec("Q5")


def test_save_load_round_trip():
    for spec in ("A4", "D9", "E8*"):
        g = parse_graph_spec(spec)
        doc = json.loads(json.dumps(save_graph(g)))
        assert save_graph(load_graph(doc)) == doc


def test_load_rejects_bad_coloring():
    g = build_family("E8")
    doc = save_graph(g)
    doc["coloring"][g.edges[0].dst] = (doc["coloring"][g.edges[0].dst] + 1) % 3
    with pytest.raises(GraphError) as err:
        load_graph(doc)
    assert "edge" in str(err.value)


def test_hand_written_e8_document():
    base_pairs = [("1", "2"), ("2", "2"), ("2", "3"), ("3", "2"),
                  ("3", "3"), ("3", "1"), ("2", "4"), ("4", "3")]
    vertices = [f"{v}_{a}" for a in range(3) for v in "1234"]
    edges = []
    for a in range(3):
        for (s, d) in base_pairs:
            edges.append({"id": len(edges), "src": f"{s}_{a}", "dst": f"{d}_{(a + 1) % 3}"})
    nu_v = {f"{v}_{a}": f"{v}_{(a + 2) % 3}" for a in range(3) for v in "1234"}
    doc = {"schema": "acy-graph/1", "name": "E8-hand", "h": 8,
           "vertices": vertices, "edges": edges,
           "coloring": {f"{v}_{a}": a for a in range(3) for v in "1234"},
           "nu": {"vertex_map": nu_v}}
    g = load_graph(doc)
    ref = build_family("E8")
    assert set(g.vertices) == set(ref.vertices)
    assert sorted((e.src, e.dst) for e in g.edges) == sorted((e.src, e.dst) for e in ref.edges)
    assert g.nu_v == ref.nu_v
    assert all(g.phi[v] == ref.phi[v] for v in g.vertices)


def test_catalog():
    rows = family_catalog()
    a_row = [r for r in rows if r["family"] == "A"][0]
    assert a_row["example"]["h"] == 4 and a_row["example"]["vertices"] == 3
    d_row = [r for r in rows if r["family"] == "D"][0]
    assert d_row["example"]["name"] == "D9" and d_row["example"]["P"] == "identity"
    assert any("E4(12)" in (r["note"] or "") for r in rows)


def _loop_graph_doc(phi_values):
    """Three vertices with a loop each, nu cycling them; at h = 4, [3] = 1,
    so every positive vector is a [3]-eigenvector."""
    from acy.scalar import FieldTower

    tower = FieldTower(4)
    verts = ["x", "y", "z"]
    return {"schema": "acy-graph/1", "name": "loops", "h": 4, "vertices": verts,
            "edges": [{"id": i, "src": v, "dst": v} for i, v in enumerate(verts)],
            "nu": {"vertex_map": {"x": "y", "y": "z", "z": "x"}},
            "pf": {"tower": tower.to_doc(),
                   "coords": {v: tower.from_fraction(q).to_coords()
                              for v, q in zip(verts, phi_values)}}}


def test_closed_form_phi_matches_the_nullspace():
    # A(n) from the quantum dimensions, D(n) from its cover, the unfoldings
    # from their base: each equals the exact nullspace route
    specs = ([f"A{n}" for n in range(4, 16)] + [f"D{n}" for n in (6, 9, 12, 15)]
             + [f"D{n}*" for n in range(5, 10)] + ["E8"])
    for spec in specs:
        g = parse_graph_spec(spec)
        val, phi = perron_frobenius(g)
        assert val == g.tower.quantum(3), spec
        assert all(g.phi[v] == phi[v] for v in g.vertices), spec


def test_nu_not_commuting_with_delta_raises():
    # the 3-cycle a -> b -> c -> a plus a chord a -> c; the rotation a -> b -> c
    # sends the chord to b -> a, which is not an edge
    pairs = [("a", "b"), ("b", "c"), ("c", "a"), ("a", "c")]
    doc = {"schema": "acy-graph/1", "name": "chord", "h": 4, "vertices": ["a", "b", "c"],
           "edges": [{"id": i, "src": s, "dst": d} for i, (s, d) in enumerate(pairs)],
           "nu": {"vertex_map": {"a": "b", "b": "c", "c": "a"}}}
    with pytest.raises(GraphError, match="does not commute"):
        load_graph(doc)


def test_nontrivial_nu_refuses_parallel_edges_with_or_without_an_edge_map():
    # the 3-cycle a -> b -> c -> a with every edge doubled commutes with the
    # rotation; the explicit edge map is a valid order-3 permutation over it
    pairs = [("a", "b"), ("a", "b"), ("b", "c"), ("b", "c"), ("c", "a"), ("c", "a")]
    doc = {"schema": "acy-graph/1", "name": "double", "h": 4, "vertices": ["a", "b", "c"],
           "edges": [{"id": i, "src": s, "dst": d} for i, (s, d) in enumerate(pairs)],
           "nu": {"vertex_map": {"a": "b", "b": "c", "c": "a"}}}
    messages = []
    for edge_map in (None, {str(i): (i + 2) % 6 for i in range(6)}):
        if edge_map is not None:
            doc["nu"]["edge_map"] = edge_map
        with pytest.raises(GraphError, match="parallel edges") as err:
            load_graph(doc)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def test_partial_edge_map_raises():
    doc = save_graph(build_family("A", 5))
    del doc["nu"]["edge_map"]["0"]
    with pytest.raises(GraphError, match="edge nu"):
        load_graph(doc)


def test_phi_gate_rejects_a_changed_coordinate():
    doc = save_graph(build_family("A", 6))
    v = doc["vertices"][1]
    coords = doc["pf"]["coords"][v]["re"]["0"]
    coords[1] += 1
    with pytest.raises(GraphError, match=r"not a \[3\]-eigenvector"):
        load_graph(doc)


def test_phi_gate_rejects_a_phi_that_is_not_nu_invariant():
    assert load_graph(_loop_graph_doc([1, 1, 1])).phi["z"] == 1
    with pytest.raises(GraphError, match="not nu-invariant"):
        load_graph(_loop_graph_doc([1, 2, 3]))


def test_cli_rejects_a_graph_file_with_a_bad_phi(tmp_path):
    from acy.cli import EXIT_INPUT

    doc = save_graph(build_family("A", 6))
    doc["pf"]["coords"][doc["vertices"][1]]["re"]["0"][1] += 1
    path = tmp_path / "a6_bad_phi.json"
    path.write_text(json.dumps(doc))
    proc = subprocess.run([sys.executable, "-m", "acy.cli", "compute", "--graph", f"file:{path}"],
                          capture_output=True, text=True)
    assert proc.returncode == EXIT_INPUT
    assert "not a [3]-eigenvector" in proc.stderr and "Traceback" not in proc.stderr
