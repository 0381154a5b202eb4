import hashlib
import json
import subprocess
import sys
from fractions import Fraction

import pytest

import acy.cells
from acy import cli
from acy.algebra import AlgebraError, GradedAlgebra
from acy.cells import (CellSystem, GaugeError, builtin_cells, cells_from_doc, cells_to_doc,
                       check_nu_invariance, compile_equations, derive_relations,
                       family_cells, nu_orbit, orbifold_cells, verify_type_I, verify_type_II)
from acy.quiver import build_family, canon, parse_graph_spec
from acy.scalar import OMEGA, RATIONALS, Eisenstein
from acy.solver import solve_cells
from oracles import (brute_equations, brute_triangles, gauge_transform,
                     standard_relations_e8, standard_relations_e8star)


def test_solved_a4_weight():
    g = build_family("A", 4)
    cells = solve_cells(g, seed=3)
    (w,) = cells.weights.values()
    assert w * w == g.tower.quantum(2).lift(cells.tower)
    assert (w * w) ** 2 == 2  # |W| = 2^(1/4)


def test_zero_cells_fail_type_I():
    g = build_family("A", 4)
    zero = CellSystem(g, g.tower, {t: g.tower.zero() for t in g.triangles()})
    rep = verify_type_I(zero)
    assert not rep.ok and rep.failures
    rep2 = verify_type_II(zero)
    assert not rep2.ok


def _assert_matches_brute_force(g):
    assert g.triangles() == brute_triangles(g)
    assert [(eq.kind, eq.frame, eq.terms, eq.rhs)
            for eq in compile_equations(g)] == brute_equations(g)


@pytest.mark.parametrize("spec", ["A4", "A5", "A6", "A7", "A5*", "A6*", "A7*",
                                  "E8*", "E8", "D5*", "D6", "D9"])
def test_triangles_and_equations_match_the_brute_force_reference(spec):
    _assert_matches_brute_force(parse_graph_spec(spec))


@pytest.mark.parametrize("spec", ["A5", "D9"])
def test_the_reference_sees_an_edge_missing_from_between(spec):
    g = parse_graph_spec(spec)
    e = g.edges[0]
    g.between[(e.src, e.dst)] = [x for x in g.between[(e.src, e.dst)] if x is not e]
    with pytest.raises(AssertionError):
        _assert_matches_brute_force(g)


def test_builtin_cells_certified(pipe):
    for spec in ("A4", "A5", "A6", "A7", "A5*", "A6*", "A7*", "A8*", "A9*",
                 "E8", "E8*", "D6", "D9", "D6*", "D7*", "D8*", "D9*"):
        g, cells, _, _ = pipe(spec)
        assert verify_type_I(cells).ok, spec
        assert verify_type_II(cells).ok, spec


def test_d_cells_are_complex(pipe):
    _, cells, _, _ = pipe("D9")
    assert any(w.im for w in cells.weights.values())
    _, cells5, _, _ = pipe("D7*")
    assert not any(w.im for w in cells5.weights.values())


def test_derive_relations_single_triangle():
    # A4 has no gauge invariants: its one triangle gets the weight 1, over Q
    g = build_family("A", 4)
    cells = builtin_cells(g)
    rels = derive_relations(cells)
    assert len(rels.relations) == 3 and rels.tower == RATIONALS
    for r in rels.relations:
        assert len(r.terms) == 1
        ((b, c), w), = r.terms.items()
        assert not cells.weight(r.edge_id, b, c).is_zero()
        assert w == 1


def _loop_at(g, v):
    return [e.id for e in g.out_edges[v] if e.dst == v][0]


def _edge(g, s, d):
    return [e.id for e in g.out_edges[s] if e.dst == d][0]


def test_astar_relation_shapes():
    # even case: loop relation at vertex 1 supported on [121] and [111]
    g = build_family("A*", 8)
    rels = derive_relations(builtin_cells(g))
    by_edge = {r.edge_id: r for r in rels.relations}
    l1 = _loop_at(g, "1")
    e12, e21 = _edge(g, "1", "2"), _edge(g, "2", "1")
    assert set(by_edge[l1].terms) == {(e12, e21), (l1, l1)}
    # interior loop relation: [p(p-1)p] + [ppp] + [p(p+1)p]
    l2 = _loop_at(g, "2")
    e23, e32 = _edge(g, "2", "3"), _edge(g, "3", "2")
    assert set(by_edge[l2].terms) == {(e21, e12), (l2, l2), (e23, e32)}
    # cross relations: W[pp(p+1)] + W[p(p+1)(p+1)] at the edge (p+1)->p
    assert set(by_edge[e21].terms) == {(l1, e12), (e12, _loop_at(g, "2"))}


def test_astar_odd_extra_relations():
    # odd n: [r(r-1)(r-1)] = [(r-1)(r-1)r] = 0 (single-term relations)
    g = build_family("A*", 9)   # m = 4, no loop at 4
    rels = derive_relations(builtin_cells(g))
    by_edge = {r.edge_id: r for r in rels.relations}
    e34, e43 = _edge(g, "3", "4"), _edge(g, "4", "3")
    l3 = _loop_at(g, "3")
    assert set(by_edge[e34].terms) == {(e43, l3)}
    assert set(by_edge[e43].terms) == {(l3, e34)}
    assert "4" not in [e.dst for e in g.out_edges["4"]]


def test_e8star_standard_relations_give_same_algebra(pipe):
    g, cells, A, _ = pipe("E8*")
    std = standard_relations_e8star(g)
    A2 = GradedAlgebra(g, std)
    assert [A.dim(k) for k in range(A.top + 1)] == [A2.dim(k) for k in range(A2.top + 1)]
    assert all({blk: len(idxs) for blk, idxs in A.block_index[k].items()}
               == {blk: len(idxs) for blk, idxs in A2.block_index[k].items()}
               for k in range(A.top + 1))


def test_e8_standard_relations_give_same_algebra(pipe):
    g, cells, A, _ = pipe("E8")
    std = standard_relations_e8(g)
    A2 = GradedAlgebra(g, std)
    assert [A.dim(k) for k in range(A.top + 1)] == [A2.dim(k) for k in range(A2.top + 1)]


def test_e8star_relation_coefficient_pattern(pipe):
    # the relation at the edge 3->1 forces the [123]-composition to vanish:
    # the derived relation at edge 3->1 is a multiple of the single path [123]
    g, cells, _, _ = pipe("E8*")
    rels = derive_relations(cells)
    by_edge = {r.edge_id: r for r in rels.relations}
    e31 = _edge(g, "3", "1")
    e12, e23 = _edge(g, "1", "2"), _edge(g, "2", "3")
    assert set(by_edge[e31].terms) == {(e12, e23)}
    # loop relation [222] + (1/sqrt[3]) [232] up to scale: exactly two terms,
    # and the squared coefficient ratio is [3]
    l2 = _loop_at(g, "2")
    e32 = _edge(g, "3", "2")
    terms = by_edge[l2].terms
    assert set(terms) == {(l2, l2), (e23, e32)}
    ratio = terms[(l2, l2)] / terms[(e23, e32)]
    assert ratio * ratio == g.tower.quantum(3).lift(cells.tower)


def test_gauge_identity_and_sign():
    g = build_family("A", 4)
    cells = builtin_cells(g)
    same = gauge_transform(cells, {})
    assert same.weights == cells.weights
    e0 = g.edges[0]
    flipped = gauge_transform(cells, {(e0.src, e0.dst): [[-1]]})
    t = g.triangles()[0]
    assert flipped.weights[t] == -cells.weights[t]
    assert verify_type_I(flipped).ok and verify_type_II(flipped).ok


# -- the gauge rule of derive_relations --------------------------------------------

@pytest.mark.parametrize("spec,where", [("A6", "degree 1, basis 1 / 0"),
                                        ("E8", "degree 1, basis 8 / 18")])
def test_a_rescaling_off_the_nu_orbits_still_fails_the_form_check(spec, where):
    # one edge negated, and not the rest of its nu-orbit: the cells still pass
    # type I/II, but W is no longer nu-invariant, so derive_relations keeps it
    # and the form check sees that beta is not nu
    g = parse_graph_spec(spec)
    e = g.edges[0]
    flipped = gauge_transform(builtin_cells(g), {(e.src, e.dst): [[-1]]})
    assert verify_type_I(flipped).ok and verify_type_II(flipped).ok
    assert not check_nu_invariance(flipped)
    rels = derive_relations(flipped)
    assert rels.tower == flipped.tower
    A = GradedAlgebra(g, rels)
    with pytest.raises(AlgebraError, match=rf"^\(x,y\) != \(y,beta\(x\)\) at {where}$"):
        A.build_form()


@pytest.mark.parametrize("spec", ["E8*"])
def test_gauge_invariants_keep_the_cells_own_weights(pipe, spec):
    # E8*'s one invariant is -1, not a cube root of unity: W stays, over the
    # cells' tower
    _, cells, _, _ = pipe(spec)
    rels = derive_relations(cells)
    assert rels.tower == cells.tower != RATIONALS
    for r in rels.relations:
        for (b, c), w in r.terms.items():
            assert w == cells.weight(r.edge_id, b, c)


def test_cube_root_invariants_put_the_relations_over_q_omega(pipe):
    # D6's two invariants are omega and its conjugate: W' is 1 on W's support
    # but on two triangle nu-orbits, which take omega and its conjugate; the
    # relation set keeps the cells' tower, for the certificate's prime
    g, cells, A, _ = pipe("D6")
    rels = derive_relations(cells)
    assert rels.tower == cells.tower and rels.one == Eisenstein(1) and A.one is A.relations.one
    got = {canon((r.edge_id, b, c)): w for r in rels.relations for (b, c), w in r.terms.items()}
    assert set(got) == {t for t, w in cells.weights.items() if w}
    assert all(type(w) is Eisenstein for w in got.values())
    off = {t: w for t, w in got.items() if w != 1}
    assert sorted(set(off.values()), key=repr) == [OMEGA * OMEGA, OMEGA]
    assert len({min(nu_orbit(g, t)) for t in off}) == 2


def test_a_potential_with_a_wrong_invariant_is_refused_before_the_algebra(monkeypatch, capsys):
    # omega in place of its conjugate for one invariant: W' then fails the
    # exact check against W's invariants, and no algebra is built
    real = acy.cells._omega_exponents

    def omega_for_its_conjugate(n_orbits, kernel, powers):
        powers = list(powers)
        powers[powers.index(2)] = 1
        return real(n_orbits, kernel, powers)

    def no_algebra(*args):
        raise AssertionError("GradedAlgebra was built")

    monkeypatch.setattr(acy.cells, "_omega_exponents", omega_for_its_conjugate)
    monkeypatch.setattr(GradedAlgebra, "__init__", no_algebra)
    with pytest.raises(GaugeError, match=r"where W has omega\^2$"):
        derive_relations(builtin_cells(parse_graph_spec("D6")))
    assert cli.main(["compute", "--graph", "D6", "--format", "json"]) == 3
    assert "mathematical check failed: the potential over Q(omega)" in capsys.readouterr().err


def test_without_gauge_invariants_the_relations_are_the_all_ones_potential_over_q():
    g = parse_graph_spec("A9")
    cells = builtin_cells(g)
    rels = derive_relations(cells)
    assert rels.tower == RATIONALS != cells.tower
    got = {(r.edge_id, b, c): w for r in rels.relations for (b, c), w in r.terms.items()}
    support = {(a.id, b.id, c.id) for a in g.edges for b in g.out_edges[a.dst]
               for c in g.out_edges[b.dst]
               if c.dst == a.src and not cells.weight(a.id, b.id, c.id).is_zero()}
    assert set(got) == support
    assert all(type(w) is int and w == 1 for w in got.values())


def test_gauge_rejects_non_unitary():
    g = build_family("A", 4)
    cells = builtin_cells(g)
    e0 = g.edges[0]
    with pytest.raises(ValueError):
        gauge_transform(cells, {(e0.src, e0.dst): [[2]]})


def test_gauge_double_edge_rotation(pipe):
    g, cells, _, _ = pipe("D9")
    (pair,) = [es for es in g.between.values() if len(es) > 1]
    key = (pair[0].src, pair[0].dst)
    c, s = Fraction(3, 5), Fraction(4, 5)
    u = {key: [[c, s], [-s, c]]}
    mixed = gauge_transform(cells, u)
    assert verify_type_I(mixed).ok and verify_type_II(mixed).ok


def test_nu_invariance(pipe):
    g, cells, _, _ = pipe("A4")
    assert check_nu_invariance(cells)
    g6, cells6, _, _ = pipe("A6")
    assert check_nu_invariance(cells6)
    # breaking one orbit's weight breaks invariance
    t = g6.triangles()[0]
    broken = dict(cells6.weights)
    broken[t] = broken[t] * 2
    broken_cells = CellSystem(g6, cells6.tower, broken)
    assert not check_nu_invariance(broken_cells)


def test_orbifold_refuses_cover_cells_that_are_not_nu_invariant():
    cover = builtin_cells(build_family("A", 9))
    t = cover.graph.triangles()[0]
    broken = CellSystem(cover.graph, cover.tower, {**cover.weights, t: cover.weights[t] * 2})
    assert not check_nu_invariance(broken)
    with pytest.raises(ValueError, match="nu-invariant"):
        orbifold_cells(parse_graph_spec("D9"), broken)


# sha256 of the sorted-key JSON of the cells that the orbifold (D) and the
# unfoldings (D*, E8) build from the frozen data
CELL_PINS = {
    "D6": "7cbbd5b06c94fc8cf978c778137e4549b8a5197ea74b6293e48eac8236595982",
    "D9": "78cee25d7aecdf1a5716bb822ee52bd735247439f65a123ade2d29058c624558",
    "D12": "d4fa8790fede92e884a7401820871eab9e6820466411e1b5d3ba31f41ececf7d",
    "D5*": "4f5549938971140671439cdfd0f72239f4af634986a2d44dc7515aa0ca9aeae0",
    "D7*": "2bd495e34dfc190fe1b1bafafc7bc228d0d5936b53f777f07b9bd0392318d83e",
    "D9*": "7263da753e410c84e19b325fdcefa9200ecc5138a686fc89dab749c366d21aff",
    "E8": "8c47037b80660834168dae6b448ffff6988d9c23cb058735800cc3c5c831ec1c",
}


@pytest.mark.parametrize("spec", sorted(CELL_PINS))
def test_constructed_cells_are_pinned(spec):
    doc = json.dumps(cells_to_doc(builtin_cells(parse_graph_spec(spec))), sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == CELL_PINS[spec]


def test_constructed_cells_lift_from_the_base_the_graph_carries(monkeypatch):
    # no second build of the base: its cells are made on `g.base` itself
    import acy.cells
    import acy.quiver

    graphs = [parse_graph_spec(spec) for spec in ("D9", "D7*", "E8")]

    def build_family(*args):
        raise AssertionError(f"build_family{args} called")

    for mod in (acy.quiver, acy.cells):
        monkeypatch.setattr(mod, "build_family", build_family, raising=False)
    for g in graphs:
        seen = []

        def solver(base):
            seen.append(base)
            return builtin_cells(base)

        cells = family_cells(g, solver)
        assert len(seen) == 1 and seen[0] is g.base, g.name
        assert cells.weights == builtin_cells(g).weights, g.name


def test_cells_serialization_round_trip(pipe):
    for spec in ("A5", "D9", "E8*"):
        g, cells, _, _ = pipe(spec)
        doc = json.loads(json.dumps(cells_to_doc(cells)))
        back = cells_from_doc(g, doc)
        assert back.weights == cells.weights


def test_unsupported_family_message():
    g = build_family("A", 10)
    with pytest.raises(FileNotFoundError, match="no built-in cell data for A10: "
                       "use --cells solve or --cells file:PATH"):
        builtin_cells(g)


def test_solver_matches_builtin_dimensions():
    # solver output is gauge-equivalent to the frozen data: the derived
    # relation spans give identical graded dimensions
    g = build_family("E8*")
    solved = solve_cells(g, seed=11)
    A1 = GradedAlgebra(g, derive_relations(solved))
    A2 = GradedAlgebra(g, derive_relations(builtin_cells(g)))
    assert [A1.dim(k) for k in range(A1.top + 1)] == [A2.dim(k) for k in range(A2.top + 1)]


def test_solver_deterministic():
    # A5* is solved exactly from type I, A6* by least squares
    for n in (5, 6):
        g = build_family("A*", n)
        a = solve_cells(g, seed=4)
        b = solve_cells(g, seed=4)
        assert a.tower.fingerprint == b.tower.fingerprint
        assert a.weights == b.weights


def test_builtin_setup_loads_neither_sympy_nor_numpy():
    # graph, shipped cells and relations for A12 and D9 (whose orbifold cells
    # adjoin sqrt(3)) run on integer formulas alone; importing the solver
    # loads none of these either
    code = ("import sys\n"
            "import acy.solver\n"
            "from acy.cells import builtin_cells, derive_relations\n"
            "from acy.quiver import parse_graph_spec\n"
            "for spec in ('A12', 'D9'):\n"
            "    derive_relations(builtin_cells(parse_graph_spec(spec)))\n"
            "print(sorted(m for m in ('sympy', 'numpy', 'scipy') if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.strip() == "[]"
