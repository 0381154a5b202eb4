import hashlib
import json
from fractions import Fraction
from importlib import resources

import mpmath
import pytest

from acy import solver
from acy.cells import cells_from_doc, cells_to_doc
from acy.quiver import build_family
from acy.scalar import FieldTower, Scalar
from acy.solver import SolverError, _fixed, _least_squares, solve_cells

# x0^2 = 1, x0 x1 = 2, x1^2 = 4 and 3 x0 x1^2 = 12 in compiled form
# [(terms, rhs)], terms [(coefficient, unknown indices)]: the root is (1, 2)
TINY = [([(1, (0, 0))], 1), ([(1, (0, 1))], 2), ([(1, (1, 1))], 4), ([(3, (0, 1, 1))], 12)]
START = [0.6, 2.7]
PREC = 260  # scale 2^PREC of the fixed-point tests


def test_least_squares_in_fixed_point_from_the_same_start():
    eqs = [([(_fixed(c, PREC), idx) for c, idx in terms], _fixed(rhs, PREC))
           for terms, rhs in TINY]
    x, r = _least_squares(eqs, [_fixed(v, PREC) for v in START],
                          Fraction(2 << 2 * PREC, 10 ** 130), PREC)
    assert all(type(v) is int for v in x + r)
    assert max(abs(v) for v in r) * 10 ** 60 < 1 << PREC
    assert abs(x[1] - (2 << PREC)) * 10 ** 60 < 1 << PREC


def test_fixed_point_least_squares_stops_at_a_residual_it_cannot_lower():
    # x0^2 = -1 has no real root: the run ends at the least-squares minimum
    # x0 = 0 with cost 1/2 instead of looping
    one = 1 << PREC
    x, r = _least_squares([([(one, (0, 0))], -one)], [_fixed(0.8, PREC)],
                          Fraction(1 << 2 * PREC, 10 ** 18), PREC)
    assert abs(x[0]) * 10 ** 3 < one and abs(r[0] - one) * 10 ** 6 < one


# x0^2 = 1 and x0^2 = -1: the least-squares minimum x0 = 0 has cost 1, and
# Gauss-Newton only halves x0 per step; the run ends once a step lowers the
# cost by a negligible fraction instead of creeping on
PLATEAU = [([(1, (0, 0))], 1), ([(1, (0, 0))], -1)]


def _counted(monkeypatch, name) -> list:
    """The points at which solver.<name> is called from now on."""
    calls = []
    real = getattr(solver, name)

    def counted(eqs, x, *args, **kwargs):
        calls.append(x)
        return real(eqs, x, *args, **kwargs)

    monkeypatch.setattr(solver, name, counted)
    return calls


def test_fixed_point_least_squares_stops_on_a_plateau(monkeypatch):
    calls = _counted(monkeypatch, "_linearise")
    one = 1 << PREC
    eqs = [([(c * one, idx) for c, idx in terms], rhs * one) for terms, rhs in PLATEAU]
    x, r = _least_squares(eqs, [one], Fraction(1 << 2 * PREC, 10 ** 18), PREC)
    # the cost sum r^2 is 2 at scale 2^(2 PREC)
    assert abs(x[0]) * 10 < one and abs(sum(v * v for v in r) - 2 * one * one) * 10 ** 4 < one * one
    assert len(calls) <= 12


def test_fixed_point_keeps_the_sign():
    # mpf.man_exp would give the mantissa of |v|; ldexp keeps the sign
    with mpmath.workprec(PREC):
        for v in (-1.25, -0.3, mpmath.mpf(-2) / 3, mpmath.mpf(-1) / 7 * 2 ** -40):
            x = _fixed(v, PREC)
            assert x < 0
            assert abs(mpmath.ldexp(x, -PREC) - v) <= mpmath.ldexp(1, -PREC)
    assert _fixed(-1.25, PREC) == -5 << PREC - 2


def test_refinement_rejects_an_unrefined_start(monkeypatch):
    # the start search returns its random start as it is, with zero
    # residuals, so that root takes it; from A6*'s seed-0 start the refinement
    # ends on a nonzero-residual plateau, and its exact acceptance test
    # rejects it
    least_squares = solver._least_squares

    def unrefined(eqs, x, tol, prec):
        if prec == solver._START_PREC:
            return x, [0] * len(eqs)
        return least_squares(eqs, x, tol, prec)

    monkeypatch.setattr(solver, "_least_squares", unrefined)
    with pytest.raises(SolverError, match="high-precision refinement did not converge"):
        solve_cells(build_family("A*", 6), seed=0)


# sha256 of the compact sorted JSON of cells_to_doc(solve_cells(g, seed=0))
SOLVED_SHA256 = {
    ("A", 10): "d08d7a5225c3ce520308606f01d72c595791a3985030225675c39c55fc5c53ed",
    ("A", 11): "f1a88958d91b27589d73244735f7d293c05c84079014afd039ad3fc168382edd",
    # past the float round-off floor: in floats, every A21 start ends just
    # above cost 1e-18
    ("A", 21): "7c68efaffb5cbf6fe36f64095d2e90cd457877e696bcc6ada0f65d040c92b894",
    ("A*", 10): "95ec7ad955226908e1549d6e79f586384c933a5a37ebb2e5c7da7ec7f6ebbdc1",
    ("A*", 11): "fabebc121ab4650d9423ecf1678d0109ac63ecb0ebff3d7a386de61808d06d73",
}


@pytest.mark.parametrize("tag,n", sorted(SOLVED_SHA256))
def test_seed_0_solution_is_pinned(tag, n):
    doc = cells_to_doc(solve_cells(build_family(tag, n), seed=0))
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == SOLVED_SHA256[tag, n]


# the shipped cell files whose cells a seed-1 solve reproduces
SHIPPED = [("A", n) for n in range(4, 10)] + [("A*", n) for n in range(5, 10)]


def _rewritten(w: Scalar, tower, roots: list) -> Scalar:
    """w, stored over its own tower's roots, as an element of `tower`, in
    which roots[i] is the i-th of those roots."""
    out = tower.zero()
    for mask, b in w.re.items():
        term = Scalar(tower, {0: b})
        for i, r in enumerate(roots):
            if mask >> i & 1:
                term = term * r
        out = out + term
    return out


@pytest.mark.parametrize("tag,n", SHIPPED)
def test_seed_1_reproduces_the_shipped_cells(tag, n):
    # the shipped files were written when the solver adjoined products of
    # quantum integers; the solver now adjoins the first |w|^2 of each square
    # class, so the radicands differ while the weights are the same numbers
    g = build_family(tag, n)
    solved = solve_cells(g, seed=1)
    name = f"cells_{g.name.replace('*', 's')}.json"
    doc = json.loads((resources.files("acy") / "data" / name).read_text(encoding="utf-8"))
    shipped = cells_from_doc(g, doc)
    tower = solved.tower
    assert len(tower.roots) == len(shipped.tower.roots)
    roots = []
    for radicand in shipped.tower.roots:
        same, root = tower.adjoin_sqrt(Scalar(tower, {0: radicand}))
        assert same == tower
        roots.append(root)
    assert sorted(solved.weights) == sorted(shipped.weights)
    for t, w in shipped.weights.items():
        assert w.is_real()
        assert solved.weights[t] == _rewritten(w, tower, roots), t


def _count_exactification(monkeypatch) -> tuple[list, list]:
    """The values that solver.base_relation and the radicands that
    FieldTower.adjoin_sqrt see from now on."""
    relations, adjoined = [], []

    def counted_relation(h, value, prec):
        relations.append(value)
        return base_relation(h, value, prec)

    def counted_adjoin(self, x):
        adjoined.append(x)
        return adjoin_sqrt(self, x)

    base_relation = solver.base_relation
    adjoin_sqrt = FieldTower.adjoin_sqrt
    monkeypatch.setattr(solver, "base_relation", counted_relation)
    monkeypatch.setattr(FieldTower, "adjoin_sqrt", counted_adjoin)
    return relations, adjoined


def test_one_relation_per_distinct_squared_weight(monkeypatch):
    # E8* takes the least-squares path: 6 triangles, 6 unknowns and 3
    # distinct |w|^2
    relations, adjoined = _count_exactification(monkeypatch)
    g = build_family("E8*")
    cells = solve_cells(g, seed=0)
    assert len(g.triangles()) == 6 and solver._NumericSystem(g).n_unknowns == 6
    assert len(relations) == 3 and len(adjoined) <= 3
    assert len(cells.weights) == 6


def test_a11_is_solved_from_type_I_without_relations(monkeypatch):
    # A11 has 64 triangles, 22 nu-orbit unknowns and 15 distinct |w|^2,
    # which the exact route finds with no integer relation
    relations, adjoined = _count_exactification(monkeypatch)
    g = build_family("A", 11)
    cells = solve_cells(g, seed=0)
    assert len(g.triangles()) == 64 and solver._NumericSystem(g).n_unknowns == 22
    assert len(relations) == 0 and len(adjoined) <= 15
    assert cells.tower.degree == 80 and len(cells.weights) == 64


def test_the_a_family_reaches_no_pslq(monkeypatch):
    # the exact route's square roots come from the real conjugates, so an
    # A11 solve with PSLQ unavailable still gives the pinned cells
    def no_pslq(*args, **kwargs):
        raise AssertionError("mpmath.pslq was called")

    monkeypatch.setattr(mpmath, "pslq", no_pslq)
    doc = cells_to_doc(solve_cells(build_family("A", 11), seed=0))
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == SOLVED_SHA256["A", 11]


def test_a_perturbed_conjugate_gives_no_root_and_a_solver_error(monkeypatch):
    # the last conjugate root off by 2 moves the c coordinate of every sign
    # pattern by 2 V^-1[1, 2] = -0.87 at h = 7, past what rounding absorbs:
    # the sign search returns nothing, the square test stays undecided at
    # every precision, and the A7 solve, whose radicands include squares,
    # stops with a SolverError
    import acy.scalar as scalar

    def perturbed(h, G, prec):
        roots = root_conjugates(h, G, prec)
        return roots[:-1] + [roots[-1] + 2]

    root_conjugates = scalar._root_conjugates
    mul = scalar._base_field(7).mul
    y = (1, 2, 1, 0)   # 2 + c at h = 7
    g = mul(y, y)
    assert scalar._conjugate_sqrt(7, g, 400) == y
    monkeypatch.setattr(scalar, "_root_conjugates", perturbed)
    assert scalar._conjugate_sqrt(7, g, 400) is None
    with pytest.raises(ArithmeticError, match="undecided"):
        scalar._base_sqrt(7, g)
    with pytest.raises(SolverError, match="cannot adjoin a squared weight of A7"):
        solve_cells(build_family("A", 7))


def test_a9_cells_do_not_depend_on_the_seed():
    g = build_family("A", 9)
    a, b = solve_cells(g, seed=0), solve_cells(g, seed=7)
    assert a.tower == b.tower and a.weights == b.weights


def test_a_wrong_exact_square_fails_the_exact_gate(monkeypatch, capsys):
    # the exact route's |w|^2 + 1 for the first unknown is still positive,
    # so it is adjoined, and only the exact type I/II verification can
    # reject it
    from acy.cli import EXIT_SOLVER, main

    def off_by_one(sys, graph):
        squares = type_I_squares(sys, graph)
        return [squares[0] + 1] + squares[1:]

    type_I_squares = solver._type_I_squares
    monkeypatch.setattr(solver, "_type_I_squares", off_by_one)
    with pytest.raises(SolverError, match="fail verification"):
        solve_cells(build_family("A", 9))
    assert main(["compute", "--graph", "A9", "--cells", "solve"]) == EXIT_SOLVER == 4
    err = capsys.readouterr().err
    assert "fail verification" in err and "Traceback" not in err


def test_a_failed_sign_check_takes_the_least_squares_path(monkeypatch):
    # a mod-2 incidence rank one short of full: the solve falls back to
    # least squares, which finds the pinned cells
    def short_mod_2(vectors, p=0):
        return real_rank(vectors, p) - (p == 2)

    real_rank = solver.linalg.rank
    monkeypatch.setattr(solver.linalg, "rank", short_mod_2)
    calls = _counted(monkeypatch, "_least_squares")
    doc = cells_to_doc(solve_cells(build_family("A", 10), seed=0))
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest() == SOLVED_SHA256["A", 10]
    assert calls


def _no_relation(h, value, prec):
    return None


# the exactification faults below are injected on A6*, whose type I system
# is rank-deficient, so that its solve takes the least-squares path


def test_a_failed_exactification_is_a_solver_error(monkeypatch):
    monkeypatch.setattr(solver, "base_relation", _no_relation)
    with pytest.raises(SolverError, match="exactification failed for triangle"):
        solve_cells(build_family("A*", 6))


def test_a_failed_exactification_exits_4(monkeypatch, capsys):
    from acy.cli import EXIT_SOLVER, main

    monkeypatch.setattr(solver, "base_relation", _no_relation)
    assert main(["compute", "--graph", "A6*", "--cells", "solve"]) == EXIT_SOLVER == 4
    err = capsys.readouterr().err
    assert "solver error: exactification failed" in err and "Traceback" not in err


def test_a_negative_squared_weight_is_a_solver_error(monkeypatch):
    # adjoin_sqrt would raise ValueError on a negative radicand
    def negated(h, value, prec):
        b = base_relation(h, value, prec)
        return (b[0],) + tuple(-v for v in b[1:])

    base_relation = solver.base_relation
    monkeypatch.setattr(solver, "base_relation", negated)
    with pytest.raises(SolverError, match="exactification failed for triangle"):
        solve_cells(build_family("A*", 6))


def test_a_wrong_squared_weight_fails_the_exact_gate(monkeypatch, capsys):
    # |w|^2 + 1 for the first class only: still positive, so it is adjoined,
    # and only the exact type I/II verification can reject it
    from acy.cli import EXIT_SOLVER, main

    def off_by_one(h, value, prec):
        b = base_relation(h, value, prec)
        if calls:
            return b
        calls.append(value)
        return (b[0], b[1] + b[0]) + b[2:]

    base_relation, calls = solver.base_relation, []
    monkeypatch.setattr(solver, "base_relation", off_by_one)
    with pytest.raises(SolverError, match="fail verification"):
        solve_cells(build_family("A*", 6))
    calls.clear()
    assert main(["compute", "--graph", "A6*", "--cells", "solve"]) == EXIT_SOLVER == 4
    err = capsys.readouterr().err
    assert "fail verification" in err and "Traceback" not in err
