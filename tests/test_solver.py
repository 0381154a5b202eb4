import json
from importlib import resources

import mpmath
import pytest

from acy import solver
from acy.cells import cells_from_doc
from acy.quiver import build_family
from acy.scalar import FieldTower, Scalar
from acy.solver import SolverError, _least_squares, solve_cells

# x0^2 = 1, x0 x1 = 2, x1^2 = 4 and 3 x0 x1^2 = 12 in compiled form
# [(terms, rhs)], terms [(coefficient, unknown indices)]: the root is (1, 2)
TINY = [([(1, (0, 0))], 1), ([(1, (0, 1))], 2), ([(1, (1, 1))], 4), ([(3, (0, 1, 1))], 12)]
START = [0.6, 2.7]


def _compiled(num):
    return [([(num(c), idx) for c, idx in terms], num(rhs)) for terms, rhs in TINY]


def test_least_squares_in_floats():
    x, r = _least_squares(_compiled(float), START, 1e-18)
    assert all(isinstance(v, float) for v in x)
    assert sum(v * v for v in r) / 2 < 1e-18
    assert abs(x[0] - 1) < 1e-9 and abs(x[1] - 2) < 1e-9


def test_least_squares_in_mpf_from_the_same_start():
    with mpmath.workprec(260):
        x, r = _least_squares(_compiled(mpmath.mpf), [mpmath.mpf(v) for v in START],
                              mpmath.mpf(10) ** -130)
        assert all(isinstance(v, mpmath.mpf) for v in x)
        assert max(abs(v) for v in r) < mpmath.mpf(10) ** -60
        assert abs(x[1] - 2) < mpmath.mpf(10) ** -60


def test_least_squares_stops_at_a_residual_it_cannot_lower():
    # x0^2 = -1 has no real root: the run ends at the least-squares minimum
    # x0 = 0 with cost 1/2 instead of looping
    x, r = _least_squares([([(1.0, (0, 0))], -1.0)], [0.8], 1e-18)
    assert abs(x[0]) < 1e-3 and abs(r[0] - 1) < 1e-6


def test_least_squares_stops_on_a_plateau(monkeypatch):
    # x0^2 = 1 and x0^2 = -1: the least-squares minimum x0 = 0 has cost 1,
    # and Gauss-Newton only halves x0 per step; the run ends once a step
    # lowers the cost by a negligible fraction instead of creeping on
    calls = []

    def counted(eqs, x):
        calls.append(x)
        return linearise(eqs, x)

    linearise = solver._linearise
    monkeypatch.setattr(solver, "_linearise", counted)
    eqs = [([(1.0, (0, 0))], 1.0), ([(1.0, (0, 0))], -1.0)]
    x, r = _least_squares(eqs, [1.0], 1e-18)
    assert abs(x[0]) < 0.1 and abs(sum(v * v for v in r) / 2 - 1) < 1e-4
    assert len(calls) <= 12


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


def test_one_relation_per_distinct_squared_weight(monkeypatch):
    # A11 has 64 triangles, 22 nu-orbit unknowns and 15 distinct |w|^2
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
    g = build_family("A", 11)
    cells = solve_cells(g, seed=0)
    assert len(g.triangles()) == 64 and solver._NumericSystem(g).n_unknowns == 22
    assert len(relations) == 15 and len(adjoined) <= 15
    assert cells.tower.degree == 80 and len(cells.weights) == 64


def _no_relation(h, value, prec):
    return None


def test_a_failed_exactification_is_a_solver_error(monkeypatch):
    monkeypatch.setattr(solver, "base_relation", _no_relation)
    with pytest.raises(SolverError, match="exactification failed for triangle"):
        solve_cells(build_family("A", 5))


def test_a_failed_exactification_exits_4(monkeypatch, capsys):
    from acy.cli import EXIT_SOLVER, main

    monkeypatch.setattr(solver, "base_relation", _no_relation)
    assert main(["compute", "--graph", "A5", "--cells", "solve"]) == EXIT_SOLVER == 4
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
        solve_cells(build_family("A", 5))


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
        solve_cells(build_family("A", 5))
    calls.clear()
    assert main(["compute", "--graph", "A5", "--cells", "solve"]) == EXIT_SOLVER == 4
    err = capsys.readouterr().err
    assert "fail verification" in err and "Traceback" not in err
