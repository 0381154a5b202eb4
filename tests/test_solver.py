import json
from importlib import resources

import mpmath
import pytest

from acy import solver
from acy.cells import cells_to_doc
from acy.quiver import build_family
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


# the shipped cell files that a seed-1 solve reproduces byte for byte
SHIPPED = [("A", n) for n in range(4, 10)] + [("A*", n) for n in range(5, 10)]


@pytest.mark.parametrize("tag,n", SHIPPED)
def test_seed_1_reproduces_the_shipped_cells(tag, n):
    g = build_family(tag, n)
    doc = cells_to_doc(solve_cells(g, seed=1))
    doc["label"] = "builtin"
    name = f"cells_{g.name.replace('*', 's')}.json"
    shipped = (resources.files("acy") / "data" / name).read_text(encoding="utf-8")
    assert json.dumps(doc, separators=(",", ":"), sort_keys=True) == shipped


def test_one_table_scan_per_distinct_squared_weight(monkeypatch):
    # A11 has 64 triangles, 22 nu-orbit unknowns and 15 distinct |w|^2
    scans = []

    def counted(target, table):
        scans.append(target)
        return find_exponents(target, table)

    find_exponents = solver._find_exponents
    monkeypatch.setattr(solver, "_find_exponents", counted)
    g = build_family("A", 11)
    cells = solve_cells(g, seed=0)
    assert len(g.triangles()) == 64 and solver._NumericSystem(g).n_unknowns == 22
    assert len(scans) == len(set(scans)) == 15
    assert len(cells.weights) == 64


def _alphabet_of_two(tower):
    return [tower.from_fraction(2)]


def test_a_failed_exactification_is_a_solver_error(monkeypatch):
    # no squared A5 weight is a power of 2
    monkeypatch.setattr(solver, "_alphabet", _alphabet_of_two)
    with pytest.raises(SolverError, match="exactification failed for triangle"):
        solve_cells(build_family("A", 5))


def test_a_failed_exactification_exits_4(monkeypatch, capsys):
    from acy.cli import EXIT_SOLVER, main

    monkeypatch.setattr(solver, "_alphabet", _alphabet_of_two)
    assert main(["compute", "--graph", "A5", "--cells", "solve"]) == EXIT_SOLVER == 4
    err = capsys.readouterr().err
    assert "solver error: exactification failed" in err and "Traceback" not in err
