"""Cell solver with exact reconstruction.

Two routes give each nu-orbit unknown an exact squared weight |w|^2 in the
base field Q(2cos(pi/h)) and a sign.  Where the type I equations fix |w|^2
on their own (the A family and A5*), one exact elimination solves them and
every sign is +; the seed plays no part.  Elsewhere one Levenberg-Marquardt
least-squares kernel runs on the compiled type I/II system, in fixed-point
integers: at scale 2^64 from random starts, and then at scale 2^prec from the
first start that converges; each distinct squared weight is recognised in
the base field by one integer relation (PSLQ), the only lattice search of
the solver.  Both routes then adjoin the square root of each distinct |w|^2
to the tower unless the tower already holds it.  That test
(`FieldTower.adjoin_sqrt`) is exact: quadratic characters refute a
non-square, and a square's root is read off its real conjugates and
squared back.  The cells are then re-verified exactly; a system that
survives is certified.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import isqrt

import mpmath

from . import linalg
from .cells import (CellSystem, compile_equations, nu_orbit, orbit_incidence, verify_type_I,
                    verify_type_II)
from .quiver import Graph
from .scalar import Scalar, base_relation

__all__ = ["solve_cells", "SolverError"]


_MAX_STARTS = 20   # random least-squares starts before giving up
_MAX_STEPS = 100   # damped steps per least-squares run
_START_PREC = 64   # binary scale of the start search
# relative cost reduction below which a run has stalled, exactly
_FTOL = Fraction(1, 10 ** 8)


class SolverError(RuntimeError):
    pass


class _NumericSystem:
    """Compiled equations with unknowns indexed by triangle, or by nu-orbit
    when nu is nontrivial."""

    def __init__(self, graph: Graph):
        self.name = graph.name
        self.triangles = graph.triangles()
        rep = {t: min(nu_orbit(graph, t)) for t in self.triangles}
        index = {r: j for j, r in enumerate(sorted(set(rep.values())))}
        self.unknown_of = {t: index[rep[t]] for t in self.triangles}
        self.n_unknowns = len(index)
        self.equations = compile_equations(graph)

    def compiled(self, prec: int):
        """(terms, rhs) per equation, with terms [(coefficient, unknown
        indices)], every number an mpf evaluated once at binary precision prec."""
        for eq in self.equations:
            yield ([(c.value(prec), tuple(self.unknown_of[t] for t, _ in monos))
                    for c, monos in eq.terms], eq.rhs.value(prec))

    def root(self, seed: int, digits: int) -> list:
        """A root with residuals below ~10^-digits, in mpf: least squares at
        scale 2^_START_PREC from random starts, then refined at scale 2^prec
        from the first start that converges.  The compiled equations live
        only as long as this call, so they do not add to the reconstruction's
        peak memory."""
        prec = int(digits * 3.5) + 60
        eqs_s, eqs_x = [], []
        for terms, rhs in self.compiled(prec):
            eqs_s.append(([(_fixed(c, _START_PREC), idx) for c, idx in terms],
                          _fixed(rhs, _START_PREC)))
            eqs_x.append(([(_fixed(c, prec), idx) for c, idx in terms], _fixed(rhs, prec)))
        # a start converges at cost < 1e-18, that is sum r^2 < 2e-18 at
        # scale 2^(2 _START_PREC)
        start_tol = Fraction(2 << 2 * _START_PREC, 10 ** 18)
        rng = random.Random(seed)
        for _ in range(_MAX_STARTS):
            scale = rng.uniform(0.6, 3.0)
            x, r = _least_squares(eqs_s, [_fixed(rng.uniform(0.4, 1.6) * scale, _START_PREC)
                                          for _ in range(self.n_unknowns)],
                                  start_tol, _START_PREC)
            if sum(v * v for v in r) < start_tol:
                break
        else:
            raise SolverError(f"least squares did not converge for {self.name} "
                              f"after {_MAX_STARTS} starts")
        # cost < 10^(-2 digits) / 2 and max |r| < 10^-ceil(digits/2), exactly
        x, r = _least_squares(eqs_x, [v << prec - _START_PREC for v in x],
                              Fraction(1 << 2 * prec, 10 ** (2 * digits)), prec)
        if max(abs(v) for v in r) * 10 ** ((digits + 1) // 2) >= 1 << prec:
            raise SolverError("high-precision refinement did not converge")
        with mpmath.workprec(prec):
            return [mpmath.ldexp(v, -prec) for v in x]


def _fixed(v, prec: int) -> int:
    """v * 2^prec, truncated to an integer, for a float or an mpf v."""
    return int(mpmath.ldexp(v, prec))


def _linearise(eqs: list, x: list, prec: int):
    """The residuals r_i = sum c prod x_j - rhs of the compiled equations at
    the point x, on integers at scale 2^prec, with sum r_i^2 and the normal
    equations J^T J, J^T r, accumulated from one sparse gradient row
    {j: dr_i/dx_j} per equation.  The residuals and the gradient rows are at
    scale 2^prec, each monomial shifted once, so a residual is exact up to
    one truncation per monomial; J^T J and J^T r are accumulated exactly at
    scale 2^(2 prec) and shifted once to 2^prec; sum r_i^2 is exact, at scale
    2^(2 prec)."""
    n = len(x)
    r, jtj, jtr = [], [[0] * n for _ in x], [0] * n
    for terms, rhs in eqs:
        res, grad = -rhs, {}
        for c, idx in terms:
            vals = [x[j] for j in idx]
            p = c
            for v in vals:
                p *= v
            shift = prec * (len(idx) - 1)
            res += p >> shift + prec
            for pos, j in enumerate(idx):
                q = c
                for k, v in enumerate(vals):
                    if k != pos:
                        q *= v
                grad[j] = grad.get(j, 0) + (q >> shift)
        r.append(res)
        for ja, va in grad.items():
            jtr[ja] += va * res
            row = jtj[ja]
            for jb, vb in grad.items():
                row[jb] += va * vb
    return (r, sum(v * v for v in r), [[v >> prec for v in row] for row in jtj],
            [v >> prec for v in jtr])


def _damped_step(jtj: list, jtr: list, lam, prec: int):
    """The solution of (J^T J + lam diag(J^T J)) dx = J^T r by Cholesky, or
    None when that matrix is not numerically positive definite.  J^T J,
    J^T r, the Cholesky factor and dx are all integers at scale 2^prec.  A
    lone term is shifted up to the scale 2^(2 prec) of a product of two, and
    dividing by a diagonal entry, with // or math.isqrt, brings it back; lam
    is applied exactly."""
    n = len(jtr)
    lam = Fraction(lam)
    low = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = jtj[i][j]
            if i == j:
                s += s * lam.numerator // lam.denominator
            s = (s << prec) - sum(low[i][k] * low[j][k] for k in range(j))
            if i != j:
                low[i][j] = s // low[j][j]
            elif s > 0 and (d := isqrt(s)):
                low[i][i] = d
            else:
                return None
    y = []
    for i in range(n):
        y.append(((jtr[i] << prec) - sum(low[i][k] * y[k] for k in range(i))) // low[i][i])
    dx = [0] * n
    for i in reversed(range(n)):
        dx[i] = (((y[i] << prec) - sum(low[k][i] * dx[k] for k in range(i + 1, n)))
                 // low[i][i])
    return dx


def _least_squares(eqs: list, x: list, tol, prec: int):
    """Levenberg-Marquardt (More, LNM 630, 1978) on the compiled equations
    from x, in integers at scale 2^prec; the cost that tol bounds is
    sum r_i^2 at scale 2^(2 prec).

    Each step linearises once and solves the damped normal equations.  The
    damping lam is divided by 10 on an accepted step and multiplied by 10 on
    a rejected one.  It starts at min(1e-3, cost), so near a root it stays
    below the error of the Gauss-Newton step, which falls quadratically; a
    start of sqrt(cost) lags behind it and costs the refinement more steps.
    Stops once the cost is below tol, when a step no longer moves x, or after
    _MAX_STEPS steps, and returns the last accepted x with its residuals.
    Also stops after an accepted step that lowers the cost by at most _FTOL
    of it, as MINPACK's ftol test does: Gauss-Newton converges only linearly
    to a minimum with nonzero residuals, so a start caught in one would
    otherwise creep on to _MAX_STEPS."""
    r, cost, jtj, jtr = _linearise(eqs, x, prec)
    # lam is a pure number, so it starts from the real cost sum r_i^2 / 2
    lam = min(1e-3, Fraction(cost, 2 << 2 * prec))
    for _ in range(_MAX_STEPS):
        if cost < tol:
            break
        dx = _damped_step(jtj, jtr, lam, prec)
        if dx is None:
            lam *= 10
            continue
        x_new = [a - b for a, b in zip(x, dx)]
        if x_new == x:
            break
        new = _linearise(eqs, x_new, prec)
        if new[1] < cost:
            stalled = cost - new[1] <= _FTOL * cost
            x, (r, cost, jtj, jtr) = x_new, new
            if stalled:
                break
            lam /= 10
        else:
            lam *= 10
    return x, r


# ---------------------------------------------------------------------------
# exact reconstruction
# ---------------------------------------------------------------------------

def solve_cells(graph: Graph, seed: int = 0, digits: int = 70) -> CellSystem:
    """Solve the type I/II system and return exactly verified cells.

    The exact route `_type_I_squares` goes first; where it does not apply,
    `_numeric_squares` finds the squared weights by least squares and PSLQ.
    Then the square root of each distinct |w|^2 is adjoined to the tower, in
    unknown order (`adjoin_sqrt` adds none when the tower already holds it),
    and w = sign * sqrt(|w|^2).  The exact type I/II verification is the
    only acceptance.  Raises SolverError when least squares does not
    converge, when a |w|^2 has no positive value in Q(c), when the square
    test of a |w|^2 stays undecided, or when verification fails.
    """
    sys = _NumericSystem(graph)
    if sys.n_unknowns == 0:
        return CellSystem(graph, graph.tower, {}, label="solved")
    squares = _type_I_squares(sys, graph)
    if squares is not None:
        signs = [1] * sys.n_unknowns
    else:
        squares, signs = _numeric_squares(sys, graph, seed, digits)

    tower, roots = graph.tower, {}   # |w|^2 -> sqrt(|w|^2), in the tower it was adjoined to
    for u in squares:
        if u is not None and u not in roots:
            try:
                tower, roots[u] = tower.adjoin_sqrt(u)
            except ArithmeticError as exc:   # the square test gave up
                raise SolverError(f"cannot adjoin a squared weight of {graph.name}: "
                                  f"{exc}") from exc
    weights = {}
    for t in sys.triangles:
        j = sys.unknown_of[t]
        w = tower.zero() if squares[j] is None else roots[squares[j]].lift(tower)
        weights[t] = w if signs[j] > 0 else -w
    cells = CellSystem(graph, tower, weights, label=f"solved(seed={seed})")

    rep1 = verify_type_I(cells)
    rep2 = verify_type_II(cells)
    if not (rep1.ok and rep2.ok):
        raise SolverError(
            f"exactified cells for {graph.name} fail verification "
            f"(type I failures: {rep1.failures[:3]}, type II: {rep2.failures[:3]})")
    return cells


def _type_I_squares(sys: _NumericSystem, graph: Graph) -> list | None:
    """|w|^2 per unknown from the type I equations alone, exact in the
    graph's tower, or None when this route does not apply.

    Without parallel edges every type I term is W(t) conj W(t), so type I
    reads sum_t u_t = [2] phi_i phi_j, linear in u_t = |W(t)|^2.  Its rows
    over the unknowns, with the rhs as one more column, go into one
    `Eliminator`, and u is read off the reduced form.  The route applies
    when every term is diagonal, the system has full column rank, every u
    is positive, and the `orbit_incidence` of the triangles has full row
    rank mod 2.  The last is the gauge argument for taking every sign +:
    a sign pattern s_T on the triangle orbits is then prod_(e in T) eps_e
    for a +-1 gauge eps, constant on edge nu-orbits, and the edge rescaling
    by eps keeps type I and II, so the signed cells solve them exactly when
    w = +sqrt(u) does.  Should w = +sqrt(u) fail the exact verification,
    no real nu-invariant cells solve the system, and least squares could
    find none either."""
    n = sys.n_unknowns
    elim = linalg.Eliminator()
    for eq in sys.equations:
        if eq.kind != "I":
            continue
        row: dict = {}
        for c, ((t1, conj1), (t2, conj2)) in eq.terms:
            if t1 != t2 or conj1 or not conj2:
                return None
            linalg.axpy(row, [(sys.unknown_of[t1], c)])
        row[n] = eq.rhs   # the row reads sum a_j u_j = rhs
        elim.add(row)
    red = elim.reduced()
    if sorted(red) != list(range(n)):
        return None
    squares = [red[j].get(n) for j in range(n)]
    if None in squares or not all(u.is_positive() for u in set(squares)):
        return None
    rows = [{o: 1 for o, k in row.items() if k % 2}
            for row in orbit_incidence(graph, sys.triangles)]
    return squares if linalg.rank(rows, p=2) == len(rows) else None


def _numeric_squares(sys: _NumericSystem, graph: Graph, seed: int, digits: int):
    """(|w|^2 or None for a zero weight, sign) per unknown, from a least
    squares root.  Unknowns whose |w|^2 agree as floats share one relation;
    should two unequal values tie, the exact verification rejects the cells."""
    x = sys.root(seed, digits)
    prec = int(digits * 3.32)   # ~ the digits to which the refinement fixes x
    classes: dict[float, list[int]] = {}   # float |w|^2 -> its unknowns
    for j, v in enumerate(x):
        if abs(v) >= mpmath.mpf(10) ** (-digits // 2):
            classes.setdefault(float(v * v), []).append(j)
    squares = [None] * len(x)
    for members in classes.values():
        with mpmath.workprec(prec):
            b = base_relation(graph.h, x[members[0]] ** 2, prec)
        w2 = Scalar(graph.tower, {0: b}) if b is not None and any(b[1:]) else None
        if w2 is None or not w2.is_positive():
            t = next(t for t in sys.triangles if sys.unknown_of[t] == members[0])
            raise SolverError(f"exactification failed for triangle {t} "
                              f"(value {mpmath.nstr(x[members[0]], 20)})")
        for j in members:
            squares[j] = w2
    return squares, [1 if v > 0 else -1 for v in x]
