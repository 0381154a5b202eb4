"""Numeric cell solver with exact reconstruction.

One Levenberg-Marquardt least-squares routine on the compiled type I/II
system, first in floats from random starts and then in mpmath at high
precision; then reconstruction of each squared weight as a signed monomial in
a fixed multiplicative alphabet (small primes and quantum integers),
adjoining square roots to the tower as needed.  The result is re-verified
exactly; a system that survives is certified.
"""

from __future__ import annotations

import bisect
import random

import mpmath

from .cells import CellSystem, canon, compile_equations, verify_type_I, verify_type_II
from .quiver import Graph
from .scalar import FieldTower, Scalar

__all__ = ["solve_cells", "SolverError"]


_MAX_STARTS = 20   # random least-squares starts before giving up
_MAX_STEPS = 100   # damped steps per least-squares run
_FTOL = 1e-8       # relative cost reduction below which a run has stalled


class SolverError(RuntimeError):
    pass


class _NumericSystem:
    """Compiled equations with unknowns indexed by triangle, or by nu-orbit
    when nu is nontrivial."""

    def __init__(self, graph: Graph):
        self.name = graph.name
        self.triangles = graph.triangles()
        rep = {t: t for t in self.triangles}
        if not graph.nu_is_trivial():
            for t in self.triangles:
                nu_t = canon(tuple(graph.nu_e[e] for e in t))
                rep[t] = min(t, nu_t, canon(tuple(graph.nu_e[e] for e in nu_t)))
        reps = sorted(set(rep.values()))
        self.unknown_of = {t: reps.index(rep[t]) for t in self.triangles}
        self.n_unknowns = len(reps)
        self.equations = compile_equations(graph)

    def compiled(self, prec: int) -> list:
        """[(terms, rhs)] with terms [(coefficient, unknown indices)], every
        number an mpf evaluated once at binary precision prec."""
        return [([(c.value(prec), tuple(self.unknown_of[t] for t, _ in monos))
                  for c, monos in eq.terms], eq.rhs.value(prec))
                for eq in self.equations]

    def root(self, seed: int, digits: int) -> list:
        """A root with residuals below ~10^-digits, in mpf: least squares in
        floats from random starts, then refined in mpmath from the first
        start that converges.  The compiled equations live only as long as
        this call, so they do not add to the reconstruction's peak memory."""
        # a tower element evaluated in floats can lose many bits to
        # cancellation, so the float stage rounds the refinement's coefficients
        prec = int(digits * 3.5) + 60
        eqs = self.compiled(prec)
        eqs_f = [([(float(c), idx) for c, idx in terms], float(rhs)) for terms, rhs in eqs]
        rng = random.Random(seed)
        for _ in range(_MAX_STARTS):
            scale = rng.uniform(0.6, 3.0)
            x, r = _least_squares(eqs_f, [rng.uniform(0.4, 1.6) * scale
                                          for _ in range(self.n_unknowns)], 1e-18)
            if sum(v * v for v in r) / 2 < 1e-18:
                break
        else:
            raise SolverError(f"least squares did not converge for {self.name} "
                              f"after {_MAX_STARTS} starts")
        with mpmath.workprec(prec):
            x, r = _least_squares(eqs, [mpmath.mpf(v) for v in x],
                                  mpmath.mpf(10) ** (-2 * digits) / 2)
            if max(abs(v) for v in r) >= mpmath.mpf(10) ** (-digits // 2):
                raise SolverError("high-precision refinement did not converge")
        return x


def _linearise(eqs: list, x: list):
    """The residuals r_i = sum c prod x_j - rhs of the compiled equations at
    x, their cost sum r_i^2 / 2, and the normal equations J^T J, J^T r,
    accumulated from one sparse gradient row {j: dr_i/dx_j} per equation."""
    zero = x[0] * 0
    r, jtj, jtr = [], [[zero] * len(x) for _ in x], [zero] * len(x)
    for terms, rhs in eqs:
        res, grad = -rhs, {}
        for c, idx in terms:
            vals = [x[j] for j in idx]
            p = c
            for v in vals:
                p *= v
            res += p
            for pos, j in enumerate(idx):
                q = c
                for k, v in enumerate(vals):
                    if k != pos:
                        q *= v
                grad[j] = grad.get(j, zero) + q
        r.append(res)
        for ja, va in grad.items():
            jtr[ja] += va * res
            for jb, vb in grad.items():
                jtj[ja][jb] += va * vb
    return r, sum(v * v for v in r) / 2, jtj, jtr


def _damped_step(jtj: list, jtr: list, lam):
    """The solution of (J^T J + lam diag(J^T J)) dx = J^T r by Cholesky, or
    None when that matrix is not numerically positive definite."""
    n = len(jtr)
    low = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = jtj[i][j] * (1 + lam) if i == j else jtj[i][j]
            s -= sum(low[i][k] * low[j][k] for k in range(j))
            if i != j:
                low[i][j] = s / low[j][j]
            elif s > 0:
                low[i][i] = s ** 0.5
            else:
                return None
    y = []
    for i in range(n):
        y.append((jtr[i] - sum(low[i][k] * y[k] for k in range(i))) / low[i][i])
    dx = [0] * n
    for i in reversed(range(n)):
        dx[i] = (y[i] - sum(low[k][i] * dx[k] for k in range(i + 1, n))) / low[i][i]
    return dx


def _least_squares(eqs: list, x: list, tol):
    """Levenberg-Marquardt (More, LNM 630, 1978) on the compiled equations
    from x, in the number type of x: float, or mpf at the working precision.

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
    r, cost, jtj, jtr = _linearise(eqs, x)
    lam = min(1e-3, cost)
    for _ in range(_MAX_STEPS):
        if cost < tol:
            break
        dx = _damped_step(jtj, jtr, lam)
        if dx is None:
            lam *= 10
            continue
        x_new = [a - b for a, b in zip(x, dx)]
        if x_new == x:
            break
        new = _linearise(eqs, x_new)
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

def _alphabet(tower: FieldTower) -> list[Scalar]:
    """Deduplicated multiplicative alphabet: 2, 3, the quantum integers
    [n] for 2 <= n <= h/2, and the odd quantum integers at the doubled
    Coxeter number (which lie in the same base field and appear in the
    conjugate-graph cells)."""
    h = tower.h
    out = [tower.from_fraction(2), tower.from_fraction(3)]
    for n in range(2, h // 2 + 1):
        q = tower.quantum(n)
        if all(q != a for a in out):
            out.append(q)
    # odd [n] at 2h: [1] = 1, [3] = 1 + c, [n+2] = [3][n] - [n] - [n-2]
    three_2h = tower.one() + tower.generator()
    prev, cur = tower.one(), three_2h
    for n in range(3, h, 2):
        if all(cur != a for a in out) and not cur.is_zero():
            out.append(cur)
        prev, cur = cur, three_2h * cur - cur - prev
    return out


def _exponent_table(logs: list[float], lo: int = -3, hi: int = 3):
    """Meet-in-the-middle table of exponent-vector log sums."""
    half = len(logs) // 2
    a_idx, b_idx = list(range(half)), list(range(half, len(logs)))

    def sums(idxs):
        vecs = [((), 0.0)]
        for i in idxs:
            vecs = [(v + (e,), s + e * logs[i]) for v, s in vecs for e in range(lo, hi + 1)]
        return vecs

    A = sums(a_idx)
    B = sums(b_idx)
    B.sort(key=lambda t: t[1])
    b_logs = [s for _, s in B]
    return A, B, b_logs


def _find_exponents(target: float, table, tol=1e-7):
    """Yield, lazily, the exponent vectors whose float log sum lies within
    tol of target: A rows in table order, each with its B rows in sorted
    order."""
    A, B, b_logs = table
    for vec_a, s_a in A:
        want = target - s_a
        i = bisect.bisect_left(b_logs, want - tol)
        while i < len(b_logs) and b_logs[i] <= want + tol:
            yield vec_a + B[i][0]
            i += 1


def solve_cells(graph: Graph, seed: int = 0, digits: int = 70) -> CellSystem:
    """Solve the type I/II system and return exactly verified cells.

    Raises SolverError when least squares does not converge or exactification fails.
    """
    sys = _NumericSystem(graph)
    if sys.n_unknowns == 0:
        return CellSystem(graph, graph.tower, {}, label="solved")
    x = sys.root(seed, digits)

    # reconstruct each squared weight over the alphabet, one table scan per
    # distinct float target: each unknown takes the first hit whose
    # high-precision log fits, and the scan stops once all of them have one
    base = graph.tower
    alpha = _alphabet(base)
    prec = int(digits * 3.5) + 40
    with mpmath.workprec(prec):
        alpha_logs = [mpmath.log(a.value(prec)) for a in alpha]
        table = _exponent_table([float(v) for v in alpha_logs])
        fits = mpmath.mpf(10) ** (-digits + 12)
        found = {}   # unknown -> (sign, exponent vector)
        groups: dict[float, dict[int, mpmath.mpf]] = {}
        for j, v in enumerate(x):
            if abs(v) < mpmath.mpf(10) ** (-digits // 2):
                found[j] = (0, None)
            else:
                log_w2 = 2 * mpmath.log(abs(v))
                groups.setdefault(float(log_w2), {})[j] = log_w2
        for target, open_logs in groups.items():
            for e in _find_exponents(target, table):
                lng = sum((ei * la for ei, la in zip(e, alpha_logs) if ei), mpmath.mpf(0))
                for j in [j for j, log_w2 in open_logs.items() if abs(lng - log_w2) < fits]:
                    found[j] = (1 if x[j] > 0 else -1, e)
                    del open_logs[j]
                if not open_logs:
                    break
            else:
                j = min(open_logs)
                t = next(t for t in sys.triangles if sys.unknown_of[t] == j)
                raise SolverError(f"exactification failed for triangle {t} "
                                  f"(value {mpmath.nstr(x[j], 20)})")
    plan = [(t, *found[sys.unknown_of[t]]) for t in sys.triangles]

    # build the tower: adjoin the odd parts in deterministic order
    tower = base
    odd_roots: dict[tuple, Scalar] = {}
    for t, sign, e in plan:
        if not e:
            continue
        odd = tuple(ei & 1 for ei in e)
        if any(odd) and odd not in odd_roots:
            radicand = base.one()
            for o, a in zip(odd, alpha):
                if o:
                    radicand = radicand * a
            tower, root = tower.adjoin_sqrt(radicand.lift(tower))
            odd_roots[odd] = root
    weights = {}
    for t, sign, e in plan:
        if sign == 0:
            weights[t] = tower.zero()
            continue
        w = tower.one() * sign
        for ei, a in zip(e, alpha):
            half = ei // 2  # ei = 2*half + (ei & 1), for negative ei too
            if half:
                w = w * (a.lift(tower) ** half)
        oddvec = tuple(ei & 1 for ei in e)
        if any(oddvec):
            w = w * odd_roots[oddvec].lift(tower)
        weights[t] = w
    cells = CellSystem(graph, tower, weights, label=f"solved(seed={seed})")

    eqs = sys.equations
    rep1 = verify_type_I(cells, eqs)
    rep2 = verify_type_II(cells, eqs)
    if not (rep1.ok and rep2.ok):
        raise SolverError(
            f"exactified cells for {graph.name} fail verification "
            f"(type I failures: {rep1.failures[:3]}, type II: {rep2.failures[:3]})")
    return cells
