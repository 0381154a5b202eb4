"""Numeric cell solver with exact reconstruction.

Newton/least-squares on the compiled type I/II system from random starts,
high-precision refinement, then reconstruction of each squared weight as a
signed monomial in a fixed multiplicative alphabet (small primes and quantum
integers), adjoining square roots to the tower as needed.  The result is
re-verified exactly; a system that survives is certified.
"""

from __future__ import annotations

import mpmath

from .cells import CellSystem, compile_equations, verify_type_I, verify_type_II
from .quiver import Graph
from .scalar import FieldTower, Scalar

__all__ = ["solve_cells", "SolverError"]


_MAX_STARTS = 20   # random least-squares starts before giving up


class SolverError(RuntimeError):
    pass


class _NumericSystem:
    """Compiled equations with unknowns indexed by triangle, or by nu-orbit
    when nu is nontrivial."""

    def __init__(self, graph: Graph):
        self.graph = graph
        tris = graph.triangles()
        if not graph.nu_is_trivial():
            orbit_of = {}
            for t in tris:
                orb = min(t, _canon_nu(graph, t, 1), _canon_nu(graph, t, 2))
                orbit_of[t] = orb
            reps = sorted(set(orbit_of.values()))
            self.unknown_of = {t: reps.index(orbit_of[t]) for t in tris}
            self.n_unknowns = len(reps)
        else:
            self.unknown_of = {t: i for i, t in enumerate(tris)}
            self.n_unknowns = len(tris)
        self.triangles = tris
        self.equations = compile_equations(graph)
        prec = 80
        self.eqs_f = []
        for eq in self.equations:
            terms = [(float(c.value(prec)), tuple(self.unknown_of[t] for t, _ in monos))
                     for c, monos in eq.terms]
            self.eqs_f.append((terms, float(eq.rhs.value(prec))))

    def residual(self, x):
        import numpy as np

        out = np.empty(len(self.eqs_f))
        for i, (terms, rhs) in enumerate(self.eqs_f):
            acc = -rhs
            for c, idx in terms:
                p = c
                for j in idx:
                    p *= x[j]
                acc += p
            out[i] = acc
        return out

    def jacobian(self, x):
        import numpy as np

        J = np.zeros((len(self.eqs_f), self.n_unknowns))
        for i, (terms, _) in enumerate(self.eqs_f):
            for c, idx in terms:
                for pos in range(len(idx)):
                    p = c
                    for q, j in enumerate(idx):
                        if q != pos:
                            p *= x[j]
                    J[i, idx[pos]] += p
        return J

    def refine_mp(self, x0, digits: int):
        """Gauss-Newton at escalating precision down to ~10^-digits residuals."""
        prec = int(digits * 3.5) + 60
        with mpmath.workprec(prec):
            eqs = []
            for eq in self.equations:
                terms = [(eq_c.value(prec), tuple(self.unknown_of[t] for t, _ in monos))
                         for eq_c, monos in eq.terms]
                eqs.append((terms, eq.rhs.value(prec)))
            x = [mpmath.mpf(float(v)) for v in x0]
            n = self.n_unknowns
            for _ in range(digits.bit_length() + 8):
                r = []
                rows = []
                for terms, rhs in eqs:
                    acc = -rhs
                    grad = {}
                    for c, idx in terms:
                        p = c
                        for j in idx:
                            p *= x[j]
                        acc += p
                        for pos in range(len(idx)):
                            q = c
                            for k, j in enumerate(idx):
                                if k != pos:
                                    q *= x[j]
                            grad[idx[pos]] = grad.get(idx[pos], mpmath.mpf(0)) + q
                    r.append(acc)
                    rows.append(grad)
                # normal equations, sparse accumulation
                ata = mpmath.zeros(n, n)
                atb = mpmath.zeros(n, 1)
                for grad, res in zip(rows, r):
                    items = list(grad.items())
                    for a, (ja, va) in enumerate(items):
                        atb[ja, 0] += va * res
                        for jb, vb in items:
                            ata[ja, jb] += va * vb
                eps = mpmath.mpf(10) ** (-2 * digits - 10)
                for j in range(n):
                    ata[j, j] += eps
                try:
                    dx = mpmath.lu_solve(ata, atb)
                except ZeroDivisionError:
                    raise SolverError("singular normal equations in refinement")
                for j in range(n):
                    x[j] -= dx[j, 0]
                resnorm = max(abs(v) for v in r) if r else mpmath.mpf(0)
                if resnorm < mpmath.mpf(10) ** (-digits):
                    return x
            if resnorm < mpmath.mpf(10) ** (-digits // 2):
                return x
        raise SolverError("high-precision refinement did not converge")


def _canon_nu(graph: Graph, t, k: int):
    from .cells import canon

    out = t
    for _ in range(k):
        out = tuple(graph.nu_e[e] for e in out)
    return canon(out)


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
    import bisect

    A, B, b_logs = table
    hits = []
    for vec_a, s_a in A:
        want = target - s_a
        i = bisect.bisect_left(b_logs, want - tol)
        while i < len(b_logs) and b_logs[i] <= want + tol:
            hits.append(vec_a + B[i][0])
            i += 1
    return hits


def solve_cells(graph: Graph, seed: int = 0, digits: int = 70) -> CellSystem:
    """Solve the type I/II system and return exactly verified cells.

    Raises SolverError on Newton divergence or failed exactification.
    """
    sys = _NumericSystem(graph)
    if sys.n_unknowns == 0:
        return CellSystem(graph, graph.tower, {}, label="solved")
    import numpy as np
    from scipy.optimize import least_squares

    rng = np.random.default_rng(seed)
    sol = None
    for _ in range(_MAX_STARTS):
        scale = rng.uniform(0.6, 3.0)
        x0 = rng.uniform(0.4, 1.6, size=sys.n_unknowns) * scale
        res = least_squares(sys.residual, x0, jac=sys.jacobian, method="lm",
                            xtol=3e-16, ftol=3e-16, gtol=3e-16, max_nfev=4000)
        if res.cost < 1e-18:
            sol = res.x
            break
    if sol is None:
        raise SolverError(f"least squares did not converge for {graph.name} "
                          f"after {_MAX_STARTS} starts")
    x = sys.refine_mp(sol, digits)

    # reconstruct each squared weight over the alphabet
    base = graph.tower
    alpha = _alphabet(base)
    prec = int(digits * 3.5) + 40
    with mpmath.workprec(prec):
        alpha_logs = [float(mpmath.log(a.value(prec))) for a in alpha]
        table = _exponent_table(alpha_logs)
        plan = []
        for t in sys.triangles:
            v = x[sys.unknown_of[t]]
            if abs(v) < mpmath.mpf(10) ** (-digits // 2):
                plan.append((t, 0, None))
                continue
            target = float(2 * mpmath.log(abs(v)))
            hits = _find_exponents(target, table)
            best = None
            for e in hits:
                lng = mpmath.mpf(0)
                for ei, a in zip(e, alpha):
                    if ei:
                        lng += ei * mpmath.log(a.value(prec))
                if abs(lng - 2 * mpmath.log(abs(v))) < mpmath.mpf(10) ** (-digits + 12):
                    best = e
                    break
            if best is None:
                raise SolverError(f"exactification failed for triangle {t} "
                                  f"(value {mpmath.nstr(v, 20)})")
            plan.append((t, 1 if v > 0 else -1, best))

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
