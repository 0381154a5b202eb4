"""Integer-polynomial toolkit: the closed-form Hilbert series, determinant
identities, and the Euler characteristic of reduced cyclic homology extracted
from prod_s det H_A(t^s).

Both series are read off one sparse recurrence for the coefficients of
G = M^(-1), M = 1 - Dt + D^T t^2 - t^3: the Hilbert series is
G (1 - P t^h), and log det M is integrated from the traces tr(M' G), so the
Euler path never expands a determinant.  `det_hilbert` (fraction-free
Bareiss over Z[t]) and `series_log` serve the closed-form identities."""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .quiver import Graph

__all__ = ["IntPoly", "RationalFunction", "hilbert_closed_form", "det_hilbert",
           "euler_characteristic_hc", "poly_det_bareiss", "series_log"]


class IntPoly:
    """Dense integer polynomial, ascending coefficients."""

    __slots__ = ("c",)

    def __init__(self, coeffs):
        c = [int(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.c = c

    @classmethod
    def const(cls, v: int) -> "IntPoly":
        return cls([v])

    @classmethod
    def monomial(cls, k: int, v: int = 1) -> "IntPoly":
        return cls([0] * k + [v])

    def degree(self) -> int:
        return len(self.c) - 1

    def is_zero(self) -> bool:
        return not self.c

    def __eq__(self, other):
        return isinstance(other, IntPoly) and self.c == other.c

    def __hash__(self):
        return hash(tuple(self.c))

    def __add__(self, other):
        n = max(len(self.c), len(other.c))
        return IntPoly([(self.c[i] if i < len(self.c) else 0)
                        + (other.c[i] if i < len(other.c) else 0) for i in range(n)])

    def __sub__(self, other):
        n = max(len(self.c), len(other.c))
        return IntPoly([(self.c[i] if i < len(self.c) else 0)
                        - (other.c[i] if i < len(other.c) else 0) for i in range(n)])

    def __neg__(self):
        return IntPoly([-x for x in self.c])

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly([x * other for x in self.c])
        if self.is_zero() or other.is_zero():
            return IntPoly([])
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, x in enumerate(self.c):
            if x:
                for j, y in enumerate(other.c):
                    if y:
                        out[i + j] += x * y
        return IntPoly(out)

    __rmul__ = __mul__

    def divexact(self, other: "IntPoly") -> "IntPoly":
        """Exact division (raises if not divisible)."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.c)
        out = [0] * max(len(rem) - len(other.c) + 1, 1)
        while len(rem) >= len(other.c) and any(rem):
            while rem and rem[-1] == 0:
                rem.pop()
            if len(rem) < len(other.c):
                break
            q, r = divmod(rem[-1], other.c[-1])
            if r != 0:
                raise ArithmeticError("inexact polynomial division")
            k = len(rem) - len(other.c)
            out[k] = q
            for i, y in enumerate(other.c):
                rem[k + i] -= q * y
        if any(rem):
            raise ArithmeticError("inexact polynomial division")
        return IntPoly(out)

    def content(self) -> int:
        g = 0
        for x in self.c:
            g = gcd(g, x)
        return g

    def primitive(self) -> "IntPoly":
        g = self.content()
        if g in (0, 1):
            return self
        return IntPoly([x // g for x in self.c])

    def __repr__(self):
        if not self.c:
            return "0"
        parts = []
        for i, x in enumerate(self.c):
            if x:
                parts.append(f"{x}" if i == 0 else (f"{x}*t^{i}" if i > 1 else f"{x}*t"))
        return " + ".join(parts).replace("+ -", "- ")


def _poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd in Z[t] via monic Euclid over Q."""
    fa = [Fraction(x) for x in a.c]
    fb = [Fraction(x) for x in b.c]

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    fa, fb = trim(fa), trim(fb)
    while fb:
        # fa mod fb
        while len(fa) >= len(fb) and fa:
            f = fa[-1] / fb[-1]
            k = len(fa) - len(fb)
            for i, y in enumerate(fb):
                fa[k + i] -= f * y
            fa = trim(fa)
        fa, fb = fb, fa
    if not fa:
        return IntPoly([])
    den = 1
    for q in fa:
        den = den * q.denominator // gcd(den, q.denominator)
    out = IntPoly([int(q * den) for q in fa]).primitive()
    if out.c and out.c[-1] < 0:
        out = -out
    return out


class RationalFunction:
    """num/den over Z[t], reduced and normalized (den primitive, positive lead)."""

    def __init__(self, num: IntPoly, den: IntPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        g = _poly_gcd(num, den)
        if not g.is_zero() and g.degree() >= 0 and g.c != [1]:
            num = num.divexact(g)
            den = den.divexact(g)
        cn, cd = num.content(), den.content()
        if cn and cd:
            cg = gcd(cn, cd)
            if cg > 1:
                num = IntPoly([x // cg for x in num.c])
                den = IntPoly([x // cg for x in den.c])
        if den.c and den.c[-1] < 0:
            num, den = -num, -den
        self.num, self.den = num, den

    def __eq__(self, other):
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def series(self, N: int) -> list[Fraction]:
        """Taylor coefficients 0..N (requires den(0) != 0)."""
        if not self.den.c or self.den.c[0] == 0:
            raise ZeroDivisionError("denominator vanishes at 0")
        d0 = Fraction(1, self.den.c[0])
        out = []
        for k in range(N + 1):
            acc = Fraction(self.num.c[k]) if k < len(self.num.c) else Fraction(0)
            for i in range(1, min(k, self.den.degree()) + 1):
                acc -= self.den.c[i] * out[k - i]
            out.append(acc * d0)
        return out

    def to_doc(self) -> dict:
        return {"numerator": list(self.num.c), "denominator": list(self.den.c)}

    def __repr__(self):
        return f"({self.num!r}) / ({self.den!r})"


# ---------------------------------------------------------------------------
# Hilbert series of the quotient algebra
# ---------------------------------------------------------------------------

def _inverse_series(g: Graph, N: int):
    """Yield the matrix coefficients G^0..G^N of G = M^(-1), where
    M = 1 - Dt + D^T t^2 - t^3, as lists of rows.

    M G = 1 gives G^k = D G^(k-1) - D^T G^(k-2) + G^(k-3); row i of D G is
    the sum of the rows G[t] over the edges i -> t, so D is applied as
    adjacency lists and each step costs n^2 times the mean degree.
    """
    n = len(g.vertices)
    vi = g.vindex
    outs: list[list[int]] = [[] for _ in range(n)]  # row i of D G: rows t, i -> t
    ins: list[list[int]] = [[] for _ in range(n)]   # row i of D^T G: rows t, t -> i
    for e in g.edges:
        outs[vi[e.src]].append(vi[e.dst])
        ins[vi[e.dst]].append(vi[e.src])
    zero = [[0] * n for _ in range(n)]
    g1 = [[int(i == j) for j in range(n)] for i in range(n)]  # G^(k-1)
    g2 = g3 = zero                                              # G^(k-2), G^(k-3)
    yield g1
    for _ in range(N):
        G = []
        for i in range(n):
            acc = list(g3[i])
            for t in outs[i]:
                acc = [a + b for a, b in zip(acc, g1[t])]
            for t in ins[i]:
                acc = [a - b for a, b in zip(acc, g2[t])]
            G.append(acc)
        g1, g2, g3 = G, g1, g2
        yield G


def hilbert_closed_form(g: Graph, N: int) -> list[list[list[int]]]:
    """Matrix coefficients H^0..H^N of (1 - P t^h) / (1 - Dt + D^T t^2 - t^3).

    H = M^(-1) (1 - P t^h), so H^k = G^k - G^(k-h) P with G = M^(-1) from
    `_inverse_series`; column j of G P is column nu^(-1)(j) of G.
    """
    if N < g.h:
        raise ValueError(f"cutoff {N} must be at least h = {g.h}")
    vi = g.vindex
    back = [0] * len(g.vertices)  # back[j] = nu^(-1)(j)
    for v, w in g.nu_v.items():
        back[vi[w]] = vi[v]
    G = list(_inverse_series(g, N))
    out = G[:g.h]
    for k in range(g.h, N + 1):
        out.append([[a - low[b] for a, b in zip(row, back)]
                    for row, low in zip(G[k], G[k - g.h])])
    return out


def poly_det_bareiss(M: list[list[IntPoly]]) -> IntPoly:
    """Fraction-free determinant of a square matrix over Z[t]."""
    n = len(M)
    if n == 0:
        return IntPoly([1])
    A = [[M[i][j] for j in range(n)] for i in range(n)]
    sign = 1
    prev = IntPoly([1])
    for k in range(n - 1):
        if A[k][k].is_zero():
            for i in range(k + 1, n):
                if not A[i][k].is_zero():
                    A[k], A[i] = A[i], A[k]
                    sign = -sign
                    break
            else:
                return IntPoly([])
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                A[i][j] = (A[i][j] * A[k][k] - A[i][k] * A[k][j]).divexact(prev)
        prev = A[k][k]
    det = A[n - 1][n - 1]
    return det if sign == 1 else -det


def _nu_cycles(g: Graph) -> list[int]:
    """Lengths of the cycles of nu on the vertices."""
    out, seen = [], set()
    for v in g.vertices:
        w, clen = v, 0
        while w not in seen:
            seen.add(w)
            w = g.nu_v[w]
            clen += 1
        if clen:
            out.append(clen)
    return out


def det_hilbert(g: Graph) -> RationalFunction:
    """det H_A(t) = det(1 - P t^h) / det(1 - Dt + D^T t^2 - t^3), reduced."""
    n = len(g.vertices)
    D = g.adjacency()
    # numerator from the cycle type of nu
    num = IntPoly([1])
    for clen in _nu_cycles(g):
        num = num * (IntPoly.const(1) - IntPoly.monomial(g.h * clen))
    M = [[IntPoly([1 if i == j else 0, -D[i][j], D[j][i], -1 if i == j else 0])
          for j in range(n)] for i in range(n)]
    den = poly_det_bareiss(M)
    return RationalFunction(num, den)


# ---------------------------------------------------------------------------
# Euler characteristic of reduced cyclic homology
# ---------------------------------------------------------------------------

def series_log(coeffs: list[Fraction], N: int) -> list[Fraction]:
    """log of a power series with constant term 1, to order N."""
    if not coeffs or coeffs[0] != 1:
        raise ValueError("series log requires constant term 1")
    p = list(coeffs) + [Fraction(0)] * (N + 1 - len(coeffs))
    # l' = p'/p; integrate
    dp = [p[i + 1] * (i + 1) for i in range(N)]
    q = [Fraction(0)] * N  # q = p'/p
    for k in range(N):
        acc = dp[k]
        for i in range(1, k + 1):
            acc -= p[i] * q[k - i]
        q[k] = acc
    out = [Fraction(0)] * (N + 1)
    for k in range(N):
        out[k + 1] = q[k] / (k + 1)
    return out


def _mobius(n: int) -> int:
    out, d, m = 1, 2, n
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    if m > 1:
        out = -out
    return out


def _log_det_power_sums(g: Graph, N: int) -> list[int]:
    """q_0..q_N with log det H_A(t) = sum_(m >= 1) q_m t^m / m (q_0 = 0).

    The denominator is read through traces, not expanded: with G = M^(-1),
    (log det M)' = tr(M' G) and M' = -D + 2 D^T t - 3 t^2, so
    m [t^m] log det M = -tr(D G^(m-1)) + 2 tr(D^T G^(m-2)) - 3 tr(G^(m-3)).
    tr(D G) sums G[dst][src] and tr(D^T G) sums G[src][dst] over the edges.
    The numerator det(1 - P t^h) is the product of 1 - t^(h l) over the
    nu-cycles of length l, whose logs add -h l at every multiple of h l."""
    vi = g.vindex
    arcs = [(vi[e.src], vi[e.dst]) for e in g.edges]
    q = [0] * (N + 1)
    for k, G in enumerate(_inverse_series(g, N - 1)):
        # the t^k coefficient of tr(M' G) enters q_(k+1), q_(k+2), q_(k+3)
        q[k + 1] += sum(G[b][a] for a, b in arcs)
        if k + 2 <= N:
            q[k + 2] -= 2 * sum(G[a][b] for a, b in arcs)
        if k + 3 <= N:
            q[k + 3] += 3 * sum(G[i][i] for i in range(len(G)))
    for clen in _nu_cycles(g):
        for m in range(g.h * clen, N + 1, g.h * clen):
            q[m] -= g.h * clen
    return q


def euler_characteristic_hc(g: Graph, N: int | None = None) -> list[int]:
    """Coefficients a_0..a_N of chi(t) = sum a_k t^k, where
    prod_k (1 - t^k)^(-a_k) = prod_s det H_A(t^s).  Default N = 4h.

    Taking logs, L = sum_s log det H_A(t^s) has r L_r = sum_(s | r) s q_(r/s)
    with q from `_log_det_power_sums`, and r L_r = sum_(d | r) d a_d, which
    Moebius inversion solves; all of it is integer arithmetic."""
    if N is None:
        N = 4 * g.h
    if N < 3 * g.h:
        raise ValueError(f"cutoff {N} must be at least 3h = {3 * g.h}")
    q = _log_det_power_sums(g, N)
    rL = [0] * (N + 1)
    for s in range(1, N + 1):
        for m in range(1, N // s + 1):
            rL[s * m] += s * q[m]
    a = [0] * (N + 1)
    for r in range(1, N + 1):
        acc = sum(_mobius(r // d) * d_rL for d, d_rL in enumerate(rL) if d and r % d == 0)
        if acc % r:
            raise ArithmeticError(f"non-integer Euler coefficient at degree {r}")
        a[r] = acc // r
    return a
