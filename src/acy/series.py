"""Integer-polynomial toolkit: the closed-form Hilbert series, determinant
identities, and the Euler characteristic of reduced cyclic homology extracted
from prod_s det H_A(t^s)."""

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

def hilbert_closed_form(g: Graph, N: int) -> list[list[list[int]]]:
    """Matrix coefficients H^0..H^N of (1 - P t^h) / (1 - Dt + D^T t^2 - t^3).

    Recurrence: H^k = D H^(k-1) - D^T H^(k-2) + H^(k-3) - delta(k, h) P.
    """
    if N < g.h:
        raise ValueError(f"cutoff {N} must be at least h = {g.h}")
    n = len(g.vertices)
    D = g.adjacency()
    DT = [list(r) for r in zip(*D)]
    P = g.permutation_matrix()
    out = []
    for k in range(N + 1):
        if k == 0:
            H = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        else:
            H = _mm(D, out[k - 1])
            if k >= 2:
                H = _msub(H, _mm(DT, out[k - 2]))
            if k >= 3:
                H = _madd(H, out[k - 3])
            if k == g.h:
                H = _msub(H, P)
        out.append(H)
    return out


def _mm(A, B):
    n = len(A)
    return [[sum(A[i][t] * B[t][j] for t in range(n)) for j in range(n)] for i in range(n)]


def _madd(A, B):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


def _msub(A, B):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(A, B)]


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


def det_hilbert(g: Graph) -> RationalFunction:
    """det H_A(t) = det(1 - P t^h) / det(1 - Dt + D^T t^2 - t^3), reduced."""
    n = len(g.vertices)
    D = g.adjacency()
    # numerator from the cycle type of nu
    num = IntPoly([1])
    seen = set()
    for v in g.vertices:
        if v in seen:
            continue
        w, clen = v, 0
        while True:
            seen.add(w)
            w = g.nu_v[w]
            clen += 1
            if w == v:
                break
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


def euler_characteristic_hc(g: Graph, N: int | None = None) -> list[int]:
    """Coefficients a_0..a_N of chi(t) = sum a_k t^k, where
    prod_k (1 - t^k)^(-a_k) = prod_s det H_A(t^s).  Default N = 4h."""
    if N is None:
        N = 4 * g.h
    if N < 3 * g.h:
        raise ValueError(f"cutoff {N} must be at least 3h = {3 * g.h}")
    det = det_hilbert(g)
    # L(t) = sum_s [log num(t^s) - log den(t^s)]
    L = [Fraction(0)] * (N + 1)
    base_num = det.num.c
    base_den = det.den.c
    # normalize so constant terms are 1 (they agree up to an overall rational)
    if base_num[0] != base_den[0]:
        raise ArithmeticError("determinant does not have constant term 1")
    c0 = Fraction(base_num[0])
    num0 = [Fraction(x) / c0 for x in base_num]
    den0 = [Fraction(x) / c0 for x in base_den]
    for s in range(1, N + 1):
        for coeffs, sgn in ((num0, 1), (den0, -1)):
            if len(coeffs) <= 1:
                continue
            # substitute t -> t^s
            sub = [Fraction(0)] * (N + 1)
            for i, x in enumerate(coeffs):
                if i * s > N:
                    break
                sub[i * s] = x
            sub[0] = Fraction(1)
            lg = series_log(sub, N)
            for k in range(N + 1):
                L[k] += sgn * lg[k]
    # r L_r = sum_{d|r} d a_d  =>  r a_r = sum_{d|r} mu(r/d) d L_d
    a = [0] * (N + 1)
    for r in range(1, N + 1):
        acc = Fraction(0)
        for d in range(1, r + 1):
            if r % d == 0:
                m = _mobius(r // d)
                if m:
                    acc += m * d * L[d]
        if acc.denominator != 1 or acc.numerator % r:
            raise ArithmeticError(f"non-integer Euler coefficient at degree {r}")
        a[r] = acc.numerator // r
    return a
