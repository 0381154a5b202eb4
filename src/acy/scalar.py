"""Exact arithmetic in real quadratic towers over Q(2cos(pi/h)).

Every quantity in a cell system or structure constant of the quotient
algebra lives in a field K = Q(c)(sqrt(g_1), ..., sqrt(g_r)), where
c = 2cos(pi/h) and each radicand g_i is a positive element of the base
field Q(c).  Elements are stored in a canonical sparse normal form:
a map  (bitmask over adjoined roots) -> base-field coefficient,
with the base field represented over the power basis 1, c, ..., c^(D-1)
as integer vectors with a common denominator.

Scalars may optionally carry an imaginary part (a second such map); this
is only exercised by the orbifold cell systems on the D graphs, whose
weights involve cube roots of unity.

Zero is decided exactly from the normal form.  Positivity of a nonzero
element is certified by interval arithmetic with escalating precision;
intervals never decide equality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt

import mpmath
from mpmath import mp

__all__ = ["FieldTower", "Scalar", "PrimeEmbedding"]


# ---------------------------------------------------------------------------
# base field Q(c): elements are flat tuples (den, n_0, ..., n_{D-1})
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the n-th cyclotomic polynomial:
    z^n - 1 divided exactly by the monic Phi_d for every proper divisor d of n."""
    f = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            q = _cyclotomic(d)
            k = len(q) - 1
            quot = [0] * (len(f) - k)
            for i in range(len(quot) - 1, -1, -1):
                t = quot[i] = f[i + k]
                if t:
                    for j, y in enumerate(q):
                        f[i + j] -= t * y
            if any(f[:k]):
                raise ArithmeticError(f"Phi_{d} does not divide z^{n} - 1 exactly")
            f = quot
    return tuple(f)


@lru_cache(maxsize=None)
def coxeter_minpoly(h: int) -> tuple[int, ...]:
    """Ascending integer coefficients of the minimal polynomial of 2cos(pi/h).

    zeta = exp(i pi/h) has minimal polynomial Phi_2h, which is palindromic of
    degree 2m; Phi_2h(z) = z^m psi(z + 1/z) and psi is the one for
    zeta + 1/zeta = 2cos(pi/h).  psi is read off by peeling the top power
    (z + 1/z)^j = sum_i C(j, i) z^(j - 2i) from z^-m Phi_2h, all in integers.
    """
    if h < 3:
        raise ValueError(f"coxeter number must be >= 3, got {h}")
    phi = _cyclotomic(2 * h)
    m = (len(phi) - 1) // 2
    laurent = {j - m: a for j, a in enumerate(phi)}   # z^-m Phi_2h, a_j = a_-j
    psi = [0] * (m + 1)
    for j in range(m, -1, -1):
        b = psi[j] = laurent.get(j, 0)
        if b:
            for i in range(j + 1):
                laurent[j - 2 * i] = laurent.get(j - 2 * i, 0) - b * comb(j, i)
    if any(laurent.values()) or psi[-1] != 1:
        raise ArithmeticError(f"Phi_{2 * h} is not palindromic in z + 1/z")
    return tuple(psi)


def _bnormalize(den: int, nums: tuple[int, ...]) -> tuple[int, ...]:
    g = den
    for n in nums:
        g = gcd(g, n)
        if g == 1:
            break
    if den < 0:
        g = -g
    if g not in (0, 1):
        den //= g
        nums = tuple(n // g for n in nums)
    return (den,) + nums


def _bzero(D: int) -> tuple[int, ...]:
    return (1,) + (0,) * D


def _bone(D: int) -> tuple[int, ...]:
    return (1, 1) + (0,) * (D - 1)


def _bfrom_fraction(D: int, q: Fraction) -> tuple[int, ...]:
    return (q.denominator, q.numerator) + (0,) * (D - 1)


def _bis_zero(a: tuple[int, ...]) -> bool:
    return not any(a[1:])


def _badd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    da, db = a[0], b[0]
    if da == db:
        return _bnormalize(da, tuple(x + y for x, y in zip(a[1:], b[1:])))
    return _bnormalize(da * db, tuple(x * db + y * da for x, y in zip(a[1:], b[1:])))


def _bneg(a: tuple[int, ...]) -> tuple[int, ...]:
    return (a[0],) + tuple(-x for x in a[1:])


def _bscale(a: tuple[int, ...], q: Fraction) -> tuple[int, ...]:
    return _bnormalize(a[0] * q.denominator, tuple(x * q.numerator for x in a[1:]))


class _BaseField:
    """Arithmetic helpers for Q(c) with a fixed reduction table."""

    def __init__(self, h: int):
        self.h = h
        self.minpoly = coxeter_minpoly(h)
        self.D = len(self.minpoly) - 1
        # c^(D+i) as integer combinations of 1..c^(D-1), i = 0..D-2
        rows = []
        cur = [-m for m in self.minpoly[:-1]]  # c^D
        rows.append(tuple(cur))
        for _ in range(self.D - 2):
            shifted = [0] + cur[:-1]
            top = cur[-1]
            cur = [s - top * m for s, m in zip(shifted, self.minpoly[:-1])]
            rows.append(tuple(cur))
        self._red = rows

    def mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        D = self.D
        na, nb = a[1:], b[1:]
        conv = [0] * (2 * D - 1)
        for i, x in enumerate(na):
            if x:
                for j, y in enumerate(nb):
                    if y:
                        conv[i + j] += x * y
        out = list(conv[:D])
        for i in range(D, 2 * D - 1):
            v = conv[i]
            if v:
                row = self._red[i - D]
                for j, r in enumerate(row):
                    if r:
                        out[j] += v * r
        return _bnormalize(a[0] * b[0], tuple(out))

    def _eliminate(self, a: tuple[int, ...]) -> tuple[int, list[list[int]]]:
        """Fraction-free (Bareiss) elimination on the integer matrix M whose
        column j is a's numerator times c^j, with e_1 riding along as column
        D.  Returns (det(M), the eliminated rows)."""
        D = self.D
        top_row = [-m for m in self.minpoly[:-1]]  # c^D
        col = list(a[1:])
        cols = [col]
        for _ in range(D - 1):
            top = col[-1]
            col = [0] + col[:-1]
            if top:
                col = [x + top * r for x, r in zip(col, top_row)]
            cols.append(col)
        cols.append([1] + [0] * (D - 1))
        m = [list(r) for r in zip(*cols)]
        sign, prev = 1, 1
        for k in range(D - 1):
            if m[k][k] == 0:
                swap = next((i for i in range(k + 1, D) if m[i][k]), None)
                if swap is None:
                    return 0, m
                m[k], m[swap] = m[swap], m[k]
                sign = -sign
            pivot_row = m[k]
            pivot = pivot_row[k]
            for row in m[k + 1:]:
                f = row[k]
                for j in range(k + 1, D + 1):
                    row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
            prev = pivot
        return sign * m[-1][D - 1], m

    def norm(self, a: tuple[int, ...]) -> Fraction:
        """N_{Q(c)/Q}(a): the determinant of multiplication by a."""
        return Fraction(self._eliminate(a)[0], a[0] ** self.D)

    def inv(self, a: tuple[int, ...]) -> tuple[int, ...]:
        """a^-1 = a_den * adj(M) e_1 / det(M), M multiplication by a's
        numerator: the eliminated system is back-substituted in integers
        (Cohen, GTM 138, 2.2 and 4.3)."""
        if _bis_zero(a):
            raise ZeroDivisionError("inverse of zero in base field")
        det, m = self._eliminate(a)
        if not det:
            raise ZeroDivisionError("element not invertible (degenerate tower)")
        # x = det * M^-1 e_1 is integral (Cramer), so each division is exact
        D = self.D
        x = [0] * D
        for i in range(D - 1, -1, -1):
            row = m[i]
            acc = det * row[D]
            for j in range(i + 1, D):
                acc -= row[j] * x[j]
            x[i] = acc // row[i]
        return _bnormalize(det, tuple(a[0] * v for v in x))


@lru_cache(maxsize=None)
def _base_field(h: int) -> _BaseField:
    return _BaseField(h)


def _beval(b: tuple[int, ...], c, zero):
    """A base-field element at c, by Horner's rule in the number type of
    `zero` (mpf, or iv.mpf for a certified interval)."""
    acc = zero
    for n in reversed(b[1:]):
        acc = acc * c + n
    return acc / b[0]


# ---------------------------------------------------------------------------
# the tower
# ---------------------------------------------------------------------------

class FieldTower:
    """Immutable tower Q(2cos(pi/h))(sqrt(g_1), ..., sqrt(g_r)).

    Radicands g_i are positive elements of the base field; monomials in the
    adjoined roots are encoded as bitmasks over root indices.  All methods
    are pure; extension returns a fresh tower.
    """

    def __init__(self, h: int, roots: tuple[tuple[int, ...], ...] = ()):
        self.h = h
        self.base = _base_field(h)
        self.degree_base = self.base.D
        self.roots = tuple(roots)
        self.degree = self.degree_base * (1 << len(self.roots))
        self._numcache: dict[int, tuple] = {}
        self.fingerprint = (h,) + self.roots

    # -- scalar constructors -------------------------------------------------

    def zero(self) -> Scalar:
        return Scalar(self, {})

    def one(self) -> Scalar:
        return self.from_fraction(1)

    def from_fraction(self, q) -> Scalar:
        q = Fraction(q)
        if q == 0:
            return self.zero()
        return Scalar(self, {0: _bfrom_fraction(self.degree_base, q)})

    def from_base(self, coeffs) -> Scalar:
        """Scalar from base-field coordinates over 1, c, ..., c^(D-1)."""
        coeffs = [Fraction(c) for c in coeffs]
        coeffs += [Fraction(0)] * (self.degree_base - len(coeffs))
        den = 1
        for c in coeffs:
            den = den * c.denominator // gcd(den, c.denominator)
        b = _bnormalize(den, tuple(int(c * den) for c in coeffs))
        if _bis_zero(b):
            return self.zero()
        return Scalar(self, {0: b})

    def generator(self) -> Scalar:
        """The element c = 2cos(pi/h); at degree 1 (h = 3) it is the rational
        root of the minimal polynomial."""
        if self.degree_base == 1:
            return self.from_fraction(-self.base.minpoly[0])
        return Scalar(self, {0: (1, 0, 1) + (0,) * (self.degree_base - 2)})

    def root(self, i: int) -> Scalar:
        """The i-th adjoined square root."""
        return Scalar(self, {1 << i: _bone(self.degree_base)})

    def i_times(self, x: Scalar) -> Scalar:
        """The scalar i*x (rotates real into imaginary part)."""
        x = x.lift(self)
        re = _dneg(x.im) if x.im else {}
        return Scalar(self, re, dict(x.re) if x.re else None)

    def quantum(self, n: int) -> Scalar:
        """Quantum integer [n] at q = exp(i pi/h), via [n+1] = [2][n] - [n-1]."""
        if n < 0 or n >= 2 * self.h:
            raise ValueError(f"quantum integer index {n} out of range [0, {2 * self.h})")
        if n == 0:
            return self.zero()
        a, b = self.zero(), self.one()
        c = self.generator()
        for _ in range(n - 1):
            a, b = b, c * b - a
        return b

    # -- extension -------------------------------------------------------------

    def adjoin_sqrt(self, x: Scalar) -> tuple["FieldTower", Scalar]:
        """Return (tower, sqrt(x)); the tower is unchanged when sqrt(x) already
        exists.  x must be a positive element of the base field."""
        x = x.lift(self)
        if x.im:
            raise ValueError("cannot adjoin square root of a non-real element")
        if x.is_zero():
            raise ValueError("cannot adjoin square root of zero")
        if not x.is_positive():
            raise ValueError("cannot adjoin square root of a negative element")
        if len(x.re) != 1 or 0 not in x.re:
            raise ValueError("radicand not expressible: must lie in Q(2cos(pi/h))")
        radicand = x.re[0]
        hit = _sqrt_in_tower(self, radicand)
        if hit is not None:
            return self, hit
        tower = FieldTower(self.h, self.roots + (radicand,))
        return tower, tower.root(len(self.roots))

    # -- numerics ----------------------------------------------------------------

    def numeric(self, prec: int):
        """(c, (sqrt(g_i), ...)) as mpf values at binary precision prec."""
        cached = self._numcache.get(prec)
        if cached is not None:
            return cached
        with mpmath.workprec(prec):
            c = mp.mpf(2) * mpmath.cos(mp.pi / self.h)
            vals = tuple(mpmath.sqrt(_beval(g, c, mp.mpf(0))) for g in self.roots)
        out = (c, vals)
        self._numcache[prec] = out
        return out

    # -- identity -------------------------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, FieldTower) and self.fingerprint == other.fingerprint

    def __hash__(self):
        return hash(self.fingerprint)

    def __repr__(self):
        return f"FieldTower(h={self.h}, roots={len(self.roots)}, degree={self.degree})"

    def describe(self) -> dict:
        return {
            "h": self.h,
            "base_minpoly": list(coxeter_minpoly(self.h)),
            "roots": [list(g) for g in self.roots],
            "degree": self.degree,
        }

    def to_doc(self) -> dict:
        return {"h": self.h, "roots": [list(g) for g in self.roots]}

    @classmethod
    def from_doc(cls, doc: dict) -> "FieldTower":
        return cls(int(doc["h"]), tuple(tuple(int(v) for v in g) for g in doc["roots"]))


# ---------------------------------------------------------------------------
# scalars
# ---------------------------------------------------------------------------

class Scalar:
    """An element of a FieldTower, optionally with an imaginary part.

    Normal form: dict mask -> nonzero base tuple; two scalars over the same
    tower are equal iff their dicts are identical.  Value-like and immutable
    by convention; safe to share across threads.
    """

    __slots__ = ("tower", "re", "im")

    def __init__(self, tower: FieldTower, re: dict, im: dict | None = None):
        self.tower = tower
        self.re = re
        self.im = im if im else None

    # -- predicates --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.re and not self.im

    def is_real(self) -> bool:
        return not self.im

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.tower.from_fraction(other)
        if not isinstance(other, Scalar):
            return NotImplemented
        a, b = _coerce(self, other)
        return a.re == b.re and (a.im or {}) == (b.im or {})

    def __hash__(self):
        return hash((self.tower.fingerprint, tuple(sorted(self.re.items())),
                     tuple(sorted(self.im.items())) if self.im else None))

    # -- ring operations ------------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.tower.from_fraction(other)
        a, b = _coerce(self, other)
        re = _dadd(a.re, b.re)
        im = _dadd(a.im or {}, b.im or {}) if (a.im or b.im) else None
        return Scalar(a.tower, re, im)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Scalar(self.tower, _dneg(self.re), _dneg(self.im) if self.im else None)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                return self.tower.zero()
            re = {m: _bscale(b, q) for m, b in self.re.items()}
            im = {m: _bscale(b, q) for m, b in self.im.items()} if self.im else None
            return Scalar(self.tower, re, im)
        a, b = _coerce(self, other)
        t = a.tower
        if a.im is None and b.im is None:
            return Scalar(t, _dmul(t, a.re, b.re))
        ar, ai = a.re, a.im or {}
        br, bi = b.re, b.im or {}
        re = _dadd(_dmul(t, ar, br), _dneg(_dmul(t, ai, bi)))
        im = _dadd(_dmul(t, ar, bi), _dmul(t, ai, br))
        return Scalar(t, re, im if im else None)

    __radd__ = __add__
    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                raise ZeroDivisionError("scalar division by zero")
            return self * (1 / q)
        a, b = _coerce(self, other)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.tower.from_fraction(other) / self

    def inverse(self) -> "Scalar":
        if self.is_zero():
            raise ZeroDivisionError("scalar division by zero")
        t = self.tower
        if self.im:
            conj = self.conjugate()
            norm = self * conj
            return conj * Scalar(t, _dinv(t, norm.re))
        return Scalar(t, _dinv(t, self.re))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out, base = self.tower.one(), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "Scalar":
        """Complex conjugation; identity on real scalars."""
        if not self.im:
            return self
        return Scalar(self.tower, self.re, _dneg(self.im))

    # -- tower management --------------------------------------------------------------

    def lift(self, tower: FieldTower) -> "Scalar":
        """Reinterpret in a supertower (same h, roots a superset)."""
        if tower is self.tower:
            return self
        if tower.fingerprint == self.tower.fingerprint:
            return Scalar(tower, self.re, self.im)
        if tower.h != self.tower.h:
            raise ValueError(f"tower mismatch: h={self.tower.h} vs h={tower.h}")
        idx = []
        for g in self.tower.roots:
            try:
                idx.append(tower.roots.index(g))
            except ValueError:
                raise ValueError("tower mismatch: roots are not a subset") from None

        def remap(d):
            out = {}
            for m, b in d.items():
                nm = 0
                for i, j in enumerate(idx):
                    if m >> i & 1:
                        nm |= 1 << j
                out[nm] = b
            return out

        return Scalar(tower, remap(self.re), remap(self.im) if self.im else None)

    # -- numerics ------------------------------------------------------------------------

    def value(self, prec: int = 80):
        """mpf/mpc approximation at binary precision prec (not certified)."""
        c, rootvals = self.tower.numeric(prec)
        with mpmath.workprec(prec):
            re = _deval(self.re, c, rootvals, mp.mpf(0))
            if not self.im:
                return +re
            return mpmath.mpc(re, _deval(self.im, c, rootvals, mp.mpf(0)))

    def interval(self, prec: int = 80):
        """Certified enclosing iv.mpf (real scalars only)."""
        if self.im:
            raise ValueError("interval evaluation requires a real scalar")
        iv = mpmath.iv
        old = iv.prec
        try:
            iv.prec = prec
            c = 2 * iv.cos(iv.pi / self.tower.h)
            rootvals = []
            for g in self.tower.roots:
                rootvals.append(iv.sqrt(_beval(g, c, iv.mpf(0))))
            return _deval(self.re, c, rootvals, iv.mpf(0))
        finally:
            iv.prec = old

    def embed_real(self, digits: int = 15):
        """Certified interval of width <= 10^-digits around the real embedding."""
        if digits < 1:
            raise ValueError("digits must be >= 1")
        target = mpmath.mpf(10) ** (-digits)
        prec = max(80, int(digits * 3.4) + 40)
        while True:
            box = self.interval(prec)
            if mpmath.mpf(box.delta.b) <= target:
                return box
            prec *= 2

    def is_positive(self) -> bool:
        """Certified sign of a real scalar; False for zero."""
        if self.im:
            raise ValueError("sign of a non-real scalar")
        if self.is_zero():
            return False
        prec = 80
        while True:
            box = self.interval(prec)
            if box.a > 0:
                return True
            if box.b < 0:
                return False
            prec *= 2

    # -- mod-p reduction -----------------------------------------------------------------

    def reduce_mod(self, emb: "PrimeEmbedding") -> int | None:
        """Image under a prime embedding, or None if a denominator vanishes."""
        try:
            r = _dreduce(self.re, emb)
            if self.im:
                if emb.i_img is None:
                    return None
                r = (r + emb.i_img * _dreduce(self.im, emb)) % emb.p
            return r
        except ZeroDivisionError:
            return None

    # -- serialization ----------------------------------------------------------------------

    def to_coords(self) -> dict:
        doc = {"re": {str(m): list(b) for m, b in sorted(self.re.items())}}
        if self.im:
            doc["im"] = {str(m): list(b) for m, b in sorted(self.im.items())}
        return doc

    @classmethod
    def from_coords(cls, tower: FieldTower, doc: dict) -> "Scalar":
        re = {int(m): tuple(int(v) for v in b) for m, b in doc.get("re", {}).items()}
        im = {int(m): tuple(int(v) for v in b) for m, b in doc.get("im", {}).items()}
        re = {m: b for m, b in re.items() if not _bis_zero(b)}
        im = {m: b for m, b in im.items() if not _bis_zero(b)}
        return cls(tower, re, im or None)

    def __repr__(self):
        return f"Scalar({mpmath.nstr(self.value(80), 12)})"


def _coerce(a: Scalar, b: Scalar) -> tuple[Scalar, Scalar]:
    if a.tower is b.tower or a.tower.fingerprint == b.tower.fingerprint:
        return a, b
    if len(a.tower.roots) >= len(b.tower.roots):
        return a, b.lift(a.tower)
    return a.lift(b.tower), b


# dict-level helpers -----------------------------------------------------------

def _dadd(x: dict, y: dict) -> dict:
    out = dict(x)
    for m, b in y.items():
        cur = out.get(m)
        if cur is None:
            out[m] = b
        else:
            s = _badd(cur, b)
            if _bis_zero(s):
                del out[m]
            else:
                out[m] = s
    return out


def _dneg(x: dict) -> dict:
    return {m: _bneg(b) for m, b in x.items()}


def _dmul(t: FieldTower, x: dict, y: dict) -> dict:
    base = t.base
    roots = t.roots
    out: dict = {}
    for m1, b1 in x.items():
        for m2, b2 in y.items():
            coeff = base.mul(b1, b2)
            common = m1 & m2
            while common:
                i = (common & -common).bit_length() - 1
                coeff = base.mul(coeff, roots[i])
                common &= common - 1
            m = m1 ^ m2
            cur = out.get(m)
            if cur is None:
                if not _bis_zero(coeff):
                    out[m] = coeff
            else:
                s = _badd(cur, coeff)
                if _bis_zero(s):
                    del out[m]
                else:
                    out[m] = s
    return out


def _dinv(t: FieldTower, x: dict) -> dict:
    """Inverse of a nonzero real element, peeling off the highest root."""
    support = 0
    for m in x:
        support |= m
    if support == 0:
        return {0: t.base.inv(x[0])}
    bit = 1 << (support.bit_length() - 1)
    a = {m: v for m, v in x.items() if not m & bit}      # x = a + b*sqrt(g)
    b = {m ^ bit: v for m, v in x.items() if m & bit}
    g = {0: t.roots[bit.bit_length() - 1]}
    denom = _dadd(_dmul(t, a, a), _dneg(_dmul(t, _dmul(t, b, b), g)))
    if not denom:
        raise ZeroDivisionError("degenerate tower: norm vanished for nonzero element")
    dinv = _dinv(t, denom)
    num = dict(a)
    for m, v in b.items():
        num = _dadd(num, {m | bit: _bneg(v)})
    return _dmul(t, num, dinv)


def _deval(d: dict, c, rootvals, zero):
    """A tower element at c and the root values, in the number type of `zero`."""
    acc = zero
    for m, b in d.items():
        v = _beval(b, c, zero)
        while m:
            i = (m & -m).bit_length() - 1
            v *= rootvals[i]
            m &= m - 1
        acc += v
    return acc


def _dreduce(d: dict, emb: "PrimeEmbedding") -> int:
    p = emb.p
    acc = 0
    for m, b in d.items():
        den = b[0] % p
        if den == 0:
            raise ZeroDivisionError
        v = 0
        for n in reversed(b[1:]):
            v = (v * emb.c_img + n) % p
        v = v * pow(den, -1, p) % p
        i = 0
        while m:
            if m & 1:
                v = v * emb.root_imgs[i] % p
            m >>= 1
            i += 1
        acc = (acc + v) % p
    return acc


# ---------------------------------------------------------------------------
# prime embeddings (fast path for rank precomputation)
# ---------------------------------------------------------------------------

class PrimeEmbedding:
    """A ring homomorphism from the tower into F_p.

    Requires p == 1 mod lcm(2h, 4): c maps to zeta + zeta^(-1) for a zeta of
    order 2h, each radicand must be a quadratic residue, and i has an image
    so complexified scalars reduce too.
    """

    def __init__(self, p: int, c_img: int, root_imgs: tuple[int, ...], i_img: int | None):
        self.p = p
        self.c_img = c_img
        self.root_imgs = root_imgs
        self.i_img = i_img

    @classmethod
    def find(cls, tower: FieldTower, skip: int = 0) -> "PrimeEmbedding":
        """The (skip+1)-th usable prime above 2^30."""
        h = tower.h
        step = 2 * h
        while step % 4:
            step += 2 * h
        p = (1 << 30) - (1 << 30) % step + 1
        found = 0
        while True:
            p += step
            if not _isprime(p):
                continue
            emb = cls._try_build(tower, p)
            if emb is None:
                continue
            if found == skip:
                return emb
            found += 1

    @classmethod
    def _try_build(cls, tower: FieldTower, p: int) -> "PrimeEmbedding | None":
        h = tower.h
        e = (p - 1) // (2 * h)
        c_img = None
        for a in range(2, 500):
            z = pow(a, e, p)
            if pow(z, h, p) == p - 1:
                c_img = (z + pow(z, -1, p)) % p
                break
        if c_img is None:
            return None
        acc = 0
        for co in reversed(tower.base.minpoly):
            acc = (acc * c_img + co) % p
        if acc != 0:
            return None
        root_imgs = []
        for g in tower.roots:
            den = g[0] % p
            if den == 0:
                return None
            v = 0
            for n in reversed(g[1:]):
                v = (v * c_img + n) % p
            v = v * pow(den, -1, p) % p
            r = _sqrt_mod(v, p)
            if r is None:
                return None
            root_imgs.append(r)
        i_img = _sqrt_mod(p - 1, p)
        if i_img is None:
            return None
        return cls(p, c_img, tuple(root_imgs), i_img)


# Miller-Rabin with the first 13 prime bases is exact for n below this bound
# (Sorenson and Webster, Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981


def _isprime(n: int) -> bool:
    """Deterministic primality test for n < _MR_LIMIT."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin range")
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _sqrt_mod(a: int, p: int) -> int | None:
    """The square root of a mod an odd prime p that is <= p // 2 (Tonelli-Shanks),
    or None for a non-residue."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while not q & 1:
        q >>= 1
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 1, t * t % p
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


# ---------------------------------------------------------------------------
# square detection (used by adjoin_sqrt)
# ---------------------------------------------------------------------------

def _sqrt_in_tower(tower: FieldTower, g: tuple[int, ...]) -> Scalar | None:
    """sqrt(g) as a tower element if one exists, else None (g positive, base).

    Kummer: sqrt(g) lies in the multiquadratic tower iff g * prod_{i in S} g_i
    is a square in Q(c) for some subset S of the adjoined roots.
    """
    base = tower.base
    r = len(tower.roots)
    for mask in range(1 << r):
        prod = _bone(tower.degree_base)
        for i in range(r):
            if mask >> i & 1:
                prod = base.mul(prod, tower.roots[i])
        s = _base_sqrt(tower.h, base.mul(g, prod))
        if s is None:
            continue
        # sqrt(g) = sqrt(g * prod) / sqrt(prod) = s * sqrt(prod) / prod
        out = Scalar(tower, {mask: s})
        if mask:
            out = out * Scalar(tower, {0: base.inv(prod)})
        if not out.is_positive():
            out = -out
        return out
    return None


def _pslq_base_sqrt(h: int, g: tuple[int, ...], prec: int, maxcoeff: int):
    base = _base_field(h)
    plain = FieldTower(h)
    with mpmath.workprec(prec):
        c, _ = plain.numeric(prec)
        val = _beval(g, c, mp.mpf(0))
        if val < 0:
            return None
        s = mpmath.sqrt(val)
        vec = [s] + [c ** i for i in range(base.D)]
        rel = mpmath.pslq(vec, maxcoeff=maxcoeff, maxsteps=200000)
    if rel and rel[0] != 0:
        cand = [Fraction(-a, rel[0]) for a in rel[1:]]
        den = 1
        for q in cand:
            den = den * q.denominator // gcd(den, q.denominator)
        b = _bnormalize(den, tuple(int(q * den) for q in cand))
        if base.mul(b, b) == g:
            return b
    return None


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """The nonnegative square root of q if it is rational, else None."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def _base_sqrt(h: int, g: tuple[int, ...]) -> tuple[int, ...] | None:
    """Exact sqrt of g in Q(c) if it is a square there, else None.

    Sound filters first: g = y^2 forces N(g) = N(y)^2, so a norm that is not
    a rational square certifies a non-square, and so does a mod-p non-residue;
    a verified numeric reconstruction certifies a square.  Factoring z^2 - g
    over Q(c) with sympy decides any case the filters leave open.
    """
    g = _bnormalize(g[0], g[1:])
    if _bis_zero(g):
        return _bzero(_base_field(h).D)
    base = _base_field(h)
    if base.D == 1:
        r = _rational_sqrt(Fraction(g[1], g[0]))
        return None if r is None else _bnormalize(r.denominator, (r.numerator,))
    if _rational_sqrt(base.norm(g)) is None:
        return None
    plain = FieldTower(h)
    scalar_g = Scalar(plain, {0: g})
    for skip in range(6):
        emb = PrimeEmbedding.find(plain, skip=skip)
        v = scalar_g.reduce_mod(emb)
        if v is None or v == 0:
            continue
        if pow(v, (emb.p - 1) // 2, emb.p) != 1:
            return None
    hit = _pslq_base_sqrt(h, g, 400, 10 ** 24)
    if hit is not None:
        return hit
    if not _factor_is_square(h, g):
        return None
    for prec in (800, 1600, 3200):
        hit = _pslq_base_sqrt(h, g, prec, 10 ** (prec // 16))
        if hit is not None:
            return hit
    raise ArithmeticError("square certified by sympy but reconstruction failed")


def _factor_is_square(h: int, g: tuple[int, ...]) -> bool:
    """Complete decision: z^2 - g has a linear factor over Q(2cos(pi/h)).
    The only use of sympy; imported here so that no other path loads it."""
    import sympy

    theta = 2 * sympy.cos(sympy.pi / h)
    expr = sympy.nsimplify(sum(Fraction(n, g[0]) * theta ** i for i, n in enumerate(g[1:])))
    z = sympy.Symbol("z")
    factors = sympy.factor_list(z ** 2 - expr, z, extension=theta)[1]
    return any(sympy.degree(f, z) == 1 for f, _ in factors)
