"""Exact arithmetic in real quadratic towers over Q(2cos(pi/h)).

Every quantity in a cell system or structure constant of the quotient
algebra lives in a field K = Q(c)(sqrt(g_1), ..., sqrt(g_r)), where
c = 2cos(pi/h) and each radicand g_i is a positive element of the base
field Q(c).  Elements are stored in a canonical sparse normal form:
a map  (bitmask over adjoined roots) -> base-field coefficient,
with the base field represented over the power basis 1, c, ..., c^(D-1)
as integer vectors with a common denominator.  Their product is one
straight-line function, generated once per h from the reduction table.

Scalars may optionally carry an imaginary part (a second such map); this
is only exercised by the orbifold cell systems on the D graphs, whose
weights involve cube roots of unity.  The algebra of those cells runs in
the smaller field Q(omega) instead, as `Eisenstein`s (a + b omega)/d.

Each field has one shared unit, `FieldTower.one()` or `ONE` in Q(omega), for
which `__mul__` returns the other factor: the one place a unit is skipped.

Zero is decided exactly from the normal form.  Positivity of a nonzero
element is certified by interval arithmetic with escalating precision;
intervals never decide equality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, gcd

import mpmath
from mpmath import mp

__all__ = ["FieldTower", "Scalar", "Eisenstein", "ONE", "OMEGA", "PrimeEmbedding", "RATIONALS",
           "inverse", "residue", "base_relation"]


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
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    elif g < 2:
        return (den,) + nums
    return (den // g,) + tuple(n // g for n in nums)


def _bone(D: int) -> tuple[int, ...]:
    return (1, 1) + (0,) * (D - 1)


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
        self.mul = self._kernel()

    def _kernel(self):
        """mul(a, b), the product of two elements, as one straight-line
        function written for this field: the 2D - 1 convolution sums, the
        fold of c^D, ..., c^(2D-2) with the reduction table's integers as
        literals, and the normal form of `_bnormalize` from one gcd call."""
        D = self.D

        def vec(v):
            return ", ".join(f"{v}{i}" for i in range(D))

        def conv(k):  # the coefficient of c^k in the unreduced product
            return " + ".join(f"x{i}*y{k - i}" for i in range(max(0, k - D + 1), min(k, D - 1) + 1))

        def fold(j):  # + r c^(D+i) for the nonzero entries r of column j of the table
            return "".join(f" {'-' if r < 0 else '+'} {'' if abs(r) == 1 else f'{abs(r)}*'}c{D + i}"
                           for i, r in enumerate(row[j] for row in self._red[:D - 1]) if r)

        src = ["def mul(a, b):", f"    den, {vec('x')} = a", f"    bd, {vec('y')} = b",
               "    den *= bd"]
        src += [f"    c{k} = {conv(k)}" for k in range(D, 2 * D - 1)]
        src += [f"    o{j} = {conv(j)}{fold(j)}" for j in range(D)]
        src += [f"    g = gcd(den, {vec('o')})", "    if den < 0:", "        g = -g",
                "    elif g < 2:", f"        return (den, {vec('o')})",
                f"    return (den // g, {', '.join(f'o{j} // g' for j in range(D))})"]
        scope = {"gcd": gcd}
        exec("\n".join(src), scope)
        return scope["mul"]

    def inv(self, a: tuple[int, ...]) -> tuple[int, ...]:
        """a^-1 = a_den * adj(M) e_1 / det(M), M multiplication by a's
        numerator (column j is the numerator times c^j): fraction-free
        (Bareiss) elimination with e_1 riding along as column D, then integer
        back-substitution (Cohen, GTM 138, 2.2 and 4.3)."""
        if _bis_zero(a):
            raise ZeroDivisionError("inverse of zero in base field")
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
        prev = 1
        for k in range(D - 1):
            if m[k][k] == 0:
                swap = next((i for i in range(k + 1, D) if m[i][k]), None)
                if swap is None:
                    raise ZeroDivisionError("element not invertible (degenerate tower)")
                m[k], m[swap] = m[swap], m[k]
            pivot_row = m[k]
            pivot = pivot_row[k]
            for row in m[k + 1:]:
                f = row[k]
                for j in range(k + 1, D + 1):
                    row[j] = (row[j] * pivot - f * pivot_row[j]) // prev
            prev = pivot
        # the last pivot is det(M') for M' = M with its rows swapped as above,
        # and x = det(M') M'^-1 e_1' is integral (Cramer): each division is exact
        det = m[-1][D - 1]
        if not det:
            raise ZeroDivisionError("element not invertible (degenerate tower)")
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
        # the unit `one()` returns on every call, and `Scalar.__mul__` skips
        self._one = Scalar(self, {0: (1, 1) + (0,) * (self.degree_base - 1)})

    # -- scalar constructors -------------------------------------------------

    def zero(self) -> Scalar:
        return Scalar(self, {})

    def one(self) -> Scalar:
        return self._one

    def from_fraction(self, q) -> Scalar:
        q = Fraction(q)
        if q == 0:
            return self.zero()
        return Scalar(self, {0: (q.denominator, q.numerator) + (0,) * (self.degree_base - 1)})

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

    def omega(self) -> Scalar:
        """omega = e^(2 pi i/3) = (-1 + i sqrt 3)/2, with the positive root of
        3; ValueError when the tower does not hold sqrt 3."""
        sqrt3 = _sqrt_in_tower(self, self.from_fraction(3).re[0])
        if sqrt3 is None:
            raise ValueError(f"{self!r} holds neither sqrt(3) nor omega")
        return (self.i_times(sqrt3) - 1) * Fraction(1, 2)

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
        """The inverse of `to_doc`.  ValueError names a mistyped field, or a
        radicand that is not a positive base-field element (denominator,
        then D coordinates)."""
        h, roots = doc.get("h"), doc.get("roots")
        if not (isinstance(h, int) and isinstance(roots, list) and all(
                isinstance(g, list) and all(isinstance(v, int) for v in g) for g in roots)):
            raise ValueError("a tower has an integer field 'h' and a list 'roots' of integer lists")
        base = cls(h)
        for g in roots:
            if len(g) != base.degree_base + 1:
                raise ValueError(f"radicand {g} must have {base.degree_base + 1} integers "
                                 f"at h = {h}: a denominator, then the coordinates")
            if not g[0]:
                raise ValueError(f"radicand {g} has a zero denominator")
            if not base.from_base([Fraction(v, g[0]) for v in g[1:]]).is_positive():
                raise ValueError(f"radicand {g} is not positive")
        return cls(h, tuple(tuple(g) for g in roots))


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

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def is_real(self) -> bool:
        return not self.im

    def imag(self) -> "Scalar":
        """The imaginary part, as a real scalar."""
        return Scalar(self.tower, self.im or {})

    # The operators test for a Scalar first: Fraction's metaclass is ABCMeta,
    # whose __instancecheck__ is slow.

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.tower.from_fraction(other)
        a, b = _coerce(self, other)
        return a.re == b.re and (a.im or {}) == (b.im or {})

    def __hash__(self):
        return hash((self.tower.fingerprint, tuple(sorted(self.re.items())),
                     tuple(sorted(self.im.items())) if self.im else None))

    # -- ring operations ------------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Scalar) and isinstance(other, (int, Fraction)):
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
        if not isinstance(other, Scalar) and isinstance(other, (int, Fraction)):
            q = Fraction(other)
            if q == 0:
                return self.tower.zero()
            re = {m: _bscale(b, q) for m, b in self.re.items()}
            im = {m: _bscale(b, q) for m, b in self.im.items()} if self.im else None
            return Scalar(self.tower, re, im)
        t = self.tower
        if other.tower is t and (self is t._one or other is t._one):
            return other if self is t._one else self
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
        if not isinstance(other, Scalar) and isinstance(other, (int, Fraction)):
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

    def reduce_mod(self, emb: "PrimeEmbedding") -> int:
        """Image under a prime embedding; raises ZeroDivisionError when p
        divides a denominator."""
        r = _dreduce(self.re, emb)
        if self.im:
            r = (r + emb.i_img * _dreduce(self.im, emb)) % emb.p
        return r

    # -- serialization ----------------------------------------------------------------------

    def to_coords(self) -> dict:
        doc = {"re": {str(m): list(b) for m, b in sorted(self.re.items())}}
        if self.im:
            doc["im"] = {str(m): list(b) for m, b in sorted(self.im.items())}
        return doc

    @classmethod
    def from_coords(cls, tower: FieldTower, doc: dict) -> "Scalar":
        """The inverse of `to_coords`; ValueError names a missing or mistyped field."""
        parts = []
        for key in ("re", "im"):
            part = doc.get(key, {}) if isinstance(doc, dict) else None
            if not isinstance(part, dict):
                raise ValueError(f"scalar field {key!r} must be a JSON object")
            for m, b in part.items():
                if not (m.isdigit() and int(m) >> len(tower.roots) == 0 and isinstance(b, list)
                        and len(b) == tower.degree_base + 1 and b[0]
                        and all(isinstance(v, int) for v in b)):
                    raise ValueError(f"scalar field {key!r}: mask {m!r} must map to "
                                     f"{tower.degree_base + 1} integers, the first nonzero")
            parts.append({int(m): tuple(b) for m, b in part.items() if any(b[1:])})
        return cls(tower, *parts)

    def __repr__(self):
        return f"Scalar({mpmath.nstr(self.value(80), 12)})"


# Q as a tower: the base field at h = 3 is Q, as 2cos(pi/3) = 1.
RATIONALS = FieldTower(3)


class Eisenstein:
    """An element (a + b omega) / d of Q(omega), omega = e^(2 pi i/3) =
    (-1 + i sqrt 3)/2, on Python ints: the coefficients of an algebra whose
    gauge invariants are cube roots of unity.

    Normal form: d > 0 and gcd(a, b, d) = 1, one gcd per result, so two
    elements are equal iff their triples are.  omega^2 = -1 - omega, so
    (a + b omega)(a' + b' omega) = (aa' - bb') + (ab' + a'b - bb') omega.
    The conjugate of a + b omega is (a - b) - b omega, and their product is
    the norm a^2 - ab + b^2, positive unless a = b = 0: the inverse divides
    the conjugate by it.  `inverse` and `reduce_mod` follow `Scalar`'s
    protocol, and Python ints mix in as the rationals they are.  `__mul__`
    returns the other factor when one is the shared unit `ONE`.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a: int, b: int = 0, d: int = 1):
        g = gcd(a, b, d)
        if d < 0:
            g = -g
        if g != 1:
            a, b, d = a // g, b // g, d // g
        self.a, self.b, self.d = a, b, d

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, other):
        if type(other) is Eisenstein:
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, int):
            return not self.b and self.d == 1 and self.a == other
        return NotImplemented

    def __hash__(self):
        return hash(self.a) if not self.b and self.d == 1 else hash((self.a, self.b, self.d))

    def __add__(self, other):
        if type(other) is not Eisenstein:
            if not isinstance(other, int):
                return NotImplemented
            return Eisenstein(self.a + other * self.d, self.b, self.d)
        d, e = self.d, other.d
        if d == e:
            return Eisenstein(self.a + other.a, self.b + other.b, d)
        return Eisenstein(self.a * e + other.a * d, self.b * e + other.b * d, d * e)

    __radd__ = __add__

    def __neg__(self):
        return Eisenstein(-self.a, -self.b, self.d)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not Eisenstein:
            if not isinstance(other, int):
                return NotImplemented
            return Eisenstein(self.a * other, self.b * other, self.d)
        if self is ONE or other is ONE:
            return other if self is ONE else self
        a, b, c, e = self.a, self.b, other.a, other.b
        be = b * e
        return Eisenstein(a * c - be, a * e + b * c - be, self.d * other.d)

    __rmul__ = __mul__

    def inverse(self) -> "Eisenstein":
        a, b = self.a, self.b
        norm = a * a - a * b + b * b
        if not norm:
            raise ZeroDivisionError("Q(omega) division by zero")
        return Eisenstein((a - b) * self.d, -b * self.d, norm)

    def reduce_mod(self, emb: "PrimeEmbedding") -> int:
        """Image under a prime embedding of a tower that holds omega, which
        maps omega as the tower's own omega (`PrimeEmbedding.omega_img`);
        raises ZeroDivisionError when p divides d."""
        p = emb.p
        if not self.d % p:
            raise ZeroDivisionError(f"denominator {self.d} vanishes mod {p}")
        return (self.a + self.b * emb.omega_img) * pow(self.d, -1, p) % p

    def __repr__(self):
        return f"Eisenstein({self.a}, {self.b}, {self.d})"


ONE = Eisenstein(1)  # Q(omega)'s shared unit, which `Eisenstein.__mul__` skips
OMEGA = Eisenstein(0, 1)


# The coefficients of an algebra over Q (`RATIONALS`) are Python's ints and
# Fractions; every other coefficient is a Scalar or an Eisenstein, which
# share the `inverse` and `reduce_mod` protocol.  These two functions are
# where the types part.  Fraction's isinstance is slow (its metaclass is
# ABCMeta), so its test is by type.

def inverse(x):
    """1/x for an int, a Fraction, a Scalar or an Eisenstein.  An int +-1 is
    its own inverse and any other int gives a Fraction, never a float."""
    if isinstance(x, int):
        return x if x in (1, -1) else Fraction(1, x)
    if type(x) is Fraction:
        return 1 / x
    return x.inverse()


def residue(x, emb: "PrimeEmbedding") -> int:
    """The image of an int, a Fraction, a Scalar or an Eisenstein under a
    prime embedding; raises ZeroDivisionError when p divides a denominator."""
    p = emb.p
    if isinstance(x, int):
        return x % p
    if type(x) is Fraction:
        if not x.denominator % p:
            raise ZeroDivisionError(f"denominator {x.denominator} vanishes mod {p}")
        return x.numerator * pow(x.denominator, -1, p) % p
    return x.reduce_mod(emb)


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
        v = _bmod(b, emb.c_img, p)
        i = 0
        while m:
            if m & 1:
                v = v * emb.root_imgs[i] % p
            m >>= 1
            i += 1
        acc = (acc + v) % p
    return acc


# ---------------------------------------------------------------------------
# split primes: the one mod-p scan behind the prime embeddings and the square test
# ---------------------------------------------------------------------------

def _bmod(b: tuple[int, ...], x: int, p: int) -> int:
    """The base-field element b at c = x, mod p, by Horner's rule; raises
    ZeroDivisionError when p divides its denominator."""
    den = b[0] % p
    if den == 0:
        raise ZeroDivisionError
    v = 0
    for n in reversed(b[1:]):
        v = (v * x + n) % p
    return v * pow(den, -1, p) % p


class _SplitPrimes:
    """The primes p = 1 mod 2h above 2^30, which split completely in Q(c),
    scanned lazily in increasing order; indexing and iteration extend the scan
    as far as they reach.  Entry k is (p, images): images holds
    zeta^j + zeta^-j mod p for j < h prime to 2h, the image of c at each of
    the D degree-1 primes of Q(c) above p; zeta = a^((p-1)/2h) for the first
    a < 500 with a^((p-1)/2) = -1, and p is passed over unless
    psi(zeta + 1/zeta) = 0 mod p."""

    def __init__(self, h: int):
        self.h = h
        self.psi = (1,) + coxeter_minpoly(h)
        self.js = [j for j in range(1, h) if gcd(j, 2 * h) == 1]
        self.found: list[tuple[int, tuple[int, ...]]] = []
        self.last = (1 << 30) - (1 << 30) % (2 * h) + 1

    def __getitem__(self, k: int) -> tuple[int, tuple[int, ...]]:
        while len(self.found) <= k:
            self.last = p = self.last + 2 * self.h
            if not _isprime(p):
                continue
            z = next((z for z in (pow(a, (p - 1) // (2 * self.h), p) for a in range(2, 500))
                      if pow(z, self.h, p) == p - 1), None)
            if z is None or _bmod(self.psi, (z + pow(z, -1, p)) % p, p):
                continue
            self.found.append((p, tuple((pow(z, j, p) + pow(z, -j, p)) % p for j in self.js)))
        return self.found[k]


_split_primes = lru_cache(maxsize=None)(_SplitPrimes)   # one scan per h, shared


class PrimeEmbedding:
    """A ring homomorphism from the tower into F_p.

    c maps to zeta + zeta^(-1) for the zeta of order 2h that the split-prime
    scan picks, each radicand must be a quadratic residue, and -1 must be one
    too (p = 1 mod 4), so that i has an image and complexified scalars reduce.
    """

    def __init__(self, tower: FieldTower, p: int, c_img: int, root_imgs: tuple[int, ...],
                 i_img: int):
        self.tower = tower
        self.p = p
        self.c_img = c_img
        self.root_imgs = root_imgs
        self.i_img = i_img

    @cached_property
    def omega_img(self) -> int:
        """The image of the tower's own omega (`FieldTower.omega`), so that
        an `Eisenstein` reduces as the same element written in the tower."""
        return self.tower.omega().reduce_mod(self)

    @classmethod
    def find(cls, tower: FieldTower, skip: int = 0) -> "PrimeEmbedding":
        """The (skip+1)-th prime of the split-prime scan for tower.h at which
        `_try_build` succeeds."""
        for p, images in _split_primes(tower.h):
            emb = cls._try_build(tower, p, images[0])
            if emb is not None:
                if not skip:
                    return emb
                skip -= 1

    @classmethod
    def _try_build(cls, tower: FieldTower, p: int, c_img: int) -> "PrimeEmbedding | None":
        """The embedding c -> c_img at the split prime p, or None when p = 3
        mod 4, or a radicand is a non-residue or has p in its denominator."""
        try:
            root_imgs = tuple(_sqrt_mod(_bmod(g, c_img, p), p) for g in tower.roots)
        except ZeroDivisionError:
            return None
        i_img = _sqrt_mod(p - 1, p)
        if None in root_imgs or i_img is None:
            return None
        return cls(tower, p, c_img, root_imgs, i_img)


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
    is a square in Q(c) for some subset S of the adjoined roots.  The root
    returned is positive: `_base_sqrt` gives the root positive at c, and
    each adjoined root is the positive one of a positive radicand.
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
        return out
    return None


def base_relation(h: int, value, prec: int) -> tuple[int, ...] | None:
    """A nonzero real `value` as an element of Q(c), read off an integer relation
    a_0 value + a_1 + a_2 c + ... + a_D c^(D-1) = 0 that PSLQ (Ferguson,
    Bailey and Arno, Math. Comp. 68, 1999) finds at `prec` bits: the
    normalised base tuple of -(a_1 + ... + a_D c^(D-1)) / a_0, or None when
    there is no relation with a_0 != 0.  The relation holds to about
    0.75 prec bits only, which determines D + 1 coefficients of up to
    0.75 prec / (D + 1) bits each; PSLQ gives up beyond that bound rather
    than return a spurious relation.  The caller certifies what it gets."""
    D = _base_field(h).D
    with mpmath.workprec(prec):
        c, _ = FieldTower(h).numeric(prec)
        vec = [value] + [c ** i for i in range(D)]
        rel = mpmath.pslq(vec, maxcoeff=2 ** (3 * prec // (4 * (D + 1))), maxsteps=200000)
    if not rel or not rel[0]:
        return None
    return _bnormalize(rel[0], tuple(-a for a in rel[1:]))


@lru_cache(maxsize=None)
def _conjugates(h: int, prec: int) -> tuple[tuple, tuple[tuple[int, ...], ...]]:
    """(taus, W) at `prec` bits: taus the real conjugates tau_j(c) = 2cos(j pi/h)
    for the j of the split-prime scan, and W the inverse of V_jk = tau_j(c)^k
    in fixed point, W[j][k] = V^-1_kj 2^prec, so that row j is column j of V^-1."""
    js = _split_primes(h).js
    with mpmath.workprec(prec):
        taus = tuple(2 * mpmath.cos(j * mp.pi / h) for j in js)
        inv = mpmath.inverse(mpmath.matrix([[t ** k for k in range(len(js))] for t in taus]))
        W = tuple(tuple(int(mpmath.ldexp(inv[k, j], prec)) for k in range(len(js)))
                  for j in range(len(js)))
    return taus, W


def _root_conjugates(h: int, G: tuple[int, ...], prec: int) -> list | None:
    """sqrt(tau_j(G)) for each real conjugate of G in Z[c] (denominator 1), at
    `prec` bits; None when a conjugate is not positive, as no square's is."""
    taus, _ = _conjugates(h, prec)
    with mpmath.workprec(prec):
        vals = [_beval(G, t, mp.mpf(0)) for t in taus]
        if min(vals) <= 0:
            return None
        return [mpmath.sqrt(v) for v in vals]


def _conjugate_sqrt(h: int, g: tuple[int, ...], prec: int) -> tuple[int, ...] | None:
    """The root of g in Q(c) that is positive at c, read off the real
    conjugates of g at `prec` bits, or None when no candidate squares back.

    G = den^2 g lies in Z[c], the ring of integers of the real subfield of
    Q(zeta_2h) (Washington, Prop. 2.16), so a square root of G is integral:
    its coordinates x are integers with V x = (e_j a_j), a_j = sqrt(tau_j(G))
    and signs e_j = +-1, and sqrt(g) = x / den.  e_1 = +1 at j = 1, acy's
    embedding, as -x has the opposite signs; the other 2^(D-1) sign
    patterns are walked in Gray code, one fixed-point column of V^-1 per
    step.  Each pattern's coordinates are rounded, and the candidate is a
    root only if it squares back to g exactly.  Rounding can still land on
    the negative root when the root is small at c, so its sign is then
    certified (`Scalar.is_positive`)."""
    den = g[0]
    roots = _root_conjugates(h, (1,) + tuple(den * n for n in g[1:]), prec)
    if roots is None:
        return None
    _, W = _conjugates(h, prec)
    with mpmath.workprec(prec):
        cols = [[int(a * w) for w in row] for a, row in zip(roots, W)]   # a_j V^-1[:, j] 2^prec
    x = [sum(col) for col in zip(*cols)]
    sign = [1] * len(cols)
    half = 1 << (prec - 1)
    mul = _base_field(h).mul
    for step in range(1 << (len(cols) - 1)):
        if step:   # flip the sign of conjugate j, by the Gray code of step
            j = (step & -step).bit_length()
            x = [v - 2 * sign[j] * w for v, w in zip(x, cols[j])]
            sign[j] = -sign[j]
        b = _bnormalize(den, tuple((v + half) >> prec for v in x))
        if mul(b, b) == g:
            return b if Scalar(FieldTower(h), {0: b}).is_positive() else _bneg(b)
    return None


def _base_sqrt(h: int, g: tuple[int, ...]) -> tuple[int, ...] | None:
    """The exact sqrt of a positive g in Q(c) that is positive at c, if g is a
    square there, else None.

    Both answers are certain.  A quadratic non-residue of g at a degree-1
    prime of Q(c) proves that g is not a square; a root read off the real
    conjugates of g (`_conjugate_sqrt`) that squares back to g proves that it
    is.  The split primes supply D degree-1 primes each, and Q(c) is the whole
    real subfield of Q(zeta_2h), so a positive non-square is a non-residue at
    half of them (Chebotarev; Adleman's quadratic characters).  The two sides
    alternate: 16 primes, then the conjugates at 400, 800, 1600 and 3200
    bits; past that, ArithmeticError.
    """
    g = _bnormalize(g[0], g[1:])
    if _bis_zero(g):
        return g
    primes = _split_primes(h)
    for round_, prec in enumerate((400, 800, 1600, 3200)):
        for k in range(16 * round_, 16 * round_ + 16):
            p, images = primes[k]
            if g[0] % p == 0:
                continue
            if any(pow(_bmod(g, x, p), (p - 1) // 2, p) == p - 1 for x in images):
                return None
        hit = _conjugate_sqrt(h, g, prec)
        if hit is not None:
            return hit
    raise ArithmeticError(f"undecided whether {g} is a square at h={h}")
