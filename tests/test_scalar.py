import random
from fractions import Fraction

import mpmath
import pytest

from acy.scalar import (FieldTower, PrimeEmbedding, Scalar, _base_field, _base_sqrt,
                        _factor_is_square, _isprime, _sqrt_mod, coxeter_minpoly)


def test_quantum_examples():
    assert FieldTower(5).quantum(1) == 1
    assert FieldTower(4).quantum(3) == 1
    # [2] at h=6 is sqrt(3): minimal polynomial x^2 - 3
    assert coxeter_minpoly(6) == (-3, 0, 1)
    c = FieldTower(6).quantum(2)
    assert c * c == 3
    with mpmath.workprec(120):
        v = c.value(120)
        assert abs(v - 2 * mpmath.cos(mpmath.pi / 6)) < mpmath.mpf(10) ** -30


def test_quantum_range_errors():
    with pytest.raises(ValueError):
        FieldTower(5).quantum(-1)
    with pytest.raises(ValueError):
        FieldTower(5).quantum(10)
    with pytest.raises(ValueError):
        coxeter_minpoly(2)


def test_product_rule_exact():
    # [2][n] = [n-1] + [n+1] for 1 <= n <= h-1, exactly
    for h in (4, 5, 6, 7, 8, 9, 12):
        t = FieldTower(h)
        two = t.quantum(2)
        for n in range(1, h):
            assert two * t.quantum(n) == t.quantum(n - 1) + t.quantum(n + 1)


def test_arith_identities():
    t = FieldTower(4)
    two = t.quantum(2)
    assert two * two == 2          # (sqrt 2)^2
    x = t.quantum(3) + t.generator() * Fraction(5, 3)
    assert x * t.one() == x
    with pytest.raises(ZeroDivisionError):
        x / t.zero()
    with pytest.raises(ValueError):
        x + FieldTower(5).one()


def test_normal_form_random():
    rng = random.Random(7)
    t, r3 = FieldTower(8).adjoin_sqrt(FieldTower(8).quantum(3))

    def rand_scalar():
        out = t.zero()
        for mask in (0, 1):
            coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(4)]
            out = out + Scalar(t, {mask: (1,)}) * 0 + t.from_base(coeffs) * (r3 if mask else 1)
        return out

    for _ in range(1000):
        a, b, c = rand_scalar(), rand_scalar(), rand_scalar()
        assert (a + b) * c == a * c + b * c
        assert (a - b) * c == a * c - b * c
        if not c.is_zero():
            assert (a * c) / c == a


def test_embed_real():
    t = FieldTower(6)
    three = t.quantum(3)   # equals 2 exactly
    box = three.embed_real(5)
    assert box.a <= 2 <= box.b and mpmath.mpf(box.delta.b) <= mpmath.mpf(10) ** -5
    zero_box = t.zero().embed_real(10)
    assert zero_box.a <= 0 <= zero_box.b
    v = FieldTower(12).quantum(2).embed_real(12)
    assert abs(mpmath.mpf(v.a) - 1.9318516525781366) < 1e-10


def test_is_zero_and_interval_consistency():
    t = FieldTower(7)
    x = t.quantum(2) * t.quantum(4) - t.quantum(3) - t.quantum(5)  # product rule: zero
    assert x.is_zero()
    for digits in (5, 15, 30):
        box = x.embed_real(digits)
        assert box.a <= 0 <= box.b


def test_adjoin_sqrt():
    t8 = FieldTower(8)
    t2, r3 = t8.adjoin_sqrt(t8.quantum(3))
    assert r3 * r3 == t8.quantum(3).lift(t2)
    # idempotent: same tower back
    t3, r3b = t2.adjoin_sqrt(t8.quantum(3))
    assert t3 is t2 and r3b == r3
    t4, one = t2.adjoin_sqrt(t2.one())
    assert t4 is t2 and one == 1
    # sqrt of [2] at h=4: generator of a degree-4 tower with g^4 = 2
    ta = FieldTower(4)
    tb, g = ta.adjoin_sqrt(ta.quantum(2))
    assert g ** 4 == 2 and tb.degree == 4
    with pytest.raises(ValueError):
        ta.adjoin_sqrt(-ta.one())
    with pytest.raises(ValueError):
        ta.adjoin_sqrt(ta.zero())
    # already-square products fold instead of growing the tower
    t5, r6 = t2.adjoin_sqrt(t8.quantum(3) * 4)
    assert t5 is t2 and r6 == r3 * 2


def test_inverse_with_roots_and_complex():
    t8 = FieldTower(8)
    t, r3 = t8.adjoin_sqrt(t8.quantum(3))
    x = r3 + t.quantum(2) - Fraction(1, 3)
    assert x * x.inverse() == 1
    z = t.i_times(r3) + t.quantum(4)
    assert (z * z.inverse()) == 1
    assert z.conjugate().conjugate() == z
    assert (z * z.conjugate()).is_real()


def test_prime_embedding_is_homomorphism():
    t8 = FieldTower(8)
    t, r3 = t8.adjoin_sqrt(t8.quantum(3))
    emb = PrimeEmbedding.find(t)
    a = r3 + t.quantum(2)
    b = t.quantum(3) - r3 * Fraction(2, 5)
    pa, pb = a.reduce_mod(emb), b.reduce_mod(emb)
    assert (a * b).reduce_mod(emb) == pa * pb % emb.p
    assert (a + b).reduce_mod(emb) == (pa + pb) % emb.p
    z = t.i_times(t.one())
    assert (z * z).reduce_mod(emb) == emb.p - 1


def test_serialization_round_trip():
    t8 = FieldTower(8)
    t, r3 = t8.adjoin_sqrt(t8.quantum(3))
    x = r3 * Fraction(3, 7) + t.quantum(4) + t.i_times(r3 - 1)
    doc = x.to_coords()
    back = Scalar.from_coords(FieldTower.from_doc(t.to_doc()), doc)
    assert back == x


# -- the integer routes against sympy, used here only as an oracle ------------------

def test_coxeter_minpoly_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for h in range(3, 61):
        ref = sympy.Poly(sympy.minimal_polynomial(2 * sympy.cos(sympy.pi / h), x), x)
        assert coxeter_minpoly(h) == tuple(int(c) for c in reversed(ref.all_coeffs())), h


def test_isprime_matches_sympy():
    sympy = pytest.importorskip("sympy")
    for lo, hi in ((2, 5000), (2 ** 30, 2 ** 30 + 20000)):
        assert [n for n in range(lo, hi) if _isprime(n)] == \
            [n for n in range(lo, hi) if sympy.isprime(n)]
    with pytest.raises(ValueError):
        _isprime(43 ** 16)  # no factor <= 41, beyond the exact range


def test_sqrt_mod_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(11)
    primes = [3, 5, 7, 13, 17, 97, 257, 65537, 1073741953, 1073742113]
    for p in primes:
        assert sympy.isprime(p)
        for a in [0, 1, p - 1] + [rng.randrange(p) for _ in range(60)]:
            assert _sqrt_mod(a, p) == sympy.sqrt_mod(a, p), (a, p)


def test_base_sqrt_matches_the_factor_route():
    # the norm, mod-p and PSLQ filters decide these without sympy; their
    # decisions must be the ones the complete factorization gives
    for h in (5, 7, 8, 9, 12):
        t = FieldTower(h)
        c = t.generator()
        cands = [t.from_fraction(a) + c * b for a in (1, 2, 3) for b in (-1, 0, 1)]
        cands += [y * y * k for y in (t.one() + c, 2 - c, t.quantum(3)) for k in (1, 3)]
        for x in cands:
            g = x.re[0]
            root = _base_sqrt(h, g)
            assert (root is not None) == _factor_is_square(h, g), (h, g)
            if root is not None:
                assert _base_field(h).mul(root, root) == g


def test_norm_filter_refutes_sqrt3_at_h9():
    # 3 is a residue at every prime p = 1 mod 36 that the mod-p filter uses;
    # N(3) = 27 is not a rational square, which settles it
    base = _base_field(9)
    three = FieldTower(9).from_fraction(3).re[0]
    assert base.norm(three) == 27
    assert _base_sqrt(9, three) is None
