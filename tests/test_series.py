import functools
from fractions import Fraction

import pytest

from acy.quiver import GraphError, build_family, parse_graph_spec
from acy.series import _mobius, euler_characteristic_hc, hilbert_closed_form
from conftest import det_hilbert, log_series, poly, poly_det, rational, same_ratio, taylor


def test_hilbert_a4():
    g = build_family("A", 4)
    H = hilbert_closed_form(g)
    totals = [sum(sum(r) for r in Hk) for Hk in H]
    assert totals[:4] == [3, 3, 0, 0]
    n = len(g.vertices)
    assert H[0] == [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert H[1] == g.adjacency()


def test_hilbert_nonnegative_window():
    for spec in ("A6", "E8*", "D9"):
        g = parse_graph_spec(spec)
        H = hilbert_closed_form(g)
        for k in range(g.h - 2, g.h):
            assert all(x == 0 for row in H[k] for x in row), (spec, k)
        for k in range(g.h - 2):
            assert all(x >= 0 for row in H[k] for x in row)


def test_bareiss_determinant():
    one, t, zero, two = poly([1]), poly([0, 1]), poly([]), poly([2])
    assert poly_det([[one, t], [t, one]]) == poly([1, 0, -1])
    M3 = [[two, t, zero],
          [t, two, t],
          [zero, t, two]]
    want = poly([8, 0, -4])  # 2(4-t^2) - 2t^2
    assert poly_det(M3) == want


def test_det_closed_forms():
    assert same_ratio(det_hilbert("A4"), rational([6], [3]))
    assert same_ratio(det_hilbert("E8*"), rational([2, 4, 8, 8], [1, 1]))
    # conjugate families via the recursion-derived closed forms
    for m in (2, 3, 4, 5):
        even = det_hilbert(f"A{2 * m + 2}*")
        want_even = rational([2] + [2 * m + 2] * (m - 1), [1] * m)
        assert same_ratio(even, want_even), f"A({2 * m + 2})*"
        odd = det_hilbert(f"A{2 * m + 1}*")
        want_odd = rational([2 * m + 1] * (m - 1), [1] * (m - 1))
        assert same_ratio(odd, want_odd), f"A({2 * m + 1})*"


def test_det_astar_denominator_recursion():
    # D_m = T1 D_(m-1) - T2^2 D_(m-2) with T1 = 1-t+t^2-t^3, T2 = t^2-t
    T1 = poly([1, -1, 1, -1])
    T2 = poly([0, -1, 1])

    def den_det(m):
        return det_hilbert(f"A{2 * m + 2}*")[1]

    d1, d2 = T1, T1 * T1 - T2 * T2
    assert den_det(2) == d2  # A(6)* is the smallest buildable even case
    for m in (3, 4, 5):
        d1, d2 = d2, T1 * d2 - T2 * T2 * d1
        assert den_det(m) == d2, m


def test_det_d_families():
    # D(6k): (1-t^6k)^(2(3k(k-1)+2)) (1-t^3k) / (1-t^3)^3, k = 1, 2
    for k in (1, 2):
        got = det_hilbert(f"D{6 * k}")
        want = rational([6 * k] * (2 * (3 * k * (k - 1) + 2)) + [3 * k], [3, 3, 3])
        assert same_ratio(got, want), f"D{6 * k}"
    # D(6k+3): (1-t^(6k+3))^(6k^2+3) / (1-t^3)^3
    for k in (1, 2):
        got = det_hilbert(f"D{6 * k + 3}")
        want = rational([6 * k + 3] * (6 * k * k + 3), [3, 3, 3])
        assert same_ratio(got, want), f"D{6 * k + 3}"
    # D(6k)*: (1-t^6)(1-t^6k)^(9k-6) / (1-t^3)^(3k-1)
    for k in (1, 2):
        got = det_hilbert(f"D{6 * k}*")
        want = rational([6] + [6 * k] * (9 * k - 6), [3] * (3 * k - 1))
        assert same_ratio(got, want), f"D{6 * k}*"
    # D(6k+3)*: (1-t^(6k+3))^(9k) / (1-t^3)^(3k)
    for k in (1, 2):
        got = det_hilbert(f"D{6 * k + 3}*")
        want = rational([6 * k + 3] * (9 * k), [3] * (3 * k))
        assert same_ratio(got, want), f"D{6 * k + 3}*"


def test_det_e8_is_e8star_cubed():
    d8 = det_hilbert("E8")
    ds = det_hilbert("E8*")
    t = poly([0, 1])
    assert same_ratio(d8, tuple(p.compose(t, t ** 3) for p in ds))


def test_series_log():
    # log(1/(1-t)) = sum t^k / k, from the Taylor expansion of 1/(1-t) to t^8
    lg = log_series(poly(taylor({0: 1}, 1, 8)), 8)
    assert lg[1:] == [Fraction(1, k) for k in range(1, 9)]


def test_euler_a_family():
    # A4: the product identity pairs degree 3 with 9 = 3h - 3 (HC_8 lives
    # in degree 9), giving (t^3 + t^9)/(1 - t^12)
    N = 48
    assert euler_characteristic_hc(build_family("A", 4), N) == \
        taylor({3: 1, 9: 1}, 12, N)
    N = 60
    assert euler_characteristic_hc(build_family("A", 5), N) == \
        taylor({3: 1, 6: 1, 9: 1, 12: 1}, 15, N)
    N = 72
    assert euler_characteristic_hc(build_family("A", 6), N) == \
        taylor({3: 1, 15: 1, 18: -2}, 18, N)
    N = 84
    assert euler_characteristic_hc(build_family("A", 7), N) == \
        taylor({3: 1, 6: 1, 9: 1, 12: 1, 15: 1, 18: 1, 21: -2}, 21, N)


def test_euler_e8_families():
    N = 32
    assert euler_characteristic_hc(build_family("E8*"), N) == \
        taylor({1: 2, 2: 1, 3: 2, 5: 2, 6: 1, 7: 2, 8: -2}, 8, N)
    N = 96
    assert euler_characteristic_hc(build_family("E8"), N) == \
        taylor({3: 2, 6: 1, 9: 2, 15: 2, 18: 1, 21: 2, 24: -2}, 24, N)


def test_euler_d_and_dstar():
    N = 36
    assert euler_characteristic_hc(build_family("D", 9), N) == \
        taylor({3: 3, 6: 3, 9: -6}, 9, N)
    # D(12) = D(6k), k=2: sum 3t^(3j) (j=1..3) - t^(3k) - 14t^(6k)
    got = euler_characteristic_hc(build_family("D", 12), 48)
    want = taylor({3: 3, 6: 2, 9: 3, 12: -14}, 12, 48)
    assert got == want
    # D(6) = D(6k), k=1: (2t^3 - 2t^6)/(1-t^6)
    assert euler_characteristic_hc(build_family("D", 6), 24) == \
        taylor({3: 2, 6: -2}, 6, 24)
    # D(6)*: k=1: (2t^3 - 2t^6)/(1-t^6)
    assert euler_characteristic_hc(build_family("D*", 6), 24) == \
        taylor({3: 2, 6: -2}, 6, 24)
    # D(9)*: k=1: (3t^3 + 3t^6 - 6t^9)/(1-t^9)
    assert euler_characteristic_hc(build_family("D*", 9), 36) == \
        taylor({3: 3, 6: 3, 9: -6}, 9, 36)


def test_euler_astar():
    # even n = 2m+2: (mt + (m-1)t^2 + mt^3 + ... + (m-1)t^2m + mt^(2m+1))/(1-t^(2m+2))
    for m in (2, 3):
        coeffs = {}
        for j in range(1, 2 * m + 2):
            coeffs[j] = m if j % 2 == 1 else m - 1
        got = euler_characteristic_hc(build_family("A*", 2 * m + 2), 4 * (2 * m + 2))
        assert got == taylor(coeffs, 2 * m + 2, 4 * (2 * m + 2)), m
    # odd n = 2m+1: (m-1)(t + ... + t^2m)/(1-t^(2m+1))
    for m in (2, 3, 4):
        coeffs = {j: m - 1 for j in range(1, 2 * m + 1)}
        got = euler_characteristic_hc(build_family("A*", 2 * m + 1), 4 * (2 * m + 1))
        assert got == taylor(coeffs, 2 * m + 1, 4 * (2 * m + 1)), m


def test_rational_function_equality():
    a = rational([6], [3])
    b = (poly([1, 0, 0, 1]), poly([1]))  # 1 + t^3
    assert same_ratio(a, b)


EQUIVALENCE_GRAPHS = ("A4", "A5", "A6", "A7", "A8", "A9", "D6", "D9", "D12",
                      "E8", "E8*", "A5*", "A7*", "D5*")


def euler_by_expanded_determinant(g, N: int) -> list[int]:
    """chi from the expanded det H_A: L = sum_s log det H_A(t^s), where
    log of num(t^s) and den(t^s) is log num and log den at t^s, then Moebius
    inversion of r L_r."""
    num, den = det_hilbert(g.name)
    lg = [a - b for a, b in zip(log_series(num, N), log_series(den, N))]
    L = [Fraction(0)] * (N + 1)
    for s in range(1, N + 1):
        for k in range(1, N // s + 1):
            L[k * s] += lg[k]
    a = [0] * (N + 1)
    for r in range(1, N + 1):
        acc = sum(_mobius(r // d) * d * L[d] for d in range(1, r + 1) if r % d == 0)
        assert acc.denominator == 1 and acc.numerator % r == 0
        a[r] = acc.numerator // r
    return a


def hilbert_by_dense_recurrence(g, N: int) -> list[list[list[int]]]:
    """H^k = D H^(k-1) - D^T H^(k-2) + H^(k-3) - delta(k, h) P, dense."""
    n = len(g.vertices)
    D = g.adjacency()
    P = [[int(g.nu_v[v] == w) for w in g.vertices] for v in g.vertices]

    def mm(X, Y):
        return [[sum(X[i][t] * Y[t][j] for t in range(n)) for j in range(n)]
                for i in range(n)]

    out = []
    for k in range(N + 1):
        H = [[int(i == j) if k == 0 else 0 for j in range(n)] for i in range(n)]
        terms = []
        if k >= 1:
            terms.append((1, mm(D, out[k - 1])))
        if k >= 2:
            terms.append((-1, mm([list(r) for r in zip(*D)], out[k - 2])))
        if k >= 3:
            terms.append((1, out[k - 3]))
        if k == g.h:
            terms.append((-1, P))
        for sgn, X in terms:
            H = [[a + sgn * b for a, b in zip(ra, rb)] for ra, rb in zip(H, X)]
        out.append(H)
    return out


@functools.lru_cache(maxsize=None)
def graph(spec: str):
    return parse_graph_spec(spec)


def test_euler_matches_the_expanded_determinant():
    # at 7h, every trace tr(H_A' M P^j), j = n mod 3, is read twice; A7 and
    # D7* have a nontrivial nu, so the three traces differ
    cases = [(spec, 4) for spec in EQUIVALENCE_GRAPHS] + [("A7", 7), ("D7*", 7)]
    for spec, periods in cases:
        g = graph(spec)
        N = periods * g.h
        assert euler_characteristic_hc(g, N) == euler_by_expanded_determinant(g, N), (spec, N)


def test_hilbert_matches_the_dense_recurrence():
    for spec in EQUIVALENCE_GRAPHS:
        g = graph(spec)
        dense = hilbert_by_dense_recurrence(g, 2 * g.h)
        assert hilbert_closed_form(g) == dense[:g.h + 1], spec
        # the closed form is a polynomial of degree h - 3
        assert all(x == 0 for Hk in dense[g.h - 2:] for row in Hk for x in row), spec


def test_a_wrong_h_makes_the_closed_form_no_polynomial():
    # A4 with h = 5: the P t^h term comes one degree late, so H^4 = H^1
    g = build_family("A", 4)
    g.h += 1
    with pytest.raises(GraphError, match="not a polynomial"):
        hilbert_closed_form(g)
