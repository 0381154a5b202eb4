import mpmath

from acy.solver import _least_squares

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
