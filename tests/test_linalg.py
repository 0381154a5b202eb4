"""Properties of the sparse elimination in `acy.linalg`, over towers with
0-2 adjoined roots (real and complex entries), over Q in ints and Fractions,
over Q(omega) in `Eisenstein`s, and over F_p; and of the integer kernel."""

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acy.linalg import Eliminator, axpy, integer_kernel, invert_dense, nullspace, rank
from acy.scalar import RATIONALS, Eisenstein, FieldTower, PrimeEmbedding, Scalar

PROPS = settings(deadline=None, max_examples=40)
TOWERS = ("h7", "h8", "h8i", "h5")
NATIVE_Q = ("Q", "Qw")
PRIMES = (2, 7, 1000003)


@lru_cache(maxsize=None)
def _tower(name):
    if name == "h7":
        return FieldTower(7)
    if name.startswith("h8"):
        t = FieldTower(8)
        return t.adjoin_sqrt(t.quantum(3))[0]
    t = FieldTower(5)
    t = t.adjoin_sqrt(t.from_fraction(2))[0]
    return t.adjoin_sqrt(FieldTower(5).from_fraction(3))[0]


def _entries(ring):
    """Nonzero entries: tower scalars with small integer coordinates, complex
    for 'h8i', ints in [1, p), for 'Q' ints and Fractions, or for 'Qw'
    Eisensteins, most of them not +-1, so that pivots have non-unit
    inverses."""
    if isinstance(ring, int):
        return st.integers(1, ring - 1)
    if ring == "Q":
        return st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=6)).filter(bool)
    if ring == "Qw":
        return st.builds(Eisenstein, st.integers(-6, 6), st.integers(-6, 6),
                         st.integers(1, 6)).filter(bool)
    t = _tower(ring)

    @st.composite
    def scalar(draw):
        def part():
            out = {}
            for mask in range(1 << len(t.roots)):
                if draw(st.booleans()):
                    b = t.from_base(draw(st.lists(st.integers(-3, 3), min_size=t.degree_base,
                                                  max_size=t.degree_base))).re.get(0)
                    if b is not None:
                        out[mask] = b
            return out

        return Scalar(t, part(), part() if ring == "h8i" else None)

    return scalar().filter(lambda x: not x.is_zero())


def _p(ring):
    return ring if isinstance(ring, int) else 0


@st.composite
def matrices(draw, ring):
    """(number of columns, sparse rows); some rows are combinations of
    others, so ranks below full occur."""
    ncols = draw(st.integers(1, 6))
    entry = _entries(ring)
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        cols = draw(st.lists(st.integers(0, ncols - 1), max_size=ncols, unique=True))
        rows.append({j: draw(entry) for j in cols})
    for _ in range(draw(st.integers(0, 3)) if rows else 0):
        comb: dict = {}
        for row in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
            axpy(comb, row.items(), draw(entry), _p(ring))
        rows.append(comb)
    return ncols, draw(st.permutations(rows))


def _transpose(rows, ncols):
    out = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, x in row.items():
            out[j][i] = x
    return out


def _rank(rows, ring):
    return rank(rows, ring) if isinstance(ring, int) else rank(rows)


def _one(ring):
    if isinstance(ring, int) or ring == "Q":
        return 1
    return Eisenstein(1) if ring == "Qw" else _tower(ring).one()


def _rings(*kinds):
    return [pytest.param(r, id=r if isinstance(r, str) else f"F{r}")
            for kind in kinds for r in kind]


@pytest.mark.parametrize("ring", _rings(TOWERS, NATIVE_Q, PRIMES))
@PROPS
@given(data=st.data())
def test_rank_of_transpose_and_of_shuffled_rows(ring, data):
    ncols, rows = data.draw(matrices(ring))
    r = _rank(rows, ring)
    assert r <= min(len(rows), ncols)
    assert _rank(_transpose(rows, ncols), ring) == r
    assert _rank(data.draw(st.permutations(rows)), ring) == r


@pytest.mark.parametrize("ring", _rings(TOWERS))
@PROPS
@given(data=st.data())
def test_rank_mod_p_is_at_most_the_exact_rank(ring, data):
    # the premise of every modular certificate
    _, rows = data.draw(matrices(ring))
    emb = PrimeEmbedding.find(_tower(ring))
    images = [{j: x.reduce_mod(emb) for j, x in row.items()} for row in rows]
    assert all(x is not None for row in images for x in row.values())
    images = [{j: x for j, x in row.items() if x} for row in images]
    assert rank(images, emb.p) <= rank(rows)


@pytest.mark.parametrize("ring", _rings(TOWERS, NATIVE_Q, PRIMES))
@PROPS
@given(data=st.data())
def test_reduced_form_is_unique_and_spans_the_rows(ring, data):
    _, rows = data.draw(matrices(ring))
    forms = []
    for order in (rows, data.draw(st.permutations(rows))):
        e = Eliminator(_p(ring))
        for row in order:
            e.add(row)
        forms.append(e.reduced())
    red = forms[0]
    assert forms[1] == red and len(red) == _rank(rows, ring)
    for lead, row in red.items():
        assert min(row) == lead and row[lead] == 1
        assert not any(lead in other for other_lead, other in red.items() if other_lead != lead)
    # the rows of the reduced form are independent and span every input row
    span = Eliminator(_p(ring))
    for row in red.values():
        span.add(row)
    assert span.rank == len(red)
    for row in rows:
        span.add(row)
    assert span.rank == len(red)


def _apply(cols, x):
    """The column-wise matrix times the vector x = {column: value}."""
    out: dict = {}
    for j, c in x.items():
        axpy(out, cols[j].items(), c)
    return out


@pytest.mark.parametrize("ring", _rings(TOWERS, NATIVE_Q))
@PROPS
@given(data=st.data())
def test_nullspace_is_annihilated_and_complements_the_rank(ring, data):
    ncols, rows = data.draw(matrices(ring))
    cols = _transpose(rows, ncols)
    kernel = nullspace(cols, _one(ring))
    assert all(_apply(cols, k) == {} for k in kernel)
    assert len(kernel) + rank(cols) == len(cols)
    # one vector per column that depends on the ones before, with 1 there
    free = [max(k) for k in kernel]
    assert free == sorted(set(free)) and all(k[max(k)] == 1 for k in kernel)


@pytest.mark.parametrize("ring", _rings(TOWERS, NATIVE_Q))
@PROPS
@given(data=st.data())
def test_invert_dense_gives_the_two_sided_inverse(ring, data):
    n = data.draw(st.integers(1, 4))
    entry = _entries(ring)
    cols = [{i: data.draw(entry) for i in data.draw(st.lists(st.integers(0, n - 1),
                                                             unique=True))}
            for _ in range(n)]
    if rank(cols) < n:
        with pytest.raises(ValueError):
            invert_dense(cols, n, _one(ring))
        return
    inv = invert_dense(cols, n, _one(ring))
    one = _one(ring)
    for j in range(n):
        assert _apply(cols, inv[j]) == {j: one}       # M . M^-1 = I
        assert _apply(inv, cols[j]) == {j: one}       # M^-1 . M = I


def _as_scalars(vectors):
    return [{j: RATIONALS.from_fraction(x) for j, x in v.items()} for v in vectors]


def _rational(vectors) -> bool:
    """Every value is an int or a Fraction: no float, no Scalar."""
    return all(type(x) in (int, Fraction) for v in vectors for x in v.values())


@PROPS
@given(data=st.data())
def test_elimination_over_q_in_ints_and_fractions_agrees_with_rational_scalars(data):
    ncols, rows = data.draw(matrices("Q"))
    scalars = _as_scalars(rows)
    assert rank(rows) == rank(scalars)
    native, tower = Eliminator(), Eliminator()
    for row, srow in zip(rows, scalars):
        native.add(row)
        tower.add(srow)
    red = native.reduced()
    assert red == tower.reduced() and _rational(red.values())
    cols = _transpose(rows, ncols)
    kernel = nullspace(cols, 1)
    assert kernel == nullspace(_as_scalars(cols), RATIONALS.one()) and _rational(kernel)
    n = data.draw(st.integers(1, 4))
    square = [{i: data.draw(_entries("Q"))
               for i in data.draw(st.lists(st.integers(0, n - 1), unique=True))}
              for _ in range(n)]
    try:
        inv = invert_dense(square, n, 1)
    except ValueError:
        with pytest.raises(ValueError):
            invert_dense(_as_scalars(square), n, RATIONALS.one())
        return
    assert inv == invert_dense(_as_scalars(square), n, RATIONALS.one()) and _rational(inv)


# -- the integer kernel ----------------------------------------------------------------

def _det(rows):
    """The determinant of a square integer matrix, by elimination over Q."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for i in range(len(m)):
        piv = next((r for r in range(i, len(m)) if m[r][i]), None)
        if piv is None:
            return 0
        if piv != i:
            m[i], m[piv] = m[piv], m[i]
            det = -det
        det *= m[i][i]
        for r in range(i + 1, len(m)):
            f = m[r][i] / m[i][i]
            m[r] = [x - f * y for x, y in zip(m[r], m[i])]
    return int(det)


def _saturated(basis, m) -> bool:
    """True if the k vectors span a saturated sublattice of Z^m, that is one
    with a torsion-free quotient: the gcd of their k x k minors is 1."""
    rows = [[n.get(i, 0) for i in range(m)] for n in basis]
    g = 0
    for cols in combinations(range(m), len(rows)):
        g = gcd(g, _det([[row[c] for c in cols] for row in rows]))
    return g == 1


def _relation(vectors, n) -> dict:
    out: dict = {}
    for i, k in n.items():
        axpy(out, vectors[i].items(), k)
    return out


def test_integer_kernel_spans_the_lattice_a_cleared_q_basis_misses():
    # 2 n_0 + n_1 + n_2 = 0: the Q-basis (-1/2, 1, 0), (-1/2, 0, 1) cleared of
    # denominators spans only the relations with n_1 and n_2 even, a
    # sublattice of index 2 that misses (0, 1, -1)
    vectors = [{0: 2}, {0: 1}, {0: 1}]
    cleared = [{i: int(2 * x) for i, x in k.items()}
               for k in nullspace(vectors, 1)]
    assert cleared == [{0: -1, 1: 2}, {0: -1, 2: 2}] and not _saturated(cleared, 3)
    basis = integer_kernel(vectors)
    assert len(basis) == 2 and all(_relation(vectors, n) == {} for n in basis)
    assert _saturated(basis, 3)


@PROPS
@given(data=st.data())
def test_integer_kernel_is_a_z_basis_of_the_relations(data):
    m = data.draw(st.integers(1, 5))
    ncols = data.draw(st.integers(1, 4))
    vectors = [{j: x for j in range(ncols) if (x := data.draw(st.integers(-4, 4)))}
               for _ in range(m)]
    basis = integer_kernel(vectors)
    assert all(_relation(vectors, n) == {} for n in basis)
    assert all(type(x) is int for n in basis for x in n.values())
    # of full rank, and saturated, so the whole lattice of relations
    assert len(basis) == m - rank([{j: Fraction(x) for j, x in v.items()} for v in vectors])
    assert not basis or _saturated(basis, m)
