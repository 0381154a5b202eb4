import functools
from fractions import Fraction

import pytest

import acy.homology
from acy.algebra import GradedAlgebra
from acy.cells import RelationSet, builtin_cells, derive_relations
from acy.homology import Homology
from acy.quiver import parse_graph_spec

_CACHE: dict = {}
_DIFFERENTIALS = acy.homology.differentials


def pipeline(spec: str):
    """(graph, cells, algebra, homology) for a family spec, cached per session.

    The Homology is built from the real differentials even inside a test that
    monkeypatches `acy.homology.differentials`, so the cache never depends on
    which test first asked for a spec."""
    if spec not in _CACHE:
        g = parse_graph_spec(spec)
        cells = builtin_cells(g)
        A = GradedAlgebra(g, derive_relations(cells))
        patched, acy.homology.differentials = acy.homology.differentials, _DIFFERENTIALS
        try:
            _CACHE[spec] = (g, cells, A, Homology(A))
        finally:
            acy.homology.differentials = patched
    return _CACHE[spec]


@pytest.fixture(scope="session")
def pipe():
    return pipeline


def own_relations(cells) -> RelationSet:
    """The relations of W itself, over the cells' tower: `derive_relations`
    with each coefficient of the gauge-equivalent W' replaced by W's weight
    on the same triangle (W' has W's support)."""
    rels = derive_relations(cells).relations
    for r in rels:
        r.terms = {(b, c): cells.weight(r.edge_id, b, c) for b, c in r.terms}
    return RelationSet(cells.graph, cells.tower, rels)


def scalar_relations(cells) -> RelationSet:
    """The relations `derive_relations` gives, with each coefficient as a
    Scalar over the tower of the relation set: for the all-ones potential
    over Q, the int 1 becomes `RATIONALS.one()`."""
    rs = derive_relations(cells)
    for r in rs.relations:
        r.terms = {bc: rs.tower.from_fraction(w) if isinstance(w, int) else w
                   for bc, w in r.terms.items()}
    return rs


# -- sympy as the oracle for the determinant identities of det H_A(t) -------------
# acy reads log det H_A through traces and never expands a determinant; these
# helpers expand it.  sympy is imported in the functions, as a required test
# extra: without it they raise, so no oracle passes by skipping.

@functools.cache
def _ring(domain: str):
    """The ring domain[t] and its generator t."""
    import sympy

    return sympy.ring("t", getattr(sympy, domain))


def poly(coeffs):
    """The element of ZZ[t] with the ascending integer coefficients `coeffs`."""
    R, t = _ring("ZZ")
    return sum((c * t ** i for i, c in enumerate(coeffs)), R.zero)


def rational(num_factors, den_factors) -> tuple:
    """prod (1 - t^k), k in num_factors, over prod (1 - t^k), k in den_factors."""
    R, t = _ring("ZZ")
    num, den = R.one, R.one
    for k in num_factors:
        num *= 1 - t ** k
    for k in den_factors:
        den *= 1 - t ** k
    return num, den


def same_ratio(a: tuple, b: tuple) -> bool:
    """num_a/den_a == num_b/den_b, by cross-multiplication."""
    return a[0] * b[1] == b[0] * a[1]


def poly_det(rows):
    """Determinant of a square matrix over ZZ[t], by sympy's DomainMatrix."""
    from sympy.polys.matrices import DomainMatrix

    R, _ = _ring("ZZ")
    return DomainMatrix(rows, (len(rows), len(rows)), R.to_domain()).det()


def nu_cycles(g) -> list[int]:
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


@functools.cache
def det_hilbert(spec: str) -> tuple:
    """det H_A(t) = det(1 - P t^h) / det(1 - Dt + D^T t^2 - t^3), unreduced:
    the numerator is prod (1 - t^(h l)) over the nu-cycles of length l."""
    g = parse_graph_spec(spec)
    D = g.adjacency()
    n = len(D)
    num, _ = rational([g.h * clen for clen in nu_cycles(g)], [])
    M = [[poly([int(i == j), -D[i][j], D[j][i], -int(i == j)]) for j in range(n)]
         for i in range(n)]
    return num, poly_det(M)


def log_series(p, N: int) -> list[Fraction]:
    """Coefficients 0..N of log p, for p in ZZ[t] with constant term 1."""
    from sympy.polys.ring_series import rs_log

    R, t = _ring("QQ")
    lg = rs_log(p.set_ring(R), t, N + 1)
    return [Fraction(c.numerator, c.denominator)
            for c in (lg.coeff(t ** k) for k in range(N + 1))]


def taylor(num_coeffs: dict[int, int], period: int, N: int) -> list[int]:
    """Coefficients 0..N of sum_i num_coeffs[i] t^i / (1 - t^period)."""
    return [sum(c for i, c in num_coeffs.items() if i <= k and (k - i) % period == 0)
            for k in range(N + 1)]
