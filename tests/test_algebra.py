import random
from fractions import Fraction

import pytest

from acy import cli
from acy.algebra import AlgebraError, GradedAlgebra, spot_checks
from acy.cells import CellSystem, builtin_cells, derive_relations
from acy.homology import Homology, build_report, verify_resolution
from acy.quiver import build_family, parse_graph_spec
from acy.scalar import Eisenstein, PrimeEmbedding, Scalar, inverse, residue
from acy.series import hilbert_closed_form
from conftest import scalar_relations
from oracles import beta_walk, path_class


def test_a4_dims(pipe):
    _, _, A, _ = pipe("A4")
    assert [A.dim(k) for k in range(A.top + 1)] == [3, 3]
    assert A.dim(2) == 0 and A.dim(5) == 0


def test_dims_match_series_oracle(pipe):
    for spec in ("A5", "A7", "E8*", "D9"):
        g, _, A, _ = pipe(spec)
        H = hilbert_closed_form(g)
        vi = g.vindex
        for k in range(A.top + 1):
            dims = {blk: len(idxs) for blk, idxs in A.block_index[k].items()}
            for a in g.vertices:
                for b in g.vertices:
                    assert dims.get((a, b), 0) == H[k][vi[a]][vi[b]], (spec, k, a, b)


def test_zero_weight_relations_fail_hilbert_gate():
    g = build_family("A", 4)
    zero = CellSystem(g, g.tower, {t: g.tower.zero() for t in g.triangles()})
    with pytest.raises(AlgebraError) as err:
        GradedAlgebra(g, derive_relations(zero))
    assert "Hilbert" in str(err.value)


def test_idempotents_and_grading(pipe):
    g, _, A, _ = pipe("E8*")
    rng = random.Random(5)
    for _ in range(50):
        k = rng.randrange(1, A.top + 1)
        i = rng.randrange(A.dim(k))
        b = A.basis[k][i]
        left = A.mul(0, A.unit(0, g.vindex[b.src]), k, A.unit(k, i))
        assert left == A.unit(k, i)
        wrong = A.mul(0, A.unit(0, g.vindex[(set(g.vertices) - {b.src}).pop()]),
                      k, A.unit(k, i))
        assert wrong == {}
    # products beyond the top degree vanish
    x = A.unit(A.top, 0)
    y = A.unit(1, 0)
    assert A.mul(A.top, x, 1, y) == {}


@pytest.mark.parametrize("spec, modular", [("A5", False), ("A6", False), ("D6", False),
                                           ("E8*", False), ("A5", True), ("A6", True)])
def test_mul_basis_is_the_walk_along_both_paths(pipe, monkeypatch, spec, modular):
    # over Q, Q(omega), the tower and F_p at the certificate prime: every
    # product of two basis elements is the class of the joined path when they
    # compose within the top degree, and 0 otherwise.  A product of degree top
    # with a right factor of degree >= 2 is read off the form's table ("top")
    # without a walk, except on the F_p image, which walks it.  A5's top
    # degree is 2, so A6 is what reaches a right factor of degree 2; its top
    # degree is 3, as is D6's, so all of those products are top products
    _, _, A, _ = pipe(spec)
    if modular:
        A = A.reduce_mod(PrimeEmbedding.find(A.tower))
    walks = []
    walk = GradedAlgebra.mul_path
    monkeypatch.setattr(GradedAlgebra, "mul_path",
                        lambda self, *args: walks.append(args) or walk(self, *args))
    branches = set()
    for k1 in range(A.top + 1):
        for i1, x in enumerate(A.basis[k1]):
            for k2 in range(A.top + 1):
                for i2, y in enumerate(A.basis[k2]):
                    walks.clear()
                    got = A.mul_basis(k1, i1, k2, i2)
                    walked = bool(walks)
                    if x.dst != y.src or k1 + k2 > A.top:
                        assert got == {}, (spec, k1, i1, k2, i2)
                        continue
                    assert got == path_class(A, x.src, x.path + y.path), (spec, k1, i1, k2, i2)
                    branch = ("idempotent" if not k1 * k2 else "edge" if k2 == 1 else
                              "top" if k1 + k2 == A.top and not A.p else "walk")
                    assert walked == (branch == "walk"), (spec, k1, i1, k2, i2)
                    branches.add(branch)
    want = {"A5": {"idempotent", "edge"}, "A6": {"idempotent", "edge", "top"},
            "D6": {"idempotent", "edge", "top"},
            "E8*": {"idempotent", "edge", "walk", "top"}}[spec]
    if modular and "top" in want:
        want = want - {"top"} | {"walk"}
    assert branches == want, spec


def test_the_modular_image_reduces_red_and_carries_no_dual_bases(pipe):
    # the certificate reduces mu's terms, built from the tower's duals, so
    # the image reduces only the structure constants
    _, _, A, _ = pipe("D7*")
    emb = PrimeEmbedding.find(A.tower)
    B = A.reduce_mod(emb)
    assert A.duals and not hasattr(B, "duals")
    assert B.red == [{key: {i: r for i, c in vec.items() if (r := residue(c, emb))}
                      for key, vec in tab.items()} for tab in A.red]
    assert B.fxy is A.fxy


@pytest.mark.parametrize("spec, modular", [("A6", False), ("D6", False), ("E8*", False),
                                           ("D7*", False), ("A6", True)])
def test_beta_basis_is_the_nu_path_walk(pipe, spec, modular):
    # beta grown along each basis element's prefix is the class of its whole
    # nu-path, in every degree, over Q, Q(omega), the tower (E8* with trivial
    # nu, D7* with a nontrivial one) and F_p at the certificate prime
    _, _, A, _ = pipe(spec)
    if modular:
        A = A.reduce_mod(PrimeEmbedding.find(A.tower))
    for k in range(A.top + 1):
        for i in range(A.dim(k)):
            assert A.beta_basis(k, i) == beta_walk(A, k, i), (spec, k, i)


def test_associativity_random(pipe):
    g, _, A, _ = pipe("E8*")
    rng = random.Random(17)
    checked = 0
    while checked < 500:
        p = rng.randrange(0, A.top + 1)
        q = rng.randrange(0, A.top + 1 - p)
        r = rng.randrange(0, A.top + 1 - p - q)
        x = A.unit(p, rng.randrange(A.dim(p)))
        y = A.unit(q, rng.randrange(A.dim(q)))
        z = A.unit(r, rng.randrange(A.dim(r)))
        lhs = A.mul(p + q, A.mul(p, x, q, y), r, z)
        rhs = A.mul(p, x, q + r, A.mul(q, y, r, z))
        assert lhs == rhs
        checked += 1


def _f(A, vec: dict):
    """The form f on a vector: the scale `f_coeff` of each top generator
    in its support, and zero on every other basis element."""
    return sum((A.f_coeff[i] * x for i, x in vec.items() if i in A.f_coeff), A.zero)


def _top_generators(A) -> dict:
    """The normalized generators u_j of A_T, with f(u_j) = 1, by vertex j."""
    return {A.basis[A.top][i].src: {i: inverse(c)} for i, c in A.f_coeff.items()}


def test_form_and_top_generators(pipe):
    for spec in ("A4", "A5", "E8*", "E8"):
        g, _, A, _ = pipe(spec)
        A.build_form()
        u = _top_generators(A)
        assert set(u) == set(g.vertices)
        for j in g.vertices:
            assert _f(A, u[j]) == 1
        # f vanishes implicitly below the top degree: pair() uses top products
        # and the pairing matrices were inverted during build_form


def test_dual_bases(pipe):
    g, _, A, _ = pipe("A5")
    A.build_form()
    T = A.top
    u = _top_generators(A)
    for p in range(T + 1):
        for i, wstar in sorted(A.duals[p].items()):
            b = A.basis[p][i]
            prod = A.mul(p, A.unit(p, i), T - p, wstar)
            assert prod == u[b.src]
            # mixed products vanish under f
            for i2 in range(A.dim(p)):
                if i2 != i:
                    val = _f(A, A.mul(p, A.unit(p, i2), T - p, wstar))
                    assert val == 0
    # degree 0: the dual of a vertex idempotent is the normalized generator
    for j in g.vertices:
        assert A.duals[0][g.vindex[j]] == u[j]


def test_dual_element_basis_independence(pipe):
    # sum_j w_j (x) w_j* is independent of the homogeneous basis choice
    from acy import linalg

    g, _, A, _ = pipe("E8*")
    A.build_form()
    p = 2
    blk = next(iter(A.block_index[p].values()))
    tower = A.tower
    canonical = {}
    for i, wstar in sorted(A.duals[p].items()):
        for jj, c in wstar.items():
            canonical[(i, jj)] = c
    # change basis on one block by an invertible rational matrix
    rng = random.Random(3)
    n = len(blk)
    while True:
        M = [[tower.from_fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        cols = [{r: M[r][c] for r in range(n) if not M[r][c].is_zero()} for c in range(n)]
        try:
            Minv = linalg.invert_dense(cols, n, tower.one())
            break
        except ValueError:
            continue
    # new basis v_c = sum_r M[r][c] w_(blk[r]); new duals v_c* = sum (Minv) w*
    transformed = {}
    for c in range(n):
        for r in range(n):
            if M[r][c].is_zero():
                continue
            for cc in range(n):
                coeff = Minv[cc].get(c)
                if coeff is None:
                    continue
                for jj, w in A.duals[p][blk[cc]].items():
                    key = (blk[r], jj)
                    cur = transformed.get(key, tower.zero())
                    transformed[key] = cur + M[r][c] * coeff * w
    for i, wstar in sorted(A.duals[p].items()):
        if i not in blk:
            for jj, c in wstar.items():
                transformed[(i, jj)] = transformed.get((i, jj), tower.zero()) + c
    transformed = {k: v for k, v in transformed.items() if not v.is_zero()}
    canonical_all = {}
    for i, wstar in sorted(A.duals[p].items()):
        for jj, c in wstar.items():
            canonical_all[(i, jj)] = c
    assert set(transformed) == set(canonical_all)
    assert all(transformed[k] == canonical_all[k] for k in transformed)


def test_nakayama(pipe):
    g, _, A, _ = pipe("E8*")
    A.build_form()
    for k in range(A.top + 1):
        for i in range(A.dim(k)):
            assert A.beta_basis(k, i) == A.unit(k, i)   # trivial nu
    g4, _, A4, _ = pipe("A4")
    A4.build_form()
    for e in g4.edges:
        i = A4.edge_index[e.id]
        img = A4.beta_basis(1, i)
        assert img == A4.unit(1, A4.edge_index[g4.nu_e[e.id]])
    # beta is an algebra automorphism of order 3 preserving f
    g5, _, A5, _ = pipe("A5")
    A5.build_form()
    rng = random.Random(23)
    for _ in range(100):
        p = rng.randrange(0, A5.top + 1)
        q = rng.randrange(0, A5.top + 1 - p)
        x = A5.unit(p, rng.randrange(A5.dim(p)))
        y = A5.unit(q, rng.randrange(A5.dim(q)))
        assert A5.beta_vec(p + q, A5.mul(p, x, q, y)) == \
            A5.mul(p, A5.beta_vec(p, x), q, A5.beta_vec(q, y))
    for i in range(A5.dim(2)):
        x = A5.unit(2, i)
        assert A5.beta_vec(2, A5.beta_vec(2, A5.beta_vec(2, x))) == x
    for i in range(A5.dim(A5.top)):
        assert _f(A5, A5.beta_vec(A5.top, A5.unit(A5.top, i))) == \
            _f(A5, A5.unit(A5.top, i))


def test_form_detects_a_wrong_nakayama_action(monkeypatch):
    # beta as the identity on the idempotents only: the form propagation reads
    # beta in degree 1 and still passes, and (x,y) = (y,beta(x)) fails for x
    # an idempotent at a vertex that nu moves
    real = GradedAlgebra.beta_basis

    def beta_basis(self, k, i):
        return self.unit(k, i) if k == 0 else real(self, k, i)

    monkeypatch.setattr(GradedAlgebra, "beta_basis", beta_basis)
    for spec in ("A4", "A5", "A9"):
        g = parse_graph_spec(spec)
        A = GradedAlgebra(g, derive_relations(builtin_cells(g)))
        with pytest.raises(AlgebraError, match=r"\(x,y\) != \(y,beta\(x\)\) at degree 0"):
            A.build_form()


def _fresh(spec: str) -> GradedAlgebra:
    g = parse_graph_spec(spec)
    return GradedAlgebra(g, derive_relations(builtin_cells(g)))


def _no_edge_products(monkeypatch):
    # every product of an edge with degree T - 1 vanishes before the form is
    # built, so no pairing pair of degree 1 carries the form along an edge
    real = GradedAlgebra.mul_basis

    def mul_basis(self, k1, i1, k2, i2):
        if k1 == 1 and k2 == self.top - 1 and not self._form_built:
            return {}
        return real(self, k1, i1, k2, i2)

    monkeypatch.setattr(GradedAlgebra, "mul_basis", mul_basis)


def _no_beta_on_edges(monkeypatch):
    # beta vanishes in degree 1, so [y beta(x)] = 0 for every edge x
    real = GradedAlgebra.beta_basis
    monkeypatch.setattr(GradedAlgebra, "beta_basis",
                        lambda self, k, i: {} if k == 1 else real(self, k, i))


@pytest.mark.parametrize("fault, message", [
    (_no_edge_products, "cannot propagate the form along edge"),
    (_no_beta_on_edges, "form propagation hit a vanishing pair")])
def test_form_propagation_errors_fire_and_exit_3(monkeypatch, capsys, fault, message):
    fault(monkeypatch)
    with pytest.raises(AlgebraError, match=message):
        _fresh("A6").build_form()
    assert cli.main(["verify", "--graph", "A6", "--check", "duality"]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("spec, pairs", [("A6", 56), ("D6", 36), ("E8*", 56)])
def test_build_form_takes_one_product_per_pairing_pair(monkeypatch, spec, pairs):
    # the pairing pairs: x in a block (s, d) of degree p, y in (d, nu s) of
    # degree T - p.  The propagation reads the same tables as the checks
    A = _fresh(spec)
    nu, T = A.graph.nu_v, A.top
    want = [(p, x, T - p, y) for p in range(T + 1)
            for (s, d), xs in A.block_index[p].items() for x in xs
            for y in A.block_index[T - p].get((d, nu[s]), ())]
    calls = []
    real = GradedAlgebra.mul_basis
    monkeypatch.setattr(GradedAlgebra, "mul_basis",
                        lambda self, *args: calls.append(args) or real(self, *args))
    A.build_form()
    assert len(want) == pairs
    assert sorted(calls) == sorted(want)


def test_spot_associativity_sees_an_in_block_fault():
    # the monomial (0, 7) is a basis element of degree 2; the fault reduces
    # it to twice itself, which stays in its block.  A uniform sample drew no
    # composable triple of positive degrees on A6 at seed 0; the composable
    # sample multiplies through the fault and sees (x y) z != x (y z)
    assert spot_checks(_fresh("A6"), 0)["spot_associativity"] is True
    A = _fresh("A6")
    key, i = (A.edge_index[0], 7), [b.path for b in A.basis[2]].index((0, 7))
    assert A.red[2][key] == {i: A.one}
    A.red[2][key] = {i: A.one + A.one}
    assert spot_checks(A, 0)["spot_associativity"] is False


def test_spot_nakayama_sees_a_faulted_beta_coefficient():
    # beta(x) = 2 nu(x) for the degree-1 basis element 10, and nu elsewhere
    assert spot_checks(_fresh("A6"), 0)["spot_nakayama"] is True
    A = _fresh("A6")
    (j, c), = A.beta_basis(1, 10).items()
    A._beta_cache[(1, 10)] = {j: c + A.one}
    assert spot_checks(A, 0)["spot_nakayama"] is False


def test_spot_nakayama_sees_a_fault_off_the_uniform_sample():
    # beta(x) = 2 nu(x) for the degree-1 basis element 17.  A sample of
    # uniform pairs, mostly not composable, passed this fault at seeds 0-4;
    # pairs with y starting where x ends catch it at each of them
    A = _fresh("A6")
    (j, c), = A.beta_basis(1, 17).items()
    A._beta_cache[(1, 17)] = {j: c + A.one}
    for seed in range(5):
        assert spot_checks(A, seed)["spot_nakayama"] is False


def test_relation_count_and_snapshot(pipe):
    for spec in ("A5", "E8*", "D9"):
        g, cells, A, _ = pipe(spec)
        assert len(A.relations.relations) == len(g.edges)
    g, _, A, _ = pipe("A5")
    assert [A.dim(k) for k in range(A.top + 1)] == [6, 9, 6]
    assert [list(b.path) for b in A.basis[0]] == [[]] * 6


@pytest.mark.parametrize("spec", ["A4", "A5", "A6", "A7", "A8", "A9", "A12"])
def test_the_algebra_over_q_in_ints_equals_the_one_in_rational_scalars(pipe, spec):
    # the same all-ones relations, once as the int 1 and once as RATIONALS.one()
    g, cells, A, _ = pipe(spec)
    B = GradedAlgebra(g, scalar_relations(cells))
    A.build_form()
    B.build_form()
    # the relations act from degree 2, where eliminating in Scalars leaves
    # Scalars in B's tables; A4 stops at degree 1
    assert A.top < 2 or any(isinstance(c, Scalar) for tab in B.red for vec in tab.values()
                            for c in vec.values())
    assert A.red == B.red
    assert A.duals == B.duals
    assert A.f_coeff == B.f_coeff


def test_the_algebra_over_q_holds_only_ints_and_fractions(pipe):
    g, cells, _, _ = pipe("A6")
    A = GradedAlgebra(g, derive_relations(cells))
    assert build_report(A, cells).ok
    hom = Homology(A)
    assert verify_resolution(hom)["ok"]
    values = [c for tab in A.red + A.duals for vec in tab.values() for c in vec.values()]
    values += [c for tab in A.fxy for c in tab.values()]
    values += [c for tab in hom.mu.values() for terms in tab.values() for *_, c in terms]
    values += list(A.f_coeff.values())
    assert hom.mu[4]
    assert {type(c) for c in values} <= {int, Fraction}


def test_the_algebra_over_q_omega_holds_only_eisensteins(pipe):
    # D6's cells are tower scalars with imaginary parts, but no tower scalar
    # reaches its algebra, its complexes or the certificate's premise
    g, cells, _, _ = pipe("D6")
    A = GradedAlgebra(g, derive_relations(cells))
    assert build_report(A, cells).ok
    hom = Homology(A)
    assert verify_resolution(hom)["ok"]
    values = [c for tab in A.red + A.duals for vec in tab.values() for c in vec.values()]
    values += [c for tab in A.fxy for c in tab.values()]
    values += [c for tab in hom.mu.values() for terms in tab.values() for *_, c in terms]
    values += list(A.f_coeff.values())
    assert hom.mu[4]
    assert {type(c) for c in values} == {Eisenstein}
    assert A.tower == cells.tower
