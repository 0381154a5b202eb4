"""The 12-periodic Hochschild homology complex, the cohomology complex, and
everything derived from them: graded HH/HC/HH* tables, the independent
HH_0 = A/[A,A] computation, duality and periodicity checks, and resolution
exactness.

All three complexes read here are built on the generators V_0..V_4 of the
superpotential resolution P (Bocklandt, JPAA 212, 2008), of degrees 0, 1,
2, 3, h and listed once by `_generators` as (gen, a, b), gen running a -> b:
vertices on V_0 and V_3, edges on V_1, reversed edges on V_2 and vertices
m -> nu(m) on V_4.  A chain space is indexed by the degree k of its algebra
factor: space(r, t, k) holds the pairs (gen, x) with gen in V_r and x in
A_k running from b to nu^(-t)(a).  With i = 4s + r and _shift(i) = s h + r,
the chains of A (x)_(A^e) P at total degree d are
C_i = space(r, s, d - _shift(i)), and those of Hom_(A^e)(P, A) are
C^i = space(3 - r, -s, d + _shift(i)).  The twist only matters mod 3, so
the matrices depend on (r, t mod 3, k); for trivial nu every twist is 0.

The four maps mu_1..mu_4 of P are written once, as terms on generators
(`differentials`), and both complexes P (x)_(A^e) M that are read here are
built from that table by one term rule, `apply_mu`: `Homology.mat` builds
A (x)_(A^e) P over the tower, and `_Resolution` builds the one-sided
complex P (x)_A A_0 over the algebra's image in F_p, from the terms whose
right factor is an idempotent.  `verify_resolution` composes the table on
generators in both rings, which gives d o d = 0, and then ranks
P (x)_A A_0 over F_p: a complex of right-free modules with d o d = 0 is
exact iff that complex is (Butler and King, J. Algebra 212, 1999; the
converse by graded Nakayama), and it is finite, so every degree is covered.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from . import linalg, scalar, series
from .algebra import AlgebraError, GradedAlgebra
from .cells import CellSystem
from .scalar import PrimeEmbedding

__all__ = ["Homology", "differentials", "apply_mu", "hh0_direct", "cyclic_from_hh",
           "verify_resolution", "HomologyReport", "build_report"]


def _generators(g, stage: int) -> list:
    """The generators (gen, a, b) of V_stage, gen running a -> b: the edge
    ids on V_1, reversed on V_2, and the vertices, in label order, on V_0,
    V_3 and V_4, where V_4 is twisted by nu on the right."""
    if stage in (1, 2):
        return [(e.id, *((e.src, e.dst) if stage == 1 else (e.dst, e.src))) for e in g.edges]
    return [(m, m, g.nu_v[m] if stage == 4 else m) for m in sorted(g.vertices)]


def _shift(i: int, h: int) -> int:
    """The degree of the generators of C_i: s h + r for i = 4s + r."""
    s, r = divmod(i, 4)
    return s * h + r


def _gen_degrees(h: int) -> tuple[int, ...]:
    """Degrees of the generators of V_0..V_4."""
    return (0, 1, 2, 3, h)


def differentials(A: GradedAlgebra) -> dict:
    """mu_1..mu_4 of the superpotential resolution of A as an A-bimodule
    (Bocklandt, JPAA 212, 2008; Ginzburg, math/0612139), on generators.

    mu[r][v] lists the terms (left, v', right, c) of mu_r(1 (x) v (x) 1),
    which is the sum of c * left (x) v' (x) right: left and right are basis
    elements (degree, index) of A, v' is a generator of V_(r-1), as
    `_generators` lists them, and c is an exact scalar.

      mu_1(e)   = e (x) 1 - 1 (x) e
      mu_2(a~)  = sum W_abc (b (x) c (x) 1 + 1 (x) b (x) c)
      mu_3(1_m) = sum_e (e (x) e~ (x) 1 - 1 (x) e~ (x) e)
      mu_4(1_m) = sum_w w (x) w*

    The factors 1 are the idempotents at the generator's own ends, and w*
    enters mu_4 as one term per basis element in its support.  mu_2 reads
    the weights W_abc off the relations A was built from.
    """
    A.build_form()
    g, one, T = A.graph, A.one, A.top
    minus = -one

    def edge(eid: int) -> tuple[int, int]:
        return 1, A.edge_index[eid]

    def idem(v: str) -> tuple[int, int]:
        return 0, g.vindex[v]

    mu: dict[int, dict] = {r: {} for r in range(1, 5)}
    for a in g.edges:
        mu[1][a.id] = [(edge(a.id), a.dst, idem(a.dst), one),
                       (idem(a.src), a.src, edge(a.id), minus)]
    # the relation at a runs r(a) -> s(a): (src, dst) = (a.dst, a.src)
    for rel in A.relations.relations:
        mu[2][rel.edge_id] = [t for (b, c), w in rel.terms.items()
                              for t in ((edge(b), c, idem(rel.dst), w),
                                        (idem(rel.src), b, edge(c), w))]
    for m in g.vertices:
        mu[3][m] = ([(edge(e.id), e.id, idem(m), one) for e in g.out_edges[m]]
                    + [(idem(m), e.id, edge(e.id), minus) for e in g.in_edges[m]])
        mu[4][m] = []
    for p in range(T + 1):  # mu_4: each block's terms go to its source vertex
        for (s, _), ws in A.block_index[p].items():
            mu[4][s] += [((p, w), A.basis[p][w].dst, (T - p, j), c)
                         for w in ws for j, c in A.duals[p][w].items()]
    return mu


def apply_mu(A: GradedAlgebra, terms: list, k: int, x: dict, pos: dict,
             power: int = 0) -> dict:
    """The term rule of P (x)_(A^e) M, which builds both complexes: the image
    of gen (x) x under the terms (l, v', r, c) of mu(gen), for x a degree-k
    vector of A, is the sum of c (v', r x b^power(l)), as a column
    {pos[(v', j)]: value} over the target's positions.  An element (v', j)
    that `pos` lacks raises `AlgebraError`: the image escapes the target
    space.  `Homology.mat` applies every term, and `_Resolution` the terms
    whose r is an idempotent, with power 0, for its one-sided rows.

    The spaces pair each generator with the elements that meet its terms,
    so the factors compose.  Every product x l and r (x l) is one
    `A.mul_basis` call, so the rule runs in whichever ring A has: the
    tower, or the image `A.reduce_mod(emb)` with the terms reduced
    alongside.  The products of degree top, such as mu_4's w* b^power(w),
    are read off the form's tables `A.fxy` over the algebra's own ring, and
    walked on the image."""
    mul, top, one, p = A.mul_basis, A.top, A.one, A.p

    def at(v, j) -> int:
        q = pos.get((v, j))
        if q is None:
            raise AlgebraError(f"image element {(v, j)} escapes the target space")
        return q

    out: dict = {}
    for (kl, il), v, (kr, ir), c in terms:
        if k + kl + kr > top:
            continue
        for jl, b in A.beta_vec(kl, {il: one}, power).items():
            cb = c * b
            for i, a in x.items():
                xl, cab = mul(k, i, kl, jl).items(), cb * a
                if not kr:
                    linalg.axpy(out, ((at(v, j), e) for j, e in xl), cab, p)
                    continue
                for j, e in xl:
                    linalg.axpy(out, ((at(v, jj), f) for jj, f in mul(kr, ir, k + kl, j).items()),
                                cab * e, p)
    return out


class Homology:
    """Matrices, ranks and graded tables for one algebra with cell data."""

    def __init__(self, A: GradedAlgebra):
        A.build_form()
        self.A = A
        self.g = A.graph
        self.trivial_nu = self.g.nu_is_trivial()
        self.mu = differentials(A)
        self._space_cache: dict = {}
        self._mat_cache: dict = {}
        self._rank_cache: dict = {}

    @staticmethod
    def index_bound(h: int, cutoff: int, max_index: int = 13) -> int:
        """The largest homological index whose chain spaces can be nonzero at
        a degree <= cutoff, and at least max_index."""
        i = max_index
        while _shift(i + 1, h) <= cutoff:
            i += 1
        return i

    # -- chain space bases ------------------------------------------------------

    def _tw(self, t: int) -> int:
        return 0 if self.trivial_nu else t % 3

    def space(self, r: int, twist: int, k: int) -> list:
        """The pairs (gen, x) of V_r (x) A_k with x running from b to
        nu^(-twist)(a), for each generator (gen, a, b) of `_generators`."""
        key = (r, self._tw(twist), k)
        hit = self._space_cache.get(key)
        if hit is None:
            A, g, inv = self.A, self.g, -self._tw(twist) % 3
            hit = self._space_cache[key] = [
                (gen, x) for gen, a, b in (_generators(g, r) if 0 <= k <= A.top else ())
                for x in A.block_index[k].get((b, g.nu_vertex_pow(a, inv)), ())]
        return hit

    def chain_space(self, i: int, d: int, coh: bool = False) -> list:
        """C_i at total degree d, or C^i when coh: `space` at the degree of
        its algebra factor, d -/+ `_shift`(i)."""
        s, r = divmod(i, 4)
        if coh:
            return self.space(3 - r, -s, d + _shift(i, self.g.h))
        return self.space(r, s, d - _shift(i, self.g.h))

    # -- differentials ------------------------------------------------------------

    def _pos(self, r: int, twist: int, k: int) -> dict:
        key = ("pos", r, self._tw(twist), k)
        hit = self._space_cache.get(key)
        if hit is None:
            hit = {elt: p for p, elt in enumerate(self.space(r, twist, k))}
            self._space_cache[key] = hit
        return hit

    def mat(self, r: int, twist: int, k: int) -> dict:
        """Matrix of mu_r from space(r % 4, t + (r == 4), k) to
        space(r - 1, t, k + gdeg[r] - gdeg[r - 1]), t = twist.

        The term rule `apply_mu`, with power b^(-t) on the left factors,
        writes each column straight into the target's positions: a term
        (l, v', rt, c) of mu_r(gen) sends (gen, x) to c (v', rt x~ b^(-t)(l)),
        where x~ = b(x) for r = 4, as b carries space(0, t + 1, k) onto
        space(4, t, k), and x~ = x otherwise.  An image outside the target
        raises `AlgebraError`.
        """
        key = (r, self._tw(twist), k)
        hit = self._mat_cache.get(key)
        if hit is not None:
            return hit
        A = self.A
        t = self._tw(twist)
        gdeg = _gen_degrees(self.g.h)
        pos = self._pos(r - 1, t, k + gdeg[r] - gdeg[r - 1])
        cols = []
        for gen, i in self.space(r % 4, t + (r == 4), k):
            x = A.beta_vec(k, {i: A.one}) if r == 4 else {i: A.one}
            cols.append(apply_mu(A, self.mu[r][gen], k, x, pos, (3 - t) % 3))
        hit = {"cols": cols, "nd": len(cols), "nt": len(pos)}
        self._mat_cache[key] = hit
        return hit

    # -- (index, total degree) -> builder parameters ---------------------------------

    def _hom_params(self, i: int, d: int):
        """(r, twist, k) of mat for mu'_i at total degree d, domain C_i."""
        t, r0 = divmod(i - 1, 4)
        return r0 + 1, t, d - _shift(i, self.g.h)

    def _coh_params(self, i: int, d: int):
        """(r, twist, k) of mat for mu_i^*, domain C^(i-1)."""
        t, r0 = divmod(i - 1, 4)
        return (3, 2, 1, 4)[r0], -t - (r0 == 3), d + _shift(i - 1, self.g.h)

    def rank(self, r: int, twist: int, k: int) -> int:
        if not 0 <= k <= self.A.top:
            return 0
        key = (r, self._tw(twist), k)
        hit = self._rank_cache.get(key)
        if hit is None:
            hit = linalg.rank(self.mat(r, twist, k)["cols"])
            self._rank_cache[key] = hit
        return hit

    def rank_at(self, i: int, d: int, coh: bool = False) -> int:
        """Rank of mu'_i at total degree d, or of mu_i^* when coh."""
        if i <= 0:
            return 0
        return self.rank(*(self._coh_params if coh else self._hom_params)(i, d))

    # -- tables ---------------------------------------------------------------------

    def hh_dim(self, i: int, d: int, coh: bool = False) -> int:
        """dim HH_i at total degree d, or dim HH^i when coh."""
        dim = len(self.chain_space(i, d, coh))
        if dim == 0:
            return 0
        out = dim - self.rank_at(i, d, coh) - self.rank_at(i + 1, d, coh)
        if out < 0:
            raise AlgebraError(f"negative HH{'^' if coh else ''} dimension at (i={i}, d={d})")
        return out

    def _table(self, max_i: int, dmin: int, dmax: int, coh: bool) -> dict:
        """{(i, d): dim} of the nonzero `hh_dim`s for i <= max_i and
        dmin <= d <= dmax."""
        return {(i, d): v for i in range(max_i + 1) for d in range(dmin, dmax + 1)
                if (v := self.hh_dim(i, d, coh))}

    def hh_table(self, max_i: int, max_d: int) -> dict[tuple[int, int], int]:
        return self._table(max_i, 0, max_d, coh=False)

    def reduced(self, table: dict) -> dict:
        out = dict(table)
        nv = len(self.g.vertices)
        if out.get((0, 0), 0) != nv:
            raise AlgebraError("HH_0 at degree 0 is not S")
        del out[(0, 0)]
        return out

    def coh_table(self, max_i: int, dmin: int, dmax: int) -> dict[tuple[int, int], int]:
        return self._table(max_i, dmin, dmax, coh=True)

    # -- verifications -----------------------------------------------------------------

    def check_d_squared(self, max_i: int, max_d: int) -> list:
        """Exact mu'_i o mu'_(i+1) = 0 at every total degree; returns failures."""
        bad, top = [], self.A.top
        checked = set()
        for i in range(1, max_i + 1):
            for d in range(max_d + 1):
                r2, t2, k2 = self._hom_params(i + 1, d)
                r1, t1, k1 = self._hom_params(i, d)
                if not (0 <= k2 <= top and 0 <= k1 <= top):
                    continue
                key = (r2, self._tw(t2), k2, r1, self._tw(t1), k1)
                if key in checked:
                    continue
                checked.add(key)
                if not self._compose_zero(self.mat(r1, t1, k1), self.mat(r2, t2, k2)):
                    bad.append((i, d))
        return bad

    @staticmethod
    def _compose_zero(m1: dict, m2: dict) -> bool:
        for col in m2["cols"]:
            acc: dict = {}
            for p, c in col.items():
                linalg.axpy(acc, m1["cols"][p].items(), c)
            if acc:
                return False
        return True

    # duality pairings ----------------------------------------------------------

    def pairing(self, jdx: int, d: int) -> list[dict]:
        """The duality pairing of C_jdx(d) with C_(11-jdx)(3h-d), as one sparse
        row {column: value} per C_jdx(d) basis element; the twists satisfy
        t1 + t2 = 2 mod 3.

        The value is the plain product f(x1 x2) of the algebra factors; for
        edge generators composability forces the matching a1 = nu^t1(a2), and
        a vertex generator is the source of its factor.  Since A_top lies on
        the nu-diagonal, f(x1 x2) can be nonzero only for x2 in the block
        (r(x1), nu(s(x1))), so each row reads just that block, and its
        values off the form's table `A.fxy` of the factors' degrees, which
        sum to the top: no product is taken.  The family of
        valid identifications is a torsor under powers of beta; this member
        is the one with untwisted products."""
        A, g, h = self.A, self.g, self.g.h
        i1, i2 = jdx, 11 - jdx
        (t1, r1), (t2, r2) = divmod(i1, 4), divmod(i2, 4)
        k1, k2 = d - _shift(i1, h), (3 * h - d) - _shift(i2, h)
        cols = self._pos(r2, t2, k2)
        rows = []
        for gen, i in self.space(r1, t1, k1):
            x, fxy = A.basis[k1][i], A.fxy[k1]
            # r1 + r2 = 3: edges pair with reversed edges, vertices with vertices
            gen2 = self.g.nu_edge_pow(gen, -self._tw(t1)) if r1 in (1, 2) else x.dst
            row = {}
            for y in A.block_index[k2].get((x.dst, g.nu_v[x.src]), ()):
                col = cols.get((gen2, y))
                if col is not None and (i, y) in fxy:
                    row[col] = fxy[i, y]
            rows.append(row)
        return rows

    def verify_duality(self) -> list:
        """mu'_i = (-1)^i (mu'_(12-i))^* exactly for i = 1..6, and
        (mu'_12)^* = mu'_12 o beta, for d = 0..3h; returns failing (i, d)
        pairs.

        At (i, d) the identity reads M_i^T P_(i-1) = (-1)^i P_i M_(12-i), with
        M the differential matrices and P the block-sparse `pairing`s.  Both
        sides are accumulated as sparse rows over the C_i(d) basis and
        compared row by row as dicts, so the work follows their support.  A
        pairing is built once: P_i is the right side at step i and the left
        side at step i + 1."""
        h, top = self.g.h, self.A.top
        pairs: dict = {}

        def pairing(jdx: int, d: int) -> list[dict]:
            hit = pairs.get((jdx, d))
            if hit is None:
                hit = pairs[(jdx, d)] = self.pairing(jdx, d)
            return hit

        bad = []
        for i in range(1, 7):
            for d in range(3 * h + 1):
                r, t, k = self._hom_params(i, d)
                rv, tv, kv = self._hom_params(12 - i, 3 * h - d)
                if not (0 <= k <= top and 0 <= kv <= top):
                    continue
                m_i = self.mat(r, t, k)
                m_v = self.mat(rv, tv, kv)
                if m_i["nd"] == 0 or m_v["nd"] == 0:
                    continue
                lhs_pair = pairing(i - 1, d)
                rhs_pair = pairing(i, d)
                m_v_rows: list[list] = [[] for _ in range(m_v["nt"])]
                for vi, col in enumerate(m_v["cols"]):
                    for q, c in col.items():
                        m_v_rows[q].append((vi, c))
                for col_w, prow in zip(m_i["cols"], rhs_pair):
                    lhs: dict = {}
                    for p, c in col_w.items():
                        linalg.axpy(lhs, lhs_pair[p].items(), c)
                    rhs: dict = {}
                    for q, c in prow.items():
                        linalg.axpy(rhs, m_v_rows[q], -c if i % 2 else c)
                    if lhs != rhs:
                        bad.append((i, d))
                        break
        if not self._check_mu12_beta():
            bad.append((12, "beta"))
        return bad

    def _check_mu12_beta(self) -> bool:
        """(mu'_12)^* = mu'_12 o beta: f(mu'_12(x) y) = f(x mu'_12(beta y))
        for x, y in the degree-zero part of A^S.

        Both sides are sparse dicts over the idempotent pairs (x, y), built in
        one pass over the support of each column: a top element t ends at one
        idempotent e_b and starts at one e_a, and t e_b = e_a t = t, so f(t)
        is the only value it contributes."""
        A, vi, T = self.A, self.g.vindex, self.A.top
        m = self.mat(4, 2, 0)
        dom = self.space(0, 0, 0)
        tgt = self.space(3, 2, T)
        # y = e_b with beta(y) = sum cc e_c, listed under c
        beta_of: dict[int, list] = {}
        for _, ib in dom:
            for ic, cc in A.beta_vec(0, A.unit(0, ib)).items():
                beta_of.setdefault(ic, []).append((ib, cc))
        lhs: dict = {}
        rhs: dict = {}
        for (_, ic), col in zip(dom, m["cols"]):
            for p, c in col.items():
                _, it = tgt[p]
                top, ft = A.basis[T][it], A.f_coeff[it]
                a, b = vi[top.src], vi[top.dst]
                linalg.axpy(lhs, [((ic, b), ft)], c)
                fa = c * ft
                for ib, cc in beta_of.get(ic, ()):
                    linalg.axpy(rhs, [((a, ib), fa)], cc)
        return lhs == rhs

    def verify_dim_symmetry(self, table: dict, max_d: int) -> list:
        """dim HH_i,d = dim HH_(11-i),(3h-d) for i = 1..10, and
        dim HH_11,d = dim HH_12,(6h-d), within table range."""
        h = self.g.h
        bad = []
        for i in range(1, 11):
            for d in range(max_d + 1):
                dd = 3 * h - d
                if 0 <= dd <= max_d:
                    if table.get((i, d), 0) != table.get((11 - i, dd), 0):
                        bad.append((i, d))
        for d in range(max_d + 1):
            dd = 6 * h - d
            if 0 <= dd <= max_d:
                if table.get((11, d), 0) != table.get((12, dd), 0):
                    bad.append((11, d))
        return bad

    def verify_periodicity(self, table: dict, max_i: int, max_d: int) -> list:
        h = self.g.h
        bad = []
        for i in range(12, max_i + 1):
            for d in range(max_d + 1):
                if d - 3 * h >= 0 and i - 12 >= 1:
                    if table.get((i, d), 0) != table.get((i - 12, d - 3 * h), 0):
                        bad.append((i, d))
        if self.trivial_nu:
            for i in range(5, max_i + 1):
                for d in range(max_d + 1):
                    if d - h >= 0 and i - 4 >= 1:
                        if table.get((i, d), 0) != table.get((i - 4, d - h), 0):
                            bad.append((i, d))
        return bad

    # -- cohomology cross-checks ----------------------------------------------------

    def verify_cohomology_routes(self, hh: dict, coh: dict, max_i: int) -> list:
        """HH^i from the cohomology complex vs the identification formulas:
        HH^i = HH_(3-i)[-3] (i=1,2), HH^i = HH_(15-i)[-3h-3] (i=3..13)."""
        h = self.g.h
        bad = []
        coh_by_i: dict[int, dict] = {}
        for (i, d), v in coh.items():
            coh_by_i.setdefault(i, {})[d] = v
        for i in range(1, min(max_i, 13) + 1):
            want: dict[int, int] = {}
            if i in (1, 2):
                for (ii, d), v in hh.items():
                    if ii == 3 - i:
                        want[d - 3] = v
            else:
                for (ii, d), v in hh.items():
                    if ii == 15 - i:
                        want[d - 3 * h - 3] = v
            if coh_by_i.get(i, {}) != want:
                bad.append(i)
        return bad

    def verify_hh0_cohomology(self, hh: dict, coh: dict) -> bool:
        """HH^0 = HH_3'[-3] (+) L with L spanned by the u_j at fixed vertices.
        HH^0 = ker mu_1^* is row 0 of the cohomology table `coh`, whose
        range starts below degree 0, where the chain spaces vanish."""
        got = {d: v for (i, d), v in coh.items() if i == 0}
        want: dict[int, int] = {}
        for d in range(3, self.g.h):
            v = hh.get((3, d), 0)
            if v:
                want[d - 3] = v
        nfix = sum(1 for v in self.g.vertices if self.g.nu_v[v] == v)
        if nfix:
            want[self.A.top] = want.get(self.A.top, 0) + nfix
        return got == want


# ---------------------------------------------------------------------------
# HH_0 by commutators (independent of the complex)
# ---------------------------------------------------------------------------

def hh0_direct(A: GradedAlgebra) -> dict[int, int]:
    """Graded dimensions of A/[A,A] per degree (including degree 0), from
    the commutators [e, y] of an edge e: s -> t with a basis element y of
    degree k - 1 in block (t, s).

    The identity [xy, z] = [x, yz] + [y, zx] gives [A, A] = [A_1, A] +
    [A_0, A] by induction on deg x, as A is generated in degree 1.  It needs
    A associative, which the Hilbert gate and `spot_associativity` back.
    [A_0, A] is zero on the cyclic blocks e_v A e_v and is all of every
    other block, so A_k/[A,A]_k is the cyclic part of A_k modulo the cyclic
    part of [A_1, A_(k-1)].  Of y's blocks only (t, s) puts [e, y] there."""
    g = A.graph
    out = {0: len(g.vertices)}
    for k in range(1, A.top + 1):
        cyclic = [i for (s, d), idxs in A.block_index[k].items() if s == d for i in idxs]
        pos = {i: p for p, i in enumerate(cyclic)}
        commutators = []
        for (s, t), edges in A.block_index[1].items():
            ys = A.block_index[k - 1].get((t, s), [])
            for i in edges:
                for yi in ys:
                    ey = A.mul_basis(1, i, k - 1, yi)
                    ye = A.mul_basis(k - 1, yi, 1, i)
                    vec = {pos[ii]: c for ii, c in ey.items()}
                    linalg.axpy(vec, ((pos[ii], -c) for ii, c in ye.items()))
                    commutators.append(vec)
        dim = len(cyclic) - linalg.rank(commutators)
        if dim:
            out[k] = dim
    return out


# ---------------------------------------------------------------------------
# cyclic homology via the Connes-sequence bookkeeping
# ---------------------------------------------------------------------------

def cyclic_from_hh(hh_reduced: dict, max_d: int, max_i: int) -> dict[tuple[int, int], int]:
    """Reduced HC from reduced HH by the exactness recursion
    HC_n,d = HH_(n+1),d - HC_(n+1),d downward from the vanishing range,
    validated by HC_0 = HH_0 per degree.  Keys (i, d) with nonzero entries."""
    out: dict[tuple[int, int], int] = {}
    by_d: dict[int, dict[int, int]] = {}
    for (i, d), v in hh_reduced.items():
        by_d.setdefault(d, {})[i] = v
    for d in range(max_d + 1):
        col = by_d.get(d, {})
        if not col:
            continue
        top = max(col)
        hc_next = 0  # HC vanishes above the last nonzero HH index
        vals = {}
        for n in range(top, -1, -1):
            hc_n = col.get(n + 1, 0) - hc_next
            if hc_n < 0:
                raise AlgebraError(f"negative HC at (i={n}, d={d})")
            vals[n] = hc_n
            hc_next = hc_n
        if vals.get(0, 0) != col.get(0, 0):
            raise AlgebraError(f"HC_0 != HH_0 at degree {d}")
        for n, v in vals.items():
            if v and n <= max_i:
                out[(n, d)] = v
    return out


def euler_from_hc(hc_reduced: dict, max_d: int) -> list[int]:
    """sum_i (-1)^i H_(HC_i)(t) through degree max_d."""
    out = [0] * (max_d + 1)
    for (i, d), v in hc_reduced.items():
        if d <= max_d:
            out[d] += v if i % 2 == 0 else -v
    return out


# ---------------------------------------------------------------------------
# resolution exactness, on the one-sided complex P (x)_A A_0
# ---------------------------------------------------------------------------

class _Resolution:
    """The period-4 window of the superpotential resolution P of A as an
    A-bimodule (Bocklandt, JPAA 212, 2008) over F_p, and the one-sided
    complex P (x)_A A_0 on which its exactness is ranked.

    P_r = A (x) V_r (x) A on the generators of `_generators`, and stage 5
    is stage 1 shifted by h.  Every P_r is free as a right A-module, and so
    is A.  For such a bounded graded complex with d o d = 0,
    A <- P_0 <- ... <- P_5 is exact iff P (x)_A A_0 is (Butler and King, Minimal resolutions of
    algebras, J. Algebra 212, 1999):
    - an exact bounded complex of right-projectives splits as right
      modules, so it stays exact under (x)_A A_0;
    - conversely, by induction from A upwards: when the complex is exact
      below r, ker mu_r (x)_A A_0 = ker(mu_r (x) A_0), so P_(r+1) -> ker mu_r
      is onto modulo the radical, and so onto by graded Nakayama.
    The premise d o d = 0 is `_d_squared`, on bimodule generators.

    P_r (x)_A A_0 = A (x) V_r: the elements x (x) gen (x) e_v, in blocks
    (d, u, v) with u the source of x and v the vertex of the simple, which
    every map preserves.  A term (l, v', r, c) of mu_r(gen) sends such an
    element to c (x l) (x) v' when r is an idempotent and to 0 otherwise, as
    r then lies in the radical.  So the rows are `apply_mu`, the term rule
    of the Hochschild matrices, on these one-sided terms, with each product
    x l one `A.mul_basis` call.  Their left factor l is an edge, whose x l
    is a `red` entry, or in mu_4 the top element w whose dual is an
    idempotent, which only an idempotent x meets, with x w = w.  A block
    is nonzero only for d <= top + h, so ranking every block covers every
    degree.  Each block is ranked by `linalg.rank`, the same elimination
    that gives the exact ranks.

    A block is ranked once per orbit of (d, u, v) -> (d, nu u, nu v), and
    the orbit shares its rank rows, when the premise `shared` holds:
    - b, the Nakayama automorphism, is an algebra automorphism of A:
      `build_form` checks (x, y) = (y, b(x)) exactly on every pairing pair,
      with f nondegenerate.  So is its image over F_p, which nu^3 = 1 makes
      invertible (b^3 = 1).  b carries e_u A e_a onto e_(nu u) A e_(nu a).
    - `shared`: for every stage r and generator gen, the one-sided terms
      of mu_r(gen) and mu_r(nu gen) satisfy, over F_p,
        sum c b(l) (x) nu(v') = sum c l (x) v'  (terms of gen on the left,
      of nu gen on the right), with b(l) the nu-image of an edge l, and a
      unit times the top element at nu m for the top element at m.
    Then x (x) gen -> b(x) (x) nu(gen) maps block (d, u, v) of every stage
    bijectively onto (d, nu u, nu v) and commutes with the one-sided maps,
    as b(x l) = b(x) b(l); so the blocks of an orbit have equal ranks and
    dimensions.  Where the premise fails, every block is ranked.

    The maps are the terms of `self.mu`, read on the first `degree`, over
    the image `A.reduce_mod(emb)` of the algebra at the prime embedding,
    with the terms of `hom.mu` reduced alongside.  That image is built once,
    on construction; a denominator that vanishes mod p raises
    ZeroDivisionError there, before any rank is taken.  A mod-p rank is at
    most the exact rank, so ranks that meet the dimension bound pin the
    exact ranks and certify exactness.
    """

    def __init__(self, hom: Homology, emb: PrimeEmbedding):
        self.g, self.p = hom.g, emb.p
        self.A = A = hom.A.reduce_mod(emb)
        self.mu = {r: {v: [(l, w, rt, scalar.residue(c, emb)) for l, w, rt, c in terms]
                       for v, terms in tab.items()}
                   for r, tab in hom.mu.items()}
        self.gdeg = _gen_degrees(self.g.h)
        # blocks of A by their end: ends[k][m] = [(u, idxs)]
        self.ends: list[dict] = [{} for _ in range(A.top + 1)]
        for k, blocks in enumerate(A.block_index):
            for (s, t), idxs in blocks.items():
                self.ends[k].setdefault(t, []).append((s, idxs))

    @cached_property
    def one_sided(self) -> dict:
        """{stage: {gen: terms}}: the terms (l, v', r, c) of mu_stage(gen)
        whose right factor r is an idempotent."""
        return {r: {gen: [t for t in terms if not t[2][0]] for gen, terms in self.mu[r].items()}
                for r in range(1, 5)}

    @cached_property
    def shared(self) -> bool:
        """The premise of sharing rank rows along nu-orbits of blocks (see
        the class): for every stage r and generator gen, sum c b(l) (x)
        nu(v') over the one-sided terms of mu_r(gen) equals sum c l (x) v'
        over those of mu_r(nu gen), exactly over F_p.  False for trivial
        nu, where every orbit is one block."""
        g, A, p = self.g, self.A, self.p
        if g.nu_is_trivial():
            return False

        def nu(r: int, gen):  # nu on the generators of V_r
            return g.nu_e[gen] if r in (1, 2) else g.nu_v[gen]

        for r, tab in self.one_sided.items():
            for gen, terms in tab.items():
                image: dict = {}
                for (kl, il), v, _, c in terms:
                    linalg.axpy(image, (((kl, j, nu(r - 1, v)), b)
                                        for j, b in A.beta_basis(kl, il).items()), c, p)
                own: dict = {}
                for (kl, il), v, _, c in tab[nu(r, gen)]:
                    linalg.axpy(own, (((kl, il, v), c),), p=p)
                if image != own:
                    return False
        return True

    def _bases(self, stage: int, d: int) -> dict:
        """The domain of stage at total degree d, {(u, b): [(gen, x)]}: the
        elements x (x) gen (x) e_b of A (x) V_stage, x running from u to a,
        for each generator (gen, a, b) of `_generators`."""
        n = d - self.gdeg[stage]
        out: dict = {}
        if 0 <= n <= self.A.top:
            for gen, a, b in _generators(self.g, stage):
                for u, xs in self.ends[n].get(a, ()):
                    out.setdefault((u, b), []).extend((gen, x) for x in xs)
        return out

    def _rows(self, stage: int, d: int, dom: list, tgt: list) -> list[dict]:
        """Rows of mu_stage (x) A_0 on one block, over target positions:
        the identity of A_0 = S for mu_0, the only degree it meets, and
        otherwise `apply_mu` on the one-sided terms of mu_stage(gen)."""
        A, one = self.A, self.A.one
        if stage == 0:
            return [{t: one} for t in range(len(dom))]
        k, terms = d - self.gdeg[stage], self.one_sided[stage]
        pos = {elt: t for t, elt in enumerate(tgt)}
        return [apply_mu(A, terms[gen], k, {x: one}, pos) for gen, x in dom]

    def degree(self, d: int) -> dict:
        """{(u, v): [(rank, dim domain, dim target) of mu_0..mu_4 (x) A_0]}
        for every block at total degree d with a nonzero space; other blocks
        are zero.  Under `shared`, one block per nu-orbit is ranked, the
        first one met, and the orbit shares its rows."""
        bases = [self._bases(stage, d) for stage in range(5)]
        targets = [bases[0] if d == 0 else {}] + bases[:4]
        nu = self.g.nu_v
        out: dict = {}
        for blk in dict.fromkeys(b for stage in bases for b in stage):
            if blk in out:
                continue
            row = []
            for stage in range(5):
                dom, tgt = bases[stage].get(blk, ()), targets[stage].get(blk, ())
                rk = linalg.rank(self._rows(stage, d, dom, tgt), self.p) if dom and tgt else 0
                row.append((rk, len(dom), len(tgt)))
            out[blk] = row
            if self.shared:
                u, v = blk
                out[nu[u], nu[v]] = out[nu[nu[u]], nu[nu[v]]] = row
        return out


# primes tried for the modular certificate before it gives up
_PRIME_TRIES = 4


def _left_edges(A: GradedAlgebra) -> list[dict]:
    """left[k][(e, i)] = e x_i, for an edge e into the source of the degree-k
    basis element x_i, k < top: the left-edge table `_d_squared` reads.

    Each basis element of degree k >= 1 is a basis element x' of degree
    k - 1, its recorded prefix `A.prefix`, times an edge f, as the basis
    grows one edge at a time from the surviving monomials; so the table is
    built upwards, e x_i = (e x') f, one `mul_edge` on the row below."""
    g = A.graph
    left = [{(e.id, g.vindex[e.dst]): {A.edge_index[e.id]: A.one} for e in g.edges}]
    for k in range(1, A.top):
        below, row = left[-1], {}
        for i, x in enumerate(A.basis[k]):
            i0 = A.prefix[k][i]
            for e in g.in_edges[x.src]:
                row[e.id, i] = A.mul_edge(k, below[e.id, i0], x.path[-1])
        left.append(row)
    return left


def _d_squared(A: GradedAlgebra, mu: dict) -> list:
    """Generators v of V_r, r = 1..5, with mu_(r-1) mu_r (1 (x) v (x) 1)
    nonzero, for the table mu over A: `d2-exact` over the tower, `d2-modp`
    over F_p, where the maps that are ranked must form a complex too.  mu_5
    is mu_1 into the nu-twisted V_4, h degrees up.

    A term (l, v', r, c) of mu_r(v) and a term (l', v'', r', c') of
    mu_(r-1)(v') give c c' (l l') (x) v'' (x) (r' r~), with r~ = b(r) when
    mu_(r-1) is mu_4 and r~ = r otherwise; mu_0 multiplies, to l r.  Each
    composite is accumulated inline and tested for zero once, at the end.

    For mu_3 mu_4 and mu_4 mu_5 this is the Casimir identity of the form's
    dual bases: mu_3 mu_4 = 0 says sum_w w e (x) w* = sum_w w (x) e w* for
    every edge e, and mu_4 mu_5 = 0 says sum_w e w (x) w* = sum_w w (x)
    w* b(e), the same with the b twist.  It is checked on mu's own terms,
    so a fault in the table shows.

    Every product of the terms of `differentials` has an edge or an
    idempotent as one factor, as only mu_4's factors w, w* reach degree 2:
    its products are w e and e w* in mu_3 mu_4, and e w and w* b(e) in
    mu_4 mu_5.  x e is read off `A.red`, and e x off the left-edge table of
    `_left_edges`, which this call builds and drops.  This reader is the one
    product rule besides `A.mul_basis`, which has no left-edge table: it
    would walk every e x below the top degree along the path of x, and on
    the image over F_p those of degree top too."""
    p, top, red, one = A.p, A.top, A.red, A.one
    left = _left_edges(A) if top else []
    edge_of = [b.path[0] for b in A.basis[1]] if top else []

    def mul(k1: int, i1: int, k2: int, i2: int):
        """The (index, value) pairs of x_i1 x_i2, one factor of degree <= 1;
        the terms meet at their generators' ends, so the factors compose."""
        if k1 + k2 > top:
            return ()
        if not k1:
            return ((i2, one),)
        if not k2:
            return ((i1, one),)
        if k2 == 1:
            return red[k1 + 1].get((i1, edge_of[i2]), {}).items()
        return left[k2].get((edge_of[i1], i2), {}).items()

    check = "d2-modp" if p else "d2-exact"
    bad = []
    for r in range(1, 6):
        lower = mu[4 if r == 5 else r - 1] if r > 1 else None
        for gen, terms in mu[(r - 1) % 4 + 1].items():
            acc: dict = {}
            for (kl, il), v, (kr, ir), c in terms:
                right = A.beta_basis(kr, ir).items() if r == 5 else ((ir, one),)
                for jr, b in right:
                    cb = c * b
                    if lower is None:  # mu_0
                        for j, a in mul(kl, il, kr, jr):
                            x, cur = cb * a, acc.get((kl + kr, j))
                            acc[kl + kr, j] = x if cur is None else cur + x
                        continue
                    for (kl2, il2), w, (kr2, ir2), c2 in lower[v]:
                        cc, rr = cb * c2, mul(kr2, ir2, kr, jr)
                        for j, a in mul(kl, il, kl2, il2):
                            ca = cc * a
                            for jj, bb in rr:
                                key = (kl + kl2, j, w, kr2 + kr, jj)
                                x, cur = ca * bb, acc.get(key)
                                acc[key] = x if cur is None else cur + x
            if any(x % p if p else x for x in acc.values()):
                bad.append((check, r, gen))
    return bad


def verify_resolution(hom: Homology) -> dict:
    """Certified exactness of the bimodule resolution in every degree.

    The maps are those of `differentials`.  d o d = 0 is checked on
    bimodule generators, for mu_0 mu_1 up to mu_4 mu_5, by one function,
    `_d_squared`: first over the tower, which is the premise of the theorem
    below, then on the modular image of each prime, `_Resolution`'s algebra
    and table, before any rank is taken.  With d o d = 0, the complex of
    right-free modules A <- P_0 <- ... <- P_5 is exact iff P (x)_A A_0 is
    (Butler and King, J. Algebra 212, 1999; both directions are in
    `_Resolution`, the converse by graded Nakayama).  That one-sided complex vanishes above degree
    top + h, the `cutoff`, and its exactness follows from ranks taken over
    the modular image, built once per prime, one block per nu-orbit where
    `_Resolution.shared` holds: a mod-p rank is at most the exact rank, so
    mod-p ranks that meet the dimension bound pin the exact ranks.  A prime whose image has a vanishing denominator is skipped, up to
    `_PRIME_TRIES` primes.  Returns `ok`, `cutoff`, `failures` (each naming
    the check and, for d o d, the index r and generator of mu_(r-1) mu_r, for
    a node its one-sided (d, u, v) block) and the `prime` that was used.
    """
    cutoff = hom.A.top + hom.g.h
    failures = _d_squared(hom.A, hom.mu)
    if failures:
        return {"ok": False, "cutoff": cutoff, "failures": failures}
    # mod-p rank certificates per node, degree and block
    for attempt in range(_PRIME_TRIES):
        emb = PrimeEmbedding.find(hom.A.tower, skip=attempt)
        try:
            res = _Resolution(hom, emb)
        except ZeroDivisionError:
            continue
        failures = _d_squared(res.A, res.mu) + _resolution_ranks(res, cutoff)
        return {"ok": not failures, "cutoff": cutoff, "failures": failures,
                "prime": emb.p}
    return {"ok": False, "cutoff": cutoff,
            "failures": [("no-usable-prime", _PRIME_TRIES)]}


def _resolution_ranks(res: _Resolution, cutoff: int) -> list:
    """Exactness failures of P (x)_A A_0; empty means certified exact.

    Nodes beyond stage 4 repeat with shift h, so checking nodes 0..4 at all
    degrees <= cutoff = top + h, where every block vanishes beyond, covers
    the whole periodic complex.  A block absent from `res.degree(d)` is zero
    at every stage, and so is its stage 5 (whose domain has the dimension of
    stage 4's), so it is exact."""
    g = res.g
    vi = g.vindex
    failures = []
    rank1: dict = {}  # (d, u, v) -> rank of mu_1, reread as mu_5 at degree d + h
    for d in range(cutoff + 1):
        blocks = res.degree(d)
        for u, v in sorted(blocks, key=lambda b: (vi[b[0]], vi[b[1]])):
            row = blocks[(u, v)]
            # mu5 at the twisted block (d,u,v) equals mu1 at (d-h, u, nu^-1 v)
            ranks = [rk for rk, _, _ in row] + [rank1.get((d - g.h, u, g.nu_vertex_pow(v, 2)), 0)]
            rank1[(d, u, v)] = ranks[1]
            if ranks[0] != row[0][2]:
                failures.append(("mu0-not-surjective", d, u, v))
            for node in range(5):
                if ranks[node] + ranks[node + 1] != row[node][1]:
                    failures.append((f"node{node}", d, u, v))
    return failures


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

@dataclass
class HomologyReport:
    graph: str
    cells: str
    max_index: int
    cutoff: int
    hh: dict
    hc: dict
    cohomology: dict
    hh0: dict
    checks: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)  # failing check -> first 10 locations

    @property
    def ok(self) -> bool:
        return all(self.checks.values())

    def to_doc(self) -> dict:
        def tab(t):
            out: dict[str, dict[str, int]] = {}
            for (i, d), v in sorted(t.items()):
                out.setdefault(str(i), {})[str(d)] = v
            return out

        doc = {
            "schema": "acy-report/1",
            "graph": self.graph,
            "cells": self.cells,
            "cutoffs": {"index": self.max_index, "degree": self.cutoff},
            "tables": {"hh": tab(self.hh), "hc": tab(self.hc),
                       "cohomology": tab(self.cohomology),
                       "hh0": {str(d): v for d, v in sorted(self.hh0.items())}},
            "checks": dict(sorted(self.checks.items())),
        }
        if self.failures:
            doc["failures"] = dict(sorted(self.failures.items()))
        return doc

    def render_text(self) -> str:
        def series_str(row: dict[int, int]) -> str:
            if not row:
                return "0"
            parts = []
            for d, v in sorted(row.items()):
                if d == 0:
                    parts.append(f"{v}")
                else:
                    parts.append(("" if v == 1 else f"{v}") + (f"t^{d}" if d != 1 else "t"))
            return " + ".join(parts)

        lines = [f"graph {self.graph}   cells {self.cells}",
                 f"tables through homological index {self.max_index}, degree {self.cutoff}"]
        for title, name, table in (("Hochschild homology (graded dimensions):", "HH_", self.hh),
                                   ("cyclic homology:", "HC_", self.hc),
                                   ("Hochschild cohomology:", "HH^", self.cohomology)):
            by_i: dict[int, dict[int, int]] = {}
            for (i, d), v in table.items():
                by_i.setdefault(i, {})[d] = v
            lines += ["", title]
            lines += [f"  {name}{i:<2} = {series_str(by_i.get(i, {}))}"
                      for i in range(self.max_index + 1)]
        lines.append("")
        lines.append("checks: " + ", ".join(f"{k}={'pass' if v else 'FAIL'}"
                                            for k, v in sorted(self.checks.items())))
        lines += [f"{k} failed at: {json.dumps(v)}" for k, v in sorted(self.failures.items())]
        return "\n".join(lines)


def build_report(A: GradedAlgebra, cells: CellSystem, max_index: int = 13,
                 cutoff: int | None = None, with_resolution: bool = True) -> HomologyReport:
    """Full pipeline after the algebra: complexes, tables, verifications."""
    g = A.graph
    h = g.h
    cutoff = cutoff if cutoff is not None else 4 * h
    hom = Homology(A)
    i_full = Homology.index_bound(h, cutoff, max_index)
    hh_full = hom.hh_table(i_full, cutoff)
    hh = {(i, d): v for (i, d), v in hh_full.items() if i <= max_index}
    reduced = hom.reduced(hh_full)
    hc_red = cyclic_from_hh(reduced, cutoff, i_full)
    hc = {(i, d): v for (i, d), v in hc_red.items() if i <= max_index}
    if (0, 0) in hh_full:
        hc[(0, 0)] = hh_full[(0, 0)]  # HC_0 = S (+) reduced part
    coh = hom.coh_table(min(max_index, 13), -3 * h - 3, A.top)
    hh0 = hh0_direct(A)
    checks = {}
    checks["hilbert"] = True  # enforced during algebra construction
    failures = {"d2": hom.check_d_squared(min(max_index + 1, 14), cutoff)}
    hh0_complex = {d: v for (i, d), v in hh_full.items() if i == 0}
    checks["hh0_cross"] = hh0_complex == {d: v for d, v in hh0.items() if v}
    failures["duality"] = hom.verify_duality()
    failures["dim_symmetry"] = hom.verify_dim_symmetry(hh_full, cutoff)
    failures["periodicity"] = hom.verify_periodicity(hh_full, i_full, cutoff)
    chi = series.euler_characteristic_hc(g, cutoff)
    checks["euler"] = euler_from_hc(hc_red, cutoff) == chi
    failures["cohomology_routes"] = hom.verify_cohomology_routes(
        hh_full, coh, min(max_index, 13))
    checks["hh0_cohomology"] = hom.verify_hh0_cohomology(hh_full, coh)
    if with_resolution:
        # the certificate checks d o d on generators first, which sees the
        # faults in mu_4 that the Hochschild maps miss
        failures["exactness"] = verify_resolution(hom)["failures"]
        failures["d2"] += [f for f in failures["exactness"] if f[0] == "d2-exact"]
    checks.update((k, not bad) for k, bad in failures.items())
    return HomologyReport(g.name, cells.label, max_index, cutoff, hh, hc, coh, hh0,
                          checks, {k: bad[:10] for k, bad in failures.items() if bad})
