"""Reference oracles that the tests compare acy against.

- `gauge_transform`: cells moved by a unitary gauge on the parallel edges,
  which must keep type I and II.
- `brute_triangles`, `brute_equations`: the closed 3-loops and the type I
  and II equations, listed from every edge tuple without `Graph.between`,
  which `Graph.triangles` and `compile_equations` must equal, order included.
- `standard_relations_e8star`, `standard_relations_e8`: the E8* relations
  in their closed form and their threefold unfolding, which must build the
  same algebra as the relations derived from the built-in cells.
- `structure_from_euler`, `predicted_tables`: the structure theorem's
  blocks, solved from the Euler characteristic, and the periodic HH/HC
  tables they predict.
- `path_class`: the class of a raw path in the quotient, walked one edge
  after another with `GradedAlgebra.mul_path`, which every product
  `GradedAlgebra.mul_basis` takes must equal.
- `beta_walk`: the Nakayama automorphism on a basis element as the class
  of its whole nu-path, which `GradedAlgebra.beta_basis`, grown one edge at
  a time, must equal.
- `resolution_blocks`: the rank rows of every block of the one-sided
  resolution complex, each block ranked on its own and its rows built from
  their definition, with each product walked along the joined path, which
  `_Resolution.degree` must equal.
"""

from __future__ import annotations

from acy import linalg
from acy.algebra import AlgebraError
from acy.cells import CellSystem, Relation, RelationSet, canon
from acy.quiver import Graph, build_family
from acy.scalar import FieldTower, Scalar


# ---------------------------------------------------------------------------
# gauge action
# ---------------------------------------------------------------------------

def gauge_transform(cells: CellSystem, u: dict) -> CellSystem:
    """Apply a family of unitaries u[(src, dst)] (matrices over parallel edges).

    Missing classes default to the identity.  Unitarity is checked exactly.
    """
    g = cells.graph
    tower = cells.tower
    mats = {}
    for key, es in g.between.items():
        m = u.get(key)
        if m is None:
            continue
        n = len(es)
        if len(m) != n or any(len(row) != n for row in m):
            raise ValueError(f"gauge matrix at {key} has wrong shape")
        m = [[x.lift(tower) if isinstance(x, Scalar) else tower.from_fraction(x)
              for x in row] for row in m]
        for i in range(n):
            for j in range(n):
                acc = tower.zero()
                for k in range(n):
                    acc = acc + m[i][k] * m[j][k].conjugate()
                if acc != (tower.one() if i == j else tower.zero()):
                    raise ValueError(f"gauge matrix at {key} is not unitary")
        mats[key] = {(es[i].id, es[j].id): m[i][j] for i in range(n) for j in range(n)}

    def factor(e_new: int, e_old: int) -> Scalar | None:
        e = g.edge_by_id[e_new]
        m = mats.get((e.src, e.dst))
        if m is None:
            return tower.one() if e_new == e_old else None
        return m.get((e_new, e_old))

    weights = {}
    for t in g.triangles():
        a, b, c = t
        acc = tower.zero()
        ea, eb, ec = (g.edge_by_id[x] for x in t)
        for a2 in g.between[(ea.src, ea.dst)]:
            fa = factor(a, a2.id)
            if fa is None or fa.is_zero():
                continue
            for b2 in g.between[(eb.src, eb.dst)]:
                fb = factor(b, b2.id)
                if fb is None or fb.is_zero():
                    continue
                for c2 in g.between[(ec.src, ec.dst)]:
                    fc = factor(c, c2.id)
                    if fc is None or fc.is_zero():
                        continue
                    acc = acc + fa * fb * fc * cells.weights[canon((a2.id, b2.id, c2.id))]
        weights[t] = acc
    return CellSystem(g, tower, weights, label=cells.label + "+gauge")


# ---------------------------------------------------------------------------
# brute-force triangles and cell equations
# ---------------------------------------------------------------------------

def _edges(g: Graph, src: str | None = None, dst: str | None = None) -> list:
    """The edges from src to dst, either end free when None, by a full scan."""
    return [e for e in g.edges
            if (src is None or e.src == src) and (dst is None or e.dst == dst)]


def brute_triangles(g: Graph) -> list[tuple[int, int, int]]:
    """The closed 3-loops, one canonical rotation each, sorted."""
    return sorted({canon((a.id, b.id, c.id)) for a in g.edges
                   for b in _edges(g, src=a.dst) for c in _edges(g, b.dst, a.src)})


def brute_equations(g: Graph) -> list[tuple]:
    """(kind, frame, terms, rhs) of each type I and II equation, in the order
    of `compile_equations`, with terms (coeff, ((tri, conj), ...)).

    Type I: a pair of parallel edges a, a': i -> j, by (i, j), sums
    W(a b1 b2) conj W(a' b1 b2) over the paths b1 b2: j -> i.  Type II: a
    frame a1: i4 -> i1, a2: i2 -> i1, a3: i2 -> i3, a4: i4 -> i3, by i2,
    sums W(a2 b1 b2) conj W(a3 b3 b2) W(a4 b3 b4) conj W(a1 b1 b4) / phi_k
    over k in vertex order and b1: i1 -> k, b2: k -> i2, b3: i3 -> k,
    b4: k -> i4."""
    tower, phi = g.tower, g.phi
    one, zero = tower.one(), tower.zero()
    out = []
    pairs = [(a, a2) for a in g.edges for a2 in _edges(g, a.src, a.dst)]
    for a, a2 in sorted(pairs, key=lambda p: (p[0].src, p[0].dst)):
        i, j = a.src, a.dst
        terms = [(one, ((canon((a.id, b1.id, b2.id)), False),
                        (canon((a2.id, b1.id, b2.id)), True)))
                 for b1 in _edges(g, src=j) for b2 in _edges(g, b1.dst, i)]
        rhs = tower.quantum(2) * phi[i] * phi[j] if a.id == a2.id else zero
        out.append(("I", (a.id, a2.id), terms, rhs))
    for i2 in g.vertices:
        for a2 in _edges(g, src=i2):
            for a3 in _edges(g, src=i2):
                for a1 in _edges(g, dst=a2.dst):
                    for a4 in _edges(g, a1.src, a3.dst):
                        i1, i3, i4 = a2.dst, a3.dst, a1.src
                        terms = [(phi[k].inverse(), ((canon((a2.id, b1.id, b2.id)), False),
                                                     (canon((a3.id, b3.id, b2.id)), True),
                                                     (canon((a4.id, b3.id, b4.id)), False),
                                                     (canon((a1.id, b1.id, b4.id)), True)))
                                 for k in g.vertices
                                 for b1 in _edges(g, i1, k) for b2 in _edges(g, k, i2)
                                 for b3 in _edges(g, i3, k) for b4 in _edges(g, k, i4)]
                        rhs = zero
                        if a1.id == a4.id and a2.id == a3.id:
                            rhs = rhs + phi[i4] * phi[i1] * phi[i2]
                        if a1.id == a2.id and a3.id == a4.id:
                            rhs = rhs + phi[i1] * phi[i2] * phi[i3]
                        out.append(("II", (a1.id, a2.id, a3.id, a4.id), terms, rhs))
    return out


# ---------------------------------------------------------------------------
# closed-form E8* and E8 relations
# ---------------------------------------------------------------------------

def standard_relations_e8star(graph: Graph | None = None) -> RelationSet:
    """The eight closed-form relations of the four-vertex exceptional graph."""
    g = graph if graph is not None else build_family("E8*")
    base = FieldTower(8)
    tower, s3 = base.adjoin_sqrt(base.quantum(3))
    one = tower.one()
    inv_s3 = s3.inverse()
    q2 = tower.quantum(2)
    s3_over_2 = s3 / q2

    def eid(src, dst):
        hits = [e.id for e in g.between.get((src, dst), ())]
        if len(hits) != 1:
            raise ValueError(f"expected one edge {src}->{dst} on E8*, found {len(hits)}")
        return hits[0]

    e12, e22, e23, e32 = eid("1", "2"), eid("2", "2"), eid("2", "3"), eid("3", "2")
    e33, e31, e24, e43 = eid("3", "3"), eid("3", "1"), eid("2", "4"), eid("4", "3")
    rels = [
        Relation(e31, "1", "3", {(e12, e23): one}),                    # [123] = 0
        Relation(e12, "2", "1", {(e23, e31): one}),                    # [231] = 0
        Relation(e43, "3", "4", {(e32, e24): one}),                    # [324] = 0
        Relation(e24, "4", "2", {(e43, e32): one}),                    # [432] = 0
        Relation(e22, "2", "2", {(e22, e22): one, (e23, e32): inv_s3}),
        Relation(e33, "3", "3", {(e33, e33): one, (e32, e23): -inv_s3}),
        Relation(e23, "3", "2", {(e31, e12): s3_over_2, (e32, e22): one, (e33, e32): one}),
        Relation(e32, "2", "3", {(e24, e43): s3_over_2, (e22, e23): one, (e23, e33): one}),
    ]
    return RelationSet(g, tower, rels)


def standard_relations_e8(graph: Graph | None = None) -> RelationSet:
    """The E8 relations: the threefold unfolding of the E8* ones."""
    g = graph if graph is not None else build_family("E8")
    base_rels = standard_relations_e8star()
    edge_of = g.base_edge_of
    lift = {}
    for ce, (be, a) in edge_of.items():
        lift.setdefault(be, {})[a] = ce
    rels = []
    for r in base_rels.relations:
        for a in range(3):
            eid = lift[r.edge_id][a]
            e = g.edge_by_id[eid]
            terms = {}
            for (b, c), w in r.terms.items():
                b2 = lift[b][(a + 1) % 3]
                c2 = lift[c][(a + 2) % 3]
                terms[(b2, c2)] = w
            rels.append(Relation(eid, e.dst, e.src, terms))
    return RelationSet(g, base_rels.tower, rels)


# ---------------------------------------------------------------------------
# structure tables from the Euler characteristic
# ---------------------------------------------------------------------------

def structure_from_euler(h: int, chi: list[int], c_series: dict[int, int],
                         trivial_nu: bool, hh1: dict[int, int] | None = None,
                         hh4: dict[int, int] | None = None) -> dict:
    """Solve for the building blocks of the periodic structure tables.

    Trivial nu: chi (1 - t^h) = C - X + C*[h] - K t^h within one period;
    X in degrees 2..h-2 and K at h are disjoint, so both are determined.
    Non-trivial nu: K1 from degree h of chi (1 - t^3h); X1 = HH1 - C and
    X3 = HH4 - K1[h] from the computed tables; then X2, X4, K2 degreewise.
    """
    def refl(s: dict[int, int], shift: int) -> dict[int, int]:
        return {shift - d: v for d, v in s.items()}

    def sub(a: dict, b: dict) -> dict:
        out = dict(a)
        for d, v in b.items():
            out[d] = out.get(d, 0) - v
            if not out[d]:
                del out[d]
        return out

    C = dict(c_series)
    # chi (1 - t^period) through degree 4h
    period = h if trivial_nu else 3 * h
    coeff = [(chi[d] if d < len(chi) else 0) - (chi[d - period] if d >= period else 0)
             for d in range(4 * h + 1)]
    if trivial_nu:
        lhs = sub(sub({d: coeff[d] for d in range(len(coeff)) if coeff[d]}, C),
                  refl(C, h))
        X = {}
        K = {}
        for d, v in lhs.items():
            if d == h:
                K[0] = -v
            elif 2 <= d <= h - 2:
                X[d] = -v
            elif v:
                raise AlgebraError(f"structure bookkeeping leftover at degree {d}: {v}")
        if any(v < 0 for v in X.values()) or K.get(0, 0) < 0:
            raise AlgebraError("negative structure dimensions")
        return {"C": C, "X": X, "K": K}
    K1 = {}
    if coeff[h]:
        K1 = {0: -coeff[h]}
        if K1[0] < 0:
            raise AlgebraError("negative K1")
    if hh1 is None or hh4 is None:
        raise AlgebraError("non-trivial nu requires computed HH1 and HH4 tables")
    X1 = sub(dict(hh1), C)
    X3 = sub(dict(hh4), {d + h: v for d, v in K1.items()})
    if any(v < 0 for v in X1.values()) or any(v < 0 for v in X3.values()):
        raise AlgebraError("negative X1/X3")
    # X2 at degrees 2..h-1: coeff_d = C - X1 + X2 (below h)
    X2 = {}
    for d in range(0, h):
        v = coeff[d] - C.get(d, 0) + X1.get(d, 0)
        if v:
            X2[d] = v
    X4 = {}
    for d in range(h + 1, 2 * h - 1):
        v = X3.get(d, 0) + X3.get(3 * h - d, 0) - coeff[d]
        if v:
            X4[d] = v
    K2 = {}
    v = -coeff[3 * h]
    if v:
        K2[0] = v
    if any(x < 0 for x in list(X2.values()) + list(X4.values()) + list(K2.values())):
        raise AlgebraError("negative structure dimensions")
    return {"C": C, "X1": X1, "X2": X2, "X3": X3, "X4": X4, "K1": K1, "K2": K2}


def predicted_tables(h: int, blocks: dict, trivial_nu: bool, max_i: int, max_d: int):
    """Assemble the predicted reduced HH/HC tables from structure blocks."""
    def refl(s, shift):
        return {shift - d: v for d, v in s.items()}

    def shift(s, k):
        return {d + k: v for d, v in s.items()}

    def merge(*parts):
        out: dict[int, int] = {}
        for p in parts:
            for d, v in p.items():
                out[d] = out.get(d, 0) + v
        return {d: v for d, v in out.items() if v}

    if trivial_nu:
        C, X, K = blocks["C"], blocks["X"], blocks["K"]
        # K lives in degree 0: K[h] and K*[h] agree dimension-wise
        hh = {0: C, 1: merge(C, X), 2: merge(refl(C, h), refl(X, h)),
              3: merge(refl(C, h), shift(K, h)), 4: merge(shift(C, h), shift(K, h))}
        hc = {0: C, 1: X, 2: refl(C, h), 3: shift(K, h), 4: shift(C, h)}
        period, pshift = 4, h
    else:
        C, X1, X2 = blocks["C"], blocks["X1"], blocks["X2"]
        X3, X4, K1, K2 = blocks["X3"], blocks["X4"], blocks["K1"], blocks["K2"]
        hh = {0: C, 1: merge(C, X1), 2: merge(X2, X1), 3: merge(X2, shift(K1, h)),
              4: merge(X3, shift(K1, h)), 5: merge(X3, X4),
              6: merge(refl(X3, 3 * h), refl(X4, 3 * h)),
              7: merge(refl(X3, 3 * h), refl(K1, 2 * h)),
              8: merge(refl(X2, 3 * h), refl(K1, 2 * h)),
              9: merge(refl(X2, 3 * h), refl(X1, 3 * h)),
              10: merge(refl(C, 3 * h), refl(X1, 3 * h)),
              11: merge(refl(C, 3 * h), shift(K2, 3 * h)),
              12: merge(shift(C, 3 * h), shift(K2, 3 * h))}
        hc = {0: C, 1: X1, 2: X2, 3: shift(K1, h), 4: X3, 5: X4,
              6: refl(X3, 3 * h), 7: refl(K1, 2 * h), 8: refl(X2, 3 * h),
              9: refl(X1, 3 * h), 10: refl(C, 3 * h), 11: shift(K2, 3 * h),
              12: shift(C, 3 * h)}
        period, pshift = 12, 3 * h
    out_hh: dict[tuple[int, int], int] = {}
    out_hc: dict[tuple[int, int], int] = {}
    for i in range(max_i + 1):
        if i <= period:
            base, lift = i, 0
        else:
            base = (i - 1) % period + 1
            lift = ((i - 1) // period) * pshift
        for table, out in ((hh, out_hh), (hc, out_hc)):
            for d, v in table.get(base, {}).items():
                if 0 <= d + lift <= max_d:
                    out[(i, d + lift)] = v
    return out_hh, out_hc


# ---------------------------------------------------------------------------
# the one-sided resolution complex, block by block
# ---------------------------------------------------------------------------

def resolution_blocks(res, d: int) -> dict:
    """`_Resolution.degree(d)` with no sharing: {(u, v): [(rank, dim domain,
    dim target) of mu_0..mu_4 (x) A_0]} for every block with a nonzero
    space, each ranked on its own.  A row of stage r > 0 is built from its
    definition, not by `apply_mu`: x (x) gen goes to the sum of c (x l) (x)
    v' over the terms (l, v', r, c) of mu_r(gen) whose right factor r is an
    idempotent, with x l the class of the joined path in `res.A`."""
    A = res.A
    bases = [res._bases(stage, d) for stage in range(5)]
    targets = [bases[0] if d == 0 else {}] + bases[:4]

    def row(stage: int, gen, x: int, pos: dict) -> dict:
        k = d - res.gdeg[stage]
        b, out = A.basis[k][x], {}
        for (kl, il), v, (kr, _), c in res.mu[stage][gen]:
            if not kr:
                xl = path_class(A, b.src, b.path + A.basis[kl][il].path)
                linalg.axpy(out, ((pos[v, j], a) for j, a in xl.items()), c, res.p)
        return out

    out = {}
    for blk in set().union(*bases):
        out[blk] = []
        for stage in range(5):
            dom, tgt = bases[stage].get(blk, []), targets[stage].get(blk, [])
            rk = 0
            if dom and tgt:
                pos = {elt: t for t, elt in enumerate(tgt)}
                rows = [{t: A.one} for t in range(len(dom))] if stage == 0 else [
                    row(stage, gen, x, pos) for gen, x in dom]
                rk = linalg.rank(rows, res.p)
            out[blk].append((rk, len(dom), len(tgt)))
    return out


# ---------------------------------------------------------------------------
# paths in the quotient, and the Nakayama automorphism
# ---------------------------------------------------------------------------

def path_class(A, src: str, path: tuple[int, ...]) -> dict:
    """The class of the raw path from src in A, as a vector of its degree:
    the idempotent at src times one edge after another, by `A.mul_path`."""
    return A.mul_path(0, {A.graph.vindex[src]: A.one}, path)[1]


def beta_walk(A, k: int, i: int) -> dict:
    """beta(x) for the degree-k basis element x_i: its nu-path reduced from
    nu of its source, one edge after another."""
    g, b = A.graph, A.basis[k][i]
    return path_class(A, g.nu_v[b.src], tuple(g.nu_e[e] for e in b.path))
