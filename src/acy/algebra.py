"""The graded quotient algebra A = CG / <degree-2 relations>, built degree by
degree with exact linear algebra.

Degree k arises from degree k-1 by appending edges and imposing the images
of (basis of A_{k-2}) x (relations); the quotient basis is in echelon form
with respect to the lexicographic path order, so every basis element is a
monomial path and results are reproducible.  Construction hard-fails unless
the graded dimensions match the closed-form Hilbert series coefficient by
coefficient, and the top degree pairs one-dimensionally along nu.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from . import linalg, scalar, series
from .cells import RelationSet
from .quiver import Graph
from .scalar import PrimeEmbedding, Scalar

__all__ = ["GradedAlgebra", "AlgebraError", "BasisElt"]


class AlgebraError(RuntimeError):
    pass


@dataclass(frozen=True)
class BasisElt:
    path: tuple[int, ...]
    src: str
    dst: str


class GradedAlgebra:
    """Bases, reduction tables, multiplication, the non-degenerate form and
    its dual bases, and the Nakayama action, for A = A(G, W).

    Coefficients lie in the ring of the relations, with p = 0: tower
    scalars, `Eisenstein`s over Q(omega), or Python's ints and Fractions
    over Q (`RATIONALS`); or they are ints mod p on the image `reduce_mod`
    returns.  Multiplication and the Nakayama action serve all of them with
    `*` alone: `scalar.py`'s types skip a product by their shared unit."""

    def __init__(self, graph: Graph, relations: RelationSet):
        self.graph = graph
        self.relations = relations
        self.tower = relations.tower   # the tower the modular certificate embeds
        # the relations' unit: `FieldTower.one()`, `scalar.ONE` or the int 1
        self.one = relations.one
        self.zero = self.one - self.one
        self.p = 0
        self.top = graph.h - 3
        self.basis: list[list[BasisElt]] = []
        self.block_index: list[dict[tuple[str, str], list[int]]] = []
        # edge id -> its index in degree 1, which the edges span: the
        # relations start in degree 2
        self.edge_index: dict[int, int] = {}
        # prefix[k][i], k >= 1: the index in degree k - 1 of the prefix x' of
        # x_i = x' e, which is the vertex index at degree 1; prefix[0] is empty
        self.prefix: list[list[int]] = []
        # reduction of monomials (prev basis index, edge id) -> vec over basis
        self.red: list[dict[tuple[int, int], dict]] = []
        self._beta_cache: dict = {}
        # vertex s -> (u_s, f(u_s)^(-1)) for the top generator u_s at s, once
        # the form is built: the scale of the top-degree products off `fxy`
        self._top_scale: dict[str, tuple[int, Scalar]] = {}
        self._build()
        self._form_built = False

    # -- construction -------------------------------------------------------

    def _build(self):
        g = self.graph
        verts = g.vertices
        b0 = [BasisElt((), v, v) for v in verts]
        self.basis.append(b0)
        self.prefix.append([])
        self.block_index.append({(v, v): [i] for i, v in enumerate(verts)})
        self.red.append({})
        rels_at = {}
        for r in self.relations.relations:
            rels_at.setdefault(r.src, []).append(r)
        H = series.hilbert_closed_form(g)
        vi = g.vindex
        out_by_id = {v: sorted(es, key=lambda e: e.id) for v, es in g.out_edges.items()}
        for k in range(1, self.top + 2):
            prev = self.basis[k - 1]
            monos = [(i, e) for i, b in enumerate(prev) for e in out_by_id[b.dst]]
            mono_pos = {(i, e.id): t for t, (i, e) in enumerate(monos)}
            by_block: dict[tuple[str, str], list[int]] = {}
            for t, (i, e) in enumerate(monos):
                by_block.setdefault((prev[i].src, e.dst), []).append(t)
            # relation images, per block
            pivots_vec: dict[int, dict] = {}
            if k >= 2:
                elim_by_block = {blk: linalg.Eliminator() for blk in by_block}
                for w_i, w in enumerate(self.basis[k - 2]):
                    for rel in rels_at.get(w.dst, ()):
                        blk = (w.src, rel.dst)
                        elim = elim_by_block.get(blk)
                        if elim is None:
                            continue
                        vec: dict[int, Scalar] = {}
                        for (b_e, c_e), coeff in rel.terms.items():
                            # (w * b_e) reduced over basis[k-1], then append c_e
                            left = self.red[k - 1][(w_i, b_e)]
                            linalg.axpy(vec, ((mono_pos[(j, c_e)], cj)
                                              for j, cj in left.items()), coeff)
                        elim.add(vec)
                for elim in elim_by_block.values():
                    pivots_vec.update(elim.reduced())
            # surviving monomials form the basis
            new_basis: list[BasisElt] = []
            new_prefix: list[int] = []
            new_blocks: dict[tuple[str, str], list[int]] = {}
            basis_of_mono: dict[int, int] = {}
            for t, (i, e) in enumerate(monos):
                if t in pivots_vec:
                    continue
                idx = len(new_basis)
                b = BasisElt(prev[i].path + (e.id,), prev[i].src, e.dst)
                new_basis.append(b)
                new_prefix.append(i)
                new_blocks.setdefault((b.src, b.dst), []).append(idx)
                basis_of_mono[t] = idx
            red_k: dict[tuple[int, int], dict] = {}
            for t, (i, e) in enumerate(monos):
                if t in basis_of_mono:
                    red_k[(i, e.id)] = {basis_of_mono[t]: self.one}
                else:
                    piv = pivots_vec[t]
                    red_k[(i, e.id)] = {basis_of_mono[s]: -cs for s, cs in piv.items()
                                        if s != t}
            if k <= self.top:
                self.basis.append(new_basis)
                self.prefix.append(new_prefix)
                self.block_index.append(new_blocks)
                self.red.append(red_k)
            for a in verts:
                for b in verts:
                    got = len(new_blocks.get((a, b), ()))
                    expect = H[k][vi[a]][vi[b]]
                    if got != expect:
                        raise AlgebraError(
                            f"Hilbert gate failed for {g.name} at degree {k}, "
                            f"block {a}->{b}: dim {got}, closed form {expect}")
            if k == self.top + 1 and new_basis:
                raise AlgebraError(f"A_{k} is nonzero above the top degree for {g.name}")
        if self.top:
            self.edge_index = {b.path[0]: i for i, b in enumerate(self.basis[1])}

    # -- dimensions -----------------------------------------------------------

    def dim(self, k: int) -> int:
        if 0 <= k <= self.top:
            return len(self.basis[k])
        return 0

    # -- multiplication ---------------------------------------------------------

    def unit(self, k: int, i: int) -> dict:
        return {i: self.one}

    def mul_edge(self, k: int, vec: dict, eid: int) -> dict:
        """Right-multiply a degree-k vector by an edge; degree k+1 (or 0)."""
        if k + 1 > self.top:
            return {}
        red = self.red[k + 1]
        out: dict[int, Scalar] = {}
        for i, c in vec.items():
            hit = red.get((i, eid))
            if hit:
                linalg.axpy(out, hit.items(), c, self.p)
        return out

    def mul_path(self, k: int, vec: dict, path: tuple[int, ...]) -> tuple[int, dict]:
        for eid in path:
            if not vec:
                return k, {}
            vec = self.mul_edge(k, vec, eid)
            k += 1
        return k, vec

    def mul_basis(self, k1: int, i1: int, k2: int, i2: int) -> dict:
        """Product of two basis elements, as a degree k1+k2 vector: {} when
        they do not compose or their degrees sum past the top, the other
        factor when one is an idempotent, one `red` entry when the right
        factor is an edge, and otherwise the walk along its path.  The result
        may be a table's own dict, which the caller must not mutate.  It is
        the one product rule outside the d o d check of `homology`: `mul`,
        `build_form` and both complexes' term rule take every basis product
        here.

        Once the form is built, a product of degree top is read off its
        table instead: A_top is one-dimensional at each vertex s and lies on
        the nu-diagonal, so x y = f(x y) f(u_s)^(-1) u_s for the top generator
        u_s at x's source, and {} when (x, y) is not in `fxy[k1]`.  The image
        `reduce_mod` returns walks these products too, as its `fxy` holds
        the tower's values, not their residues."""
        if k1 + k2 > self.top:
            return {}
        if k2 == 1:
            # `red` holds (i1, e) exactly when x_i1 ends where e starts, and
            # for an idempotent x_i1 its entry is the edge itself
            return self.red[k1 + 1].get((i1, self.basis[1][i2].path[0]), {})
        b1, b2 = self.basis[k1][i1], self.basis[k2][i2]
        if b1.dst != b2.src:
            return {}
        if not k1:
            return {i2: self.one}
        if not k2:
            return {i1: self.one}
        if k1 + k2 == self.top and self._top_scale:
            val = self.fxy[k1].get((i1, i2))
            if val is None:
                return {}
            u, scale = self._top_scale[b1.src]
            return {u: val * scale}
        return self.mul_path(k1, {i1: self.one}, b2.path)[1]

    def mul(self, k1: int, v1: dict, k2: int, v2: dict) -> dict:
        out: dict[int, Scalar] = {}
        for i2, c2 in v2.items():
            for i1, c1 in v1.items():
                prod = self.mul_basis(k1, i1, k2, i2)
                if prod:
                    linalg.axpy(out, prod.items(), c1 * c2, self.p)
        return out

    # -- Nakayama -----------------------------------------------------------------

    def beta_basis(self, k: int, i: int) -> dict:
        """beta(x_i) for the basis element x_i of degree k: the class of its
        nu-path, from nu of its source."""
        return self._beta(k, i)

    def _beta(self, k: int, i: int) -> dict:
        """`beta_basis`, grown one edge at a time: beta(x' e) = beta(x') nu(e)
        for the basis prefix x' of x = x' e, with every value cached.  The
        recursion runs here, not through `beta_basis`, so that an override of
        `beta_basis` changes only the values it is asked for."""
        hit = self._beta_cache.get((k, i))
        if hit is None:
            g, b = self.graph, self.basis[k][i]
            if k:
                hit = self.mul_edge(k - 1, self._beta(k - 1, self.prefix[k][i]),
                                    g.nu_e[b.path[-1]])
            else:
                hit = {g.vindex[g.nu_v[b.src]]: self.one}
            self._beta_cache[k, i] = hit
        return hit

    def beta_vec(self, k: int, vec: dict, power: int = 1) -> dict:
        power %= 3
        for _ in range(power):
            out: dict[int, Scalar] = {}
            for i, c in vec.items():
                linalg.axpy(out, self.beta_basis(k, i).items(), c, self.p)
            vec = out
        return vec

    # -- non-degenerate form and dual bases ------------------------------------------

    def build_form(self):
        """Tabulate the top coefficient [x y] of x y once per pairing pair,
        propagate the scale c_s of f on A_T at s along a spanning tree off
        those tables, and scale them to f(x y) = c_s [x y]; then check
        (x,y) = (y, beta(x)) on every pair off the tables, in degree order,
        and invert each pairing block for the dual bases.  The lowest failing
        degree raises.  The tables stay, as `fxy`: fxy[p][i, j] is f(x_i y_j)
        for x_i of degree p and y_j of degree top - p, with the zero values
        left out.  Every product is one `mul_basis` call, which reads its
        top-degree products off the tables from then on."""
        if self._form_built:
            return
        g, T = self.graph, self.top
        tops: dict[str, int] = {}
        for (s, d), idxs in self.block_index[T].items():
            if d != g.nu_v[s]:
                raise AlgebraError(f"top-degree block {s}->{d} off the nu-diagonal "
                                   f"has dimension {len(idxs)}")
            if len(idxs) != 1:
                raise AlgebraError(f"top-degree space at {s} has dimension {len(idxs)}")
            tops[s] = idxs[0]
        if set(tops) != set(g.vertices):
            missing = sorted(set(g.vertices) - set(tops))
            raise AlgebraError(f"no top-degree generator at vertices {missing}")

        # the pairing pairs: x in a block (s, d) of degree p and y in its
        # partner block (d, nu s) of degree T - p.  A_T lies on the
        # nu-diagonal and is one-dimensional at s, so x y = [x y] u_s, and
        # every other product of degree T vanishes
        def blocks(p: int) -> list:
            return [(s, d, idxs, self.block_index[T - p].get((d, g.nu_v[s]), []))
                    for (s, d), idxs in self.block_index[p].items()]

        fxy = [
            {(x_i, y_i): val for s, _, idxs, yidx in blocks(p)
             for x_i in idxs for y_i in yidx
             if (val := self.mul_basis(p, x_i, T - p, y_i).get(tops[s]))}
            for p in range(T + 1)]

        def y_beta_x(partner: dict, y: int, bx) -> Scalar:
            """sum beta(x)[x'] partner[y, x'] for bx = beta(x).items(): the
            value of y beta(x) off the partner table of (y, x')."""
            acc = self.zero
            for j, b in bx:
                v = partner.get((y, j))
                if v is not None:
                    acc = acc + b * v
            return acc

        # propagate the scale c_s of f on A_T at s along a spanning tree: for
        # the edge x: j -> m and the first y with [x y] != 0, (x, y) =
        # (y, beta(x)) reads c_j [x y] = c_m [y beta(x)], where
        # [y beta(x)] = sum beta(x)[x'] [y x'] and (y, x') is a pair of
        # degree T - 1.  Only edges reach here, so T >= 1
        c: dict[str, Scalar] = {g.vertices[0]: self.one}
        queue = [g.vertices[0]]
        while queue:
            j = queue.pop()
            for a in g.out_edges[j]:
                m = a.dst
                if m in c:
                    continue
                x, lam = self.edge_index[a.id], None
                for y in self.block_index[T - 1].get((m, g.nu_v[j]), ()):
                    lam = fxy[1].get((x, y))
                    if lam is not None:
                        break
                if lam is None:
                    raise AlgebraError(f"cannot propagate the form along edge {j}->{m}")
                lam2 = y_beta_x(fxy[T - 1], y, self.beta_basis(1, x).items())
                if not lam2:
                    raise AlgebraError("form propagation hit a vanishing pair")
                c[m] = c[j] * lam * scalar.inverse(lam2)
                queue.append(m)
        if set(c) != set(g.vertices):
            raise AlgebraError("graph is not strongly connected; form propagation failed")
        self.f_coeff = {tops[j]: c[j] for j in g.vertices}
        for p, tab in enumerate(fxy):  # f(x y) = c_s [x y] for x at s
            scale = [c[b.src] for b in self.basis[p]]
            for key, val in tab.items():
                tab[key] = scale[key[0]] * val

        def pair_degree(p: int, own: dict, partner: dict) -> None:
            """Check (x, y) = (y, beta(x)) at degree p off the tables of p and
            T - p, and invert each pairing block of degree p for the duals."""
            zero = self.zero
            for s, d, idxs, yidx in blocks(p):
                # (y, x') is a pair of the partner block
                for i in idxs:
                    bx = self.beta_basis(p, i).items()
                    for y_i in yidx:
                        if own.get((i, y_i), zero) != y_beta_x(partner, y_i, bx):
                            raise AlgebraError(
                                f"(x,y) != (y,beta(x)) at degree {p}, basis {i} / {y_i}")
                # duals[p][i] = w_i* in degree T - p with f(w_i w_j*) = delta_ij
                if len(yidx) != len(idxs):
                    raise AlgebraError(
                        f"pairing block at degree {p}, {s}->{d} is not square "
                        f"({len(idxs)} vs {len(yidx)})")
                cols = [{r: own[x_i, y_i] for r, x_i in enumerate(idxs) if (x_i, y_i) in own}
                        for y_i in yidx]
                try:
                    inv = linalg.invert_dense(cols, len(idxs), self.one)
                except ValueError:
                    raise AlgebraError(
                        f"pairing matrix singular at degree {p}, block {s}->{d}") from None
                for r, x_i in enumerate(idxs):
                    self.duals[p][x_i] = {yidx[q]: cq for q, cq in inv[r].items()}

        self.fxy = fxy
        self.duals: list[dict[int, dict]] = [dict() for _ in range(T + 1)]
        for p in range(T + 1):
            pair_degree(p, fxy[p], fxy[T - p])
        self._top_scale = {self.basis[T][u].src: (u, scalar.inverse(c))
                           for u, c in self.f_coeff.items()}
        self._form_built = True

    def reduce_mod(self, emb: PrimeEmbedding) -> "GradedAlgebra":
        """The image of A over F_p: the same bases, with the structure
        constants and the unit reduced once, and a fresh Nakayama cache; the
        form's scales `f_coeff` and its tables `fxy` stay over the tower, so
        the image walks its top-degree products.  The image carries no dual
        bases: mu_4's terms are built from the tower's, by `differentials`,
        and reduced by their reader.  Raises ZeroDivisionError when a
        denominator vanishes mod p."""
        self.build_form()

        def image(vec: dict) -> dict:
            return {i: r for i, c in vec.items() if (r := scalar.residue(c, emb))}

        out = copy.copy(self)
        del out.duals
        out.p, out.one = emb.p, 1
        out.red = [{key: image(vec) for key, vec in tab.items()} for tab in self.red]
        out._beta_cache, out._top_scale = {}, {}
        return out

    def __repr__(self):
        dims = [self.dim(k) for k in range(self.top + 1)]
        return f"GradedAlgebra({self.graph.name}, dims={dims})"


def spot_checks(A: GradedAlgebra, seed: int) -> dict[str, bool]:
    """Seeded randomized sanity checks: associativity on 100 composable basis
    triples and multiplicativity of the Nakayama action on 50 composable
    basis pairs.

    A triple or pair draws y among the basis elements that start where x
    ends, and z among those that start where y ends: a uniform draw is almost
    never composable on a small graph, and then both sides are 0.
    Every vertex starts a basis element of every degree up to the top, since
    the top degree pairs each vertex with its nu-image."""
    import random

    starting_at = [{} for _ in range(A.top + 1)]  # [k][vertex] -> indices
    for k in range(A.top + 1):
        for i, b in enumerate(A.basis[k]):
            starting_at[k].setdefault(b.src, []).append(i)
    rng = random.Random(seed)
    ok_assoc = True
    for _ in range(100):
        p = rng.randrange(0, A.top + 1)
        q = rng.randrange(0, A.top + 1 - p)
        r = rng.randrange(0, A.top + 1 - p - q)
        i = rng.randrange(A.dim(p))
        j = rng.choice(starting_at[q][A.basis[p][i].dst])
        k = rng.choice(starting_at[r][A.basis[q][j].dst])
        x, y, z = A.unit(p, i), A.unit(q, j), A.unit(r, k)
        if A.mul(p + q, A.mul(p, x, q, y), r, z) != A.mul(p, x, q + r, A.mul(q, y, r, z)):
            ok_assoc = False
            break
    ok_beta = True
    for _ in range(50):
        p = rng.randrange(0, A.top + 1)
        q = rng.randrange(0, A.top + 1 - p)
        i = rng.randrange(A.dim(p))
        j = rng.choice(starting_at[q][A.basis[p][i].dst])
        x, y = A.unit(p, i), A.unit(q, j)
        lhs = A.beta_vec(p + q, A.mul(p, x, q, y))
        rhs = A.mul(p, A.beta_vec(p, x), q, A.beta_vec(q, y))
        if lhs != rhs:
            ok_beta = False
            break
    return {"spot_associativity": ok_assoc, "spot_nakayama": ok_beta}
