"""Cell systems on SU(3) ADE graphs.

A cell system assigns a weight W(tri) to every closed loop of length three;
the weights must satisfy the two compatibility equations (type I over
pairs of parallel edges, type II over quadrilateral frames).  From a cell
system we derive the degree-2 relations of the quotient algebra: for an edge
a the relation is the sum over based loops (a, b, c) of W' * (the path bc),
for the simplest potential W' gauge-equivalent to W (see `derive_relations`).

Triangles, relations and both equations are sums over edge paths that
close up, so they all join on `Graph.between`, the edges s -> d.  The
equations are compiled once per graph into monomial form, shared by the
exact verifier and the numeric solver backends.
"""

from __future__ import annotations

import json
import weakref
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .quiver import Graph, canon, json_field
from .scalar import OMEGA, ONE, RATIONALS, FieldTower, Scalar

__all__ = ["CellSystem", "RelationSet", "CellReport", "GaugeError", "compile_equations",
           "verify_type_I", "verify_type_II", "derive_relations",
           "check_nu_invariance", "orbit_incidence", "orbifold_cells", "unfold_cells",
           "builtin_cells", "family_cells", "cells_to_doc", "cells_from_doc"]


def nu_orbit(graph: Graph, tri: tuple[int, int, int]) -> tuple[tuple, tuple, tuple]:
    """(tri, nu tri, nu^2 tri) for a canonical triangle, each canonical."""
    nu = graph.nu_e
    nu_t = canon(tuple(nu[e] for e in tri))
    return tri, nu_t, canon(tuple(nu[e] for e in nu_t))


class CellSystem:
    """Triangle weights on a graph, over a declared tower."""

    def __init__(self, graph: Graph, tower: FieldTower, weights: dict[tuple, Scalar],
                 label: str = "cells"):
        self.graph = graph
        self.tower = tower
        self.label = label
        tris = graph.triangles()
        self.weights = {}
        for t in tris:
            w = weights.get(t)
            if w is None:
                raise ValueError(f"missing weight for triangle {t}")
            self.weights[t] = w.lift(tower)
        if len(weights) != len(tris):
            extra = set(weights) - set(tris)
            raise ValueError(f"weights given for unknown triangles {sorted(extra)}")

    def weight(self, e1: int, e2: int, e3: int) -> Scalar:
        return self.weights[canon((e1, e2, e3))]

    def __repr__(self):
        return f"CellSystem({self.graph.name}, {len(self.weights)} triangles, {self.label})"


@dataclass
class Relation:
    edge_id: int          # the deriving edge a
    src: str              # r(a): relations live in paths r(a) -> s(a)
    dst: str              # s(a)
    terms: dict           # (b_id, c_id) -> Scalar, Eisenstein, or the int 1 over Q


class RelationSet:
    """Relations with coefficients in one ring, whose unit is `one`: the
    tower's shared `one()` by default, the int 1 over `RATIONALS`, or
    `scalar.ONE` over Q(omega) in a tower that holds omega."""

    def __init__(self, graph: Graph, tower: FieldTower, relations: list[Relation], one=None):
        self.graph = graph
        self.tower = tower
        self.one = (1 if tower == RATIONALS else tower.one()) if one is None else one
        self.relations = relations
        for r in self.relations:
            e = graph.edge_by_id[r.edge_id]
            if r.src != e.dst or r.dst != e.src:
                raise ValueError(f"relation at edge {r.edge_id} has wrong endpoints")
            for (b, c) in r.terms:
                eb, ec = graph.edge_by_id[b], graph.edge_by_id[c]
                if eb.src != r.src or eb.dst != ec.src or ec.dst != r.dst:
                    raise ValueError(f"relation term {(b, c)} is not a path {r.src}->{r.dst}")

    def __repr__(self):
        return f"RelationSet({self.graph.name}, {len(self.relations)} relations)"


# ---------------------------------------------------------------------------
# equation compiler: type I and type II in monomial form
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class Equation:
    kind: str                  # "I" or "II"
    frame: tuple               # edge ids identifying the frame
    terms: list                # [(coeff Scalar, ((tri, conj_flag), ...)), ...]
    rhs: Scalar


_EQUATIONS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def compile_equations(graph: Graph) -> tuple[Equation, ...]:
    """All type I and type II equations of the graph, with exact coefficients.

    A Graph is immutable, so they are compiled once per graph and shared by
    the verifier and the solver."""
    if graph not in _EQUATIONS:
        pool: dict = {}   # one object per distinct (tri, conj_flag) factor and rhs
        _EQUATIONS[graph] = tuple(_type_I_equations(graph, pool)
                                  + _type_II_equations(graph, pool))
    return _EQUATIONS[graph]


def _mono(pool: dict, path: tuple[int, int, int], conj: bool) -> tuple:
    key = (canon(path), conj)
    return pool.setdefault(key, key)


def _type_I_equations(graph: Graph, pool: dict) -> list[Equation]:
    """One equation per ordered pair of parallel edges (a, a')."""
    tower = graph.tower
    phi = graph.phi
    two = tower.quantum(2)
    one, zero = tower.one(), tower.zero()
    eqs: list[Equation] = []
    out_e, between = graph.out_edges, graph.between
    for (i, j), cls in sorted(between.items()):
        for a in cls:
            for a2 in cls:
                terms = []
                for b1 in out_e[j]:
                    for b2 in between.get((b1.dst, i), ()):
                        terms.append((one, (_mono(pool, (a.id, b1.id, b2.id), False),
                                            _mono(pool, (a2.id, b1.id, b2.id), True))))
                rhs = two * phi[i] * phi[j] if a.id == a2.id else zero
                eqs.append(Equation("I", (a.id, a2.id), terms, pool.setdefault(rhs, rhs)))
    return eqs


def _type_II_equations(graph: Graph, pool: dict) -> list[Equation]:
    """One equation per frame a1: i4->i1, a2: i2->i1, a3: i2->i3, a4: i4->i3."""
    tower = graph.tower
    phi = graph.phi
    zero = tower.zero()
    inv_phi = {v: phi[v].inverse() for v in graph.vertices}
    eqs: list[Equation] = []
    out_e, in_e, between = graph.out_edges, graph.in_edges, graph.between
    # the k with an edge i1 -> k, in vertex order
    targets = {v: sorted({e.dst for e in es}, key=graph.vindex.__getitem__)
               for v, es in out_e.items()}
    for i2 in graph.vertices:
        for a2 in out_e[i2]:
            i1 = a2.dst
            for a3 in out_e[i2]:
                i3 = a3.dst
                for a1 in in_e[i1]:
                    i4 = a1.src
                    for a4 in between.get((i4, i3), ()):
                        terms = []
                        for k in targets[i1]:
                            b1s = between[(i1, k)]
                            b3s = between.get((i3, k))
                            b2s = between.get((k, i2))
                            b4s = between.get((k, i4))
                            if not b3s or not b2s or not b4s:
                                continue
                            coeff = inv_phi[k]
                            for b1 in b1s:
                                for b2 in b2s:
                                    for b3 in b3s:
                                        for b4 in b4s:
                                            terms.append((coeff, (
                                                _mono(pool, (a2.id, b1.id, b2.id), False),
                                                _mono(pool, (a3.id, b3.id, b2.id), True),
                                                _mono(pool, (a4.id, b3.id, b4.id), False),
                                                _mono(pool, (a1.id, b1.id, b4.id), True),
                                            )))
                        rhs = zero
                        if a1.id == a4.id and a2.id == a3.id:
                            rhs = rhs + phi[i4] * phi[i1] * phi[i2]
                        if a1.id == a2.id and a3.id == a4.id:
                            rhs = rhs + phi[i1] * phi[i2] * phi[i3]
                        eqs.append(Equation("II", (a1.id, a2.id, a3.id, a4.id), terms,
                                            pool.setdefault(rhs, rhs)))
    return eqs


@dataclass
class CellReport:
    kind: str
    frames: int
    failures: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def _verify(cells: CellSystem, kind: str) -> CellReport:
    tower = cells.tower
    W = cells.weights
    pair_cache: dict = {}
    report = CellReport(kind, 0)

    def pair(t1, c1, t2, c2):
        key = (t1, c1, t2, c2)
        v = pair_cache.get(key)
        if v is None:
            x = W[t1].conjugate() if c1 else W[t1]
            y = W[t2].conjugate() if c2 else W[t2]
            v = x * y
            pair_cache[key] = v
        return v

    for eq in compile_equations(cells.graph):
        if eq.kind != kind:
            continue
        report.frames += 1
        acc = tower.zero()
        for coeff, monos in eq.terms:
            if len(monos) == 2:
                (t1, c1), (t2, c2) = monos
                prod = pair(t1, c1, t2, c2)
            else:
                (t1, c1), (t2, c2), (t3, c3), (t4, c4) = monos
                prod = pair(t1, c1, t2, c2)
                if prod.is_zero():
                    continue
                prod = prod * pair(t3, c3, t4, c4)
            if not prod.is_zero():
                acc = acc + coeff * prod
        if acc != eq.rhs:
            report.failures.append(eq.frame)
    return report


def verify_type_I(cells: CellSystem) -> CellReport:
    """Exact pass/fail per type I frame."""
    return _verify(cells, "I")


def verify_type_II(cells: CellSystem) -> CellReport:
    """Exact pass/fail per type II frame."""
    return _verify(cells, "II")


# ---------------------------------------------------------------------------
# relations, gauge rule, nu-invariance test
# ---------------------------------------------------------------------------

class GaugeError(RuntimeError):
    """The simplest potential failed the exact check that it has W's gauge
    invariants."""


def derive_relations(cells: CellSystem) -> RelationSet:
    """The relations of the simplest potential W' gauge-equivalent to W: at
    edge a, the sum over based loops (a, b, c) of W'(abc) * path(b, c).

    When W is nu-invariant and each of its gauge invariants is a cube root
    of unity, W' is 1 on W's support but for a few triangle nu-orbits, which
    take powers of omega (`_cube_root_potential`).  With no such orbit, W'
    is the int 1 over Q: the whole A family, which is the Jacobi algebra of
    the all-ones potential over Q (Ginzburg, math/0612139; Bocklandt, JPAA
    212, 2008).  Otherwise it is over Q(omega), in `Eisenstein`s: the D
    family.  Every other W is kept, over the cells' tower.  The relation set
    keeps the cells' tower in all but the first case, for the prime of the
    modular certificate.

    The edge rescaling x_e -> lambda_e x_e maps the relation of W at a to
    lambda_a^-1 times that of W'(abc) = lambda_a lambda_b lambda_c W(abc), so
    it is an isomorphism A(G, W) -> A(G, W').  Take lambda constant on edge
    nu-orbits, so that it commutes with nu and beta stays nu.  Let M count
    the edge orbits o of each triangle orbit T.  W' = lambda W then asks
    prod_o lambda_o^M[T, o] = W'(T) / W(T) for each T, which needs W and W'
    constant on T: the nu-invariance.  The gauge invariants prod_T W(T)^n_T,
    for n in the integer left kernel L of M, are the obstruction.  When W'
    has W's invariants on a Z-basis of L, the character n -> prod_T
    (W'/W)(T)^n_T of Z^T is trivial on L, so it factors through n -> n M,
    and as C* is divisible it extends from that image to all of Z^O: some
    lambda in (C*)^O solves the system.  A Q-basis of L with its
    denominators cleared can span a proper sublattice, on which the
    character can be trivial while it is not on L; `linalg.integer_kernel`
    gives a Z-basis.  The dimensions of HH, HC and HH^* do not change under
    the extension from Q(omega) to C.  The guard matters: for W not
    nu-invariant, W' would hide that beta is not nu, which the form check
    sees.
    """
    g = cells.graph
    W, tower, one = cells.weights, cells.tower, None
    if check_nu_invariance(cells):
        simple = _cube_root_potential(cells)
        if simple is not None:
            W, tower, one = simple
    rels = []
    for a in g.edges:
        terms = {}
        for b in g.out_edges[a.dst]:
            for c in g.between.get((b.dst, a.src), ()):
                w = W.get(canon((a.id, b.id, c.id)))
                if w:
                    terms[(b.id, c.id)] = w
        rels.append(Relation(a.id, a.dst, a.src, terms))
    return RelationSet(g, tower, rels, one)


def _cube_root_potential(cells: CellSystem):
    """(W', tower, one) for a nu-invariant W whose gauge invariants are all
    cube roots of unity, else None.

    Each invariant x of the Z-basis of L is evaluated exactly in the cells'
    tower; it must have x^3 = 1, and omega^k = x is told from its conjugate
    by the sign of Im x.  W' = omega^(e_T) on each triangle orbit T, with
    sum_T n_T e_T = k mod 3 for each basis vector n: the kernel basis has
    full rank mod 3, as L is saturated, so e is nonzero only on pivot orbits,
    at most one per invariant.  W' is then checked exactly, in Q(omega), to
    have W's invariants; a mismatch raises GaugeError.  With e = 0, W' is
    the int 1 over Q."""
    orbits = _orbits(cells.graph, [t for t, w in cells.weights.items() if w])
    kernel = linalg.integer_kernel([_incidence_row(cells.graph, o[0]) for o in orbits])
    W = [cells.weights[o[0]] for o in orbits]
    powers = []
    for n in kernel:
        x = _invariant(W, n, cells.tower.one())
        if x * x * x != 1:
            return None
        powers.append(0 if x == 1 else 1 if x.imag().is_positive() else 2)
    e = _omega_exponents(len(orbits), kernel, powers)
    roots = [ONE, OMEGA, OMEGA * OMEGA]
    W2 = [roots[e.get(T, 0)] for T in range(len(orbits))]
    for n, k in zip(kernel, powers):
        x = _invariant(W2, n, ONE)
        if x != roots[k]:
            raise GaugeError(f"the potential over Q(omega) has invariant {x!r} "
                             f"on the kernel vector {n}, where W has omega^{k}")
    if not any(e.values()):
        return {t: 1 for o in orbits for t in o}, RATIONALS, 1
    return {t: w for o, w in zip(orbits, W2) for t in o}, cells.tower, ONE


def _invariant(W: list, n: dict, one):
    """prod_T W[T]^n_T for a kernel vector n."""
    num = den = one
    for T, k in n.items():
        for _ in range(abs(k)):
            if k > 0:
                num = num * W[T]
            else:
                den = den * W[T]
    return num * den.inverse()


def _omega_exponents(n_orbits: int, kernel: list, powers: list) -> dict[int, int]:
    """{T: e_T} with sum_T n_T e_T = k mod 3 for each kernel vector n and
    its power k, nonzero only at the pivots of the reduced echelon form of
    the kernel mod 3, the lowest orbits it allows."""
    elim = linalg.Eliminator(3)
    for n, k in zip(kernel, powers):
        elim.add({**{T: v % 3 for T, v in n.items() if v % 3}, n_orbits: k})
    return {T: row.get(n_orbits, 0) for T, row in elim.reduced().items() if T < n_orbits}


def _orbits(graph: Graph, triangles) -> list[tuple]:
    """The nu-orbits of `triangles`, in order of their first member, which
    leads its orbit."""
    seen, out = set(), []
    for t in triangles:
        if t not in seen:
            orbit = nu_orbit(graph, t)
            seen.update(orbit)
            out.append(orbit)
    return out


def _incidence_row(graph: Graph, t: tuple) -> dict[int, int]:
    """The edge nu-orbits of triangle t, each named by its least edge id,
    with multiplicity."""
    nu = graph.nu_e
    row: dict[int, int] = {}
    for e in t:
        orbit = min(e, nu[e], nu[nu[e]])
        row[orbit] = row.get(orbit, 0) + 1
    return row


def orbit_incidence(graph: Graph, triangles) -> list[dict[int, int]]:
    """The incidence of the nu-orbits of `triangles` against the edge
    nu-orbits: a row per triangle orbit, in order of its first member,
    counting its edges' orbits (each named by its least edge id) with
    multiplicity."""
    return [_incidence_row(graph, o[0]) for o in _orbits(graph, triangles)]


def check_nu_invariance(cells: CellSystem) -> bool:
    """True if W(nu tri) = W(tri) for every triangle."""
    return all(cells.weights[nu_orbit(cells.graph, t)[1]] == w
               for t, w in cells.weights.items())


# ---------------------------------------------------------------------------
# orbifold (A(3k+3) -> D(3k+3), one nu-orbit lift per triangle) and
# unfolding (G -> threefold cover)
# ---------------------------------------------------------------------------

def orbifold_cells(d_graph: Graph, a_cells: CellSystem) -> CellSystem:
    """Cell system on D(3k+3) from a nu-invariant one on A(3k+3).

    Each D triangle is rotated to start at its first free edge and lifted from
    the orbit representative of that edge's source: every edge lifts to the
    member of its nu-orbit that leaves the previous end, and the last one must
    also close at the start.  The weight is the cover weight of the lift (zero
    if it does not close); a triangle through the triplicated vertex c_l also
    takes 1/sqrt(3) and the phase omega^(l) or omega^(2l) according to which
    of the two parallel edges it uses.  Every weight also takes the scale mu
    with phi_D([u]) = mu phi_A(u), which the construction fixes for all u at
    once, so one orbit representative gives it.
    """
    cover: Graph = d_graph.base
    lift = d_graph.cover_lift
    rep_of = d_graph.cover_orbit_rep
    if not check_nu_invariance(a_cells):
        raise ValueError("orbifold requires nu-invariant cover cells")
    tower, sqrt3 = a_cells.tower.adjoin_sqrt(a_cells.tower.from_fraction(3))
    rep = rep_of[cover.vertices[0]]  # (0, 0) is in a free orbit
    mu = (d_graph.phi[f"[{rep}]"] / cover.phi[rep]).lift(tower)
    inv_sqrt3 = sqrt3.inverse()
    # omega^1 = -1/2 + i sqrt3/2
    omega = tower.from_fraction(Fraction(-1, 2)) + tower.i_times(sqrt3 * Fraction(1, 2))
    omegas = [tower.one(), omega, omega * omega]

    # the two parallel D-edges: phase exponents 1 and 2 by increasing edge id
    doubles = [es for es in d_graph.between.values() if len(es) > 1]
    if len(doubles) != 1 or len(doubles[0]) != 2:
        raise ValueError("expected exactly one double edge on the orbifold graph")
    gamma, gamma2 = sorted(e.id for e in doubles[0])
    phase_exp = {gamma: 1, gamma2: 2}

    weights = {}
    for t in d_graph.triangles():
        first = next(n for n, x in enumerate(t) if lift[x][1] is None)
        ring = t[first:] + t[:first]
        start = end = rep_of[cover.edge_by_id[lift[ring[0]][0]].src]
        path = []
        for n, x in enumerate(ring):
            base = lift[x][0]
            orbit = (cover.edge_by_id[m] for m in
                     (base, cover.nu_e[base], cover.nu_e[cover.nu_e[base]]))
            e = next((e for e in orbit if e.src == end and (n < 2 or e.dst == start)), None)
            if e is None:
                break
            path.append(e.id)
            end = e.dst
        w = a_cells.weight(*path) * mu if len(path) == 3 else tower.zero()
        copy = lift[ring[1]][1]  # c_l for a centre triangle (free, into c_l, out of c_l)
        if copy is not None:
            w = w * inv_sqrt3 * omegas[phase_exp[ring[0]] * copy % 3]
        weights[t] = w
    return CellSystem(d_graph, tower, weights, label=f"orbifold({a_cells.label})")


def unfold_cells(cover_graph: Graph, base_cells: CellSystem) -> CellSystem:
    """Cell system on the threefold unfolding: each base triangle lifts three
    times with the same weight, since the cover carries the base's own phi."""
    edge_of = cover_graph.base_edge_of
    weights = {t: base_cells.weights[canon(tuple(edge_of[x][0] for x in t))]
               for t in cover_graph.triangles()}
    return CellSystem(cover_graph, base_cells.tower, weights,
                      label=f"unfold({base_cells.label})")


# ---------------------------------------------------------------------------
# built-in data
# ---------------------------------------------------------------------------

def _data_path(name: str) -> str:
    from importlib.resources import files

    return files("acy").joinpath("data").joinpath(name)


def _load_cell_doc(name: str) -> dict:
    return json.loads(_data_path(name).read_text())


def builtin_cells(graph: Graph) -> CellSystem:
    """Certified built-in cells: frozen data for A, A*, E8*; orbifold/unfold
    constructions for D, D*, E8.  Raises for families without data."""
    return family_cells(graph, _frozen_cells)


def _frozen_cells(graph: Graph) -> CellSystem:
    name = f"cells_{graph.name.replace('*', 's')}.json"
    if not _data_path(name).is_file():
        raise FileNotFoundError(f"no built-in cell data for {graph.name}: "
                                "use --cells solve or --cells file:PATH")
    return cells_from_doc(graph, _load_cell_doc(name))


def family_cells(graph: Graph, base_cells) -> CellSystem:
    """Cells for any graph from `base_cells`, which supplies them for A, A*,
    E8* and graphs outside the families.  D, D* and E8 lift them from the
    `base` their graph carries: D is the orbifold of A, D* and E8 the
    unfoldings of A* and E8*.

    A graph loaded from a file carries no base.  A D, D* or E8 one is
    accepted when structurally identical to the built-in graph of its name:
    the cells are lifted on that twin and re-tagged."""
    twin = graph
    if not hasattr(graph, "base") and (graph.name == "E8" or graph.name.startswith("D")):
        twin = _canonical_twin(graph)
    if not hasattr(twin, "base"):
        return base_cells(graph)
    try:
        base_system = base_cells(twin.base)
    except FileNotFoundError:
        raise FileNotFoundError(f"no built-in cell data for {graph.name}, which is built "
                                f"from {twin.base.name}: use --cells solve or "
                                "--cells file:PATH") from None
    lift = orbifold_cells if hasattr(twin, "cover_lift") else unfold_cells
    cells = lift(twin, base_system)
    if twin is graph:
        return cells
    return CellSystem(graph, cells.tower, cells.weights, label=cells.label)


def _canonical_twin(graph: Graph) -> Graph:
    """The built-in graph with this name, required to match structurally."""
    from .quiver import parse_graph_spec

    twin = parse_graph_spec(graph.name)
    same = (twin.vertices == graph.vertices
            and [(e.id, e.src, e.dst) for e in twin.edges]
            == [(e.id, e.src, e.dst) for e in graph.edges]
            and twin.nu_v == graph.nu_v and twin.nu_e == graph.nu_e)
    if not same:
        raise ValueError(f"graph {graph.name!r} does not match the built-in family "
                         "of that name: supply cells from a file")
    return twin


# ---------------------------------------------------------------------------
# serialization: "acy-cells/1"
# ---------------------------------------------------------------------------

def cells_to_doc(cells: CellSystem) -> dict:
    return {
        "schema": "acy-cells/1",
        "graph_ref": cells.graph.name,
        "tower": cells.tower.to_doc(),
        "triangles": [{"edge_ids": list(t), "weight_coords": w.to_coords()}
                      for t, w in sorted(cells.weights.items())],
    }


def cells_from_doc(graph: Graph, doc: dict) -> CellSystem:
    if json_field(doc, "schema", str, "cell document") != "acy-cells/1":
        raise ValueError(f"unsupported schema {doc['schema']!r}")
    if doc.get("graph_ref") not in (None, graph.name):
        raise ValueError(f"cell data is for {doc.get('graph_ref')!r}, not {graph.name!r}")
    tower = FieldTower.from_doc(json_field(doc, "tower", dict, "cell document"))
    if tower.h != graph.h:
        raise ValueError("cell tower h does not match the graph")
    weights = {}
    for row in json_field(doc, "triangles", list, "cell document"):
        ids = json_field(row, "edge_ids", list, "triangle")
        if len(ids) != 3 or not all(type(x) is int for x in ids):
            raise ValueError(f"field 'edge_ids' of triangle must be three integers, not {ids!r}")
        t = canon(tuple(ids))
        if t in weights:
            raise ValueError(f"triangle {t} is listed twice")
        weights[t] = Scalar.from_coords(tower, json_field(row, "weight_coords", dict, "triangle"))
    label = json_field(doc, "label", str, "cell document") if "label" in doc else "file"
    return CellSystem(graph, tower, weights, label=label)
