"""SU(3) ADE graphs: directed quivers with Perron-Frobenius data, Coxeter
number, three-colourability, and the Z3 symmetry nu with permutation matrix P.

Built-in families:

  A(n)   n >= 4   triangular fusion graph of SU(3) at level n-3
  A*(n)  n >= 5   path with loops: vertices 1..floor((n-1)/2)
  D(n)   n >= 6, n = 0 mod 3   Z3-orbifold of A(n), triplicated centre
  D*(n)  n >= 5   threefold unfolding of A*(n)
  E8               twelve-vertex exceptional graph (unfolding of E8*)
  E8*              four-vertex exceptional graph

The graph E4(12) admits no cell system and the E(12)/E(24) families carry no
built-in cell data; they can only enter through user-supplied files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import linalg
from .scalar import FieldTower, Scalar

__all__ = ["Edge", "Graph", "GraphError", "build_family", "parse_graph_spec",
           "canon", "family_catalog", "perron_frobenius", "save_graph", "load_graph",
           "json_field", "unfold"]


@dataclass(frozen=True)
class Edge:
    id: int
    src: str
    dst: str


def canon(tri: tuple[int, int, int]) -> tuple[int, int, int]:
    """Canonical representative of a closed loop under cyclic rotation."""
    a, b, c = tri
    return min((a, b, c), (b, c, a), (c, a, b))


class GraphError(ValueError):
    """Schema or invariant violation in graph data."""


def json_field(doc, key: str, kind: type, where: str):
    """doc[key], where doc must be a JSON object and the value a `kind`; a
    GraphError that names the field otherwise."""
    if not isinstance(doc, dict):
        raise GraphError(f"{where} must be a JSON object, not {type(doc).__name__}")
    if key not in doc:
        raise GraphError(f"{where} has no field {key!r}")
    if not isinstance(doc[key], kind):
        raise GraphError(f"field {key!r} of {where} must be a {kind.__name__}, "
                         f"not {type(doc[key]).__name__}")
    return doc[key]


class Graph:
    """A finite directed graph with SU(3) ADE structure.

    Immutable after construction.  `nu_v`/`nu_e` give the Z3 symmetry on
    vertices and edge ids; `phi` is the exact Perron-Frobenius eigenvector
    for the eigenvalue [3]_q, normalized to minimum entry 1.  `between[s, d]`
    lists the edges s -> d in edge-list order, for the pairs that have one.
    """

    def __init__(self, name: str, h: int, vertices: list[str], edges: list[Edge],
                 nu_v: dict[str, str], coloring: dict[str, int] | None = None,
                 nu_e: dict[int, int] | None = None, phi: dict[str, Scalar] | None = None):
        self.name = name
        self.h = h
        self.vertices = list(vertices)
        self.edges = list(edges)
        self.nu_v = dict(nu_v)
        self.coloring = dict(coloring) if coloring else None
        self.tower = FieldTower(h)
        self.vindex = {v: i for i, v in enumerate(self.vertices)}
        if len(self.vindex) != len(self.vertices):
            raise GraphError("duplicate vertex labels")
        self.edge_by_id = {e.id: e for e in self.edges}
        if len(self.edge_by_id) != len(self.edges):
            raise GraphError("duplicate edge ids")
        self.out_edges: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        self.in_edges: dict[str, list[Edge]] = {v: [] for v in self.vertices}
        self.between: dict[tuple[str, str], list[Edge]] = {}
        for e in self.edges:
            if e.src not in self.vindex or e.dst not in self.vindex:
                raise GraphError(f"edge {e.id} has unknown endpoint")
            self.out_edges[e.src].append(e)
            self.in_edges[e.dst].append(e)
            self.between.setdefault((e.src, e.dst), []).append(e)
        self._validate_nu()
        self.nu_e = dict(nu_e) if nu_e is not None else self._derive_edge_nu()
        self._validate()
        self.phi = phi if phi is not None else perron_frobenius(self)[1]
        self._validate_phi()

    # -- structure ------------------------------------------------------------

    def adjacency(self) -> list[list[int]]:
        n = len(self.vertices)
        delta = [[0] * n for _ in range(n)]
        for e in self.edges:
            delta[self.vindex[e.src]][self.vindex[e.dst]] += 1
        return delta

    def nu_is_trivial(self) -> bool:
        return all(v == w for v, w in self.nu_v.items())

    def triangles(self) -> list[tuple[int, int, int]]:
        """Closed 3-loops of edge ids, one `canon` representative per cyclic
        class, sorted."""
        return sorted({canon((e1.id, e2.id, e3.id)) for e1 in self.edges
                       for e2 in self.out_edges[e1.dst]
                       for e3 in self.between.get((e2.dst, e1.src), ())})

    def nu_vertex_pow(self, v: str, k: int) -> str:
        for _ in range(k % 3):
            v = self.nu_v[v]
        return v

    def nu_edge_pow(self, eid: int, k: int) -> int:
        for _ in range(k % 3):
            eid = self.nu_e[eid]
        return eid

    # -- validation -------------------------------------------------------------

    def _validate_nu(self):
        """nu is a permutation of order dividing 3 whose matrix P commutes with
        Delta: for a permutation, P Delta = Delta P says exactly that s -> d
        and nu(s) -> nu(d) have the same multiplicity, which also gives
        P Delta^T = Delta^T P.  A nontrivial nu admits no parallel edges."""
        for v in self.vertices:
            if v not in self.nu_v or self.nu_v[v] not in self.vindex:
                raise GraphError(f"nu undefined or out of range at vertex {v!r}")
        for v in self.vertices:
            if self.nu_vertex_pow(v, 3) != v:
                raise GraphError(f"nu^3 != id at vertex {v!r}")
        nu = self.nu_v
        for (s, d), es in self.between.items():
            if len(self.between.get((nu[s], nu[d]), ())) != len(es):
                raise GraphError(f"P does not commute with the adjacency matrix "
                                 f"at {s!r} -> {d!r}")
        if not self.nu_is_trivial() and any(len(es) > 1 for es in self.between.values()):
            raise GraphError("graphs with nontrivial P must not have parallel edges")

    def _derive_edge_nu(self) -> dict[int, int]:
        if self.nu_is_trivial():
            return {e.id: e.id for e in self.edges}
        return {e.id: self.between[(self.nu_v[e.src], self.nu_v[e.dst])][0].id
                for e in self.edges}

    def _validate(self):
        if set(self.nu_e) != set(self.edge_by_id):
            raise GraphError("edge nu must be defined on exactly the edge ids")
        for eid, fid in self.nu_e.items():
            e, f = self.edge_by_id[eid], self.edge_by_id.get(fid)
            if f is None:
                raise GraphError("edge nu refers to unknown edge ids")
            if f.src != self.nu_v[e.src] or f.dst != self.nu_v[e.dst]:
                raise GraphError(f"edge nu is not over vertex nu at edge {eid}")
        eperm = self.nu_e
        for eid in self.edge_by_id:
            if eperm[eperm[eperm[eid]]] != eid:
                raise GraphError(f"nu^3 != id on edge {eid}")
        if self.coloring is not None:
            for e in self.edges:
                ca, cb = self.coloring.get(e.src), self.coloring.get(e.dst)
                if ca is None or cb is None or (ca + 1) % 3 != cb:
                    raise GraphError(f"edge {e.id} ({e.src}->{e.dst}) violates the colouring")

    def _validate_phi(self):
        three = self.tower.quantum(3)
        for v in self.vertices:
            lhs = self.tower.zero()
            for e in self.out_edges[v]:
                lhs = lhs + self.phi[e.dst]
            if lhs != three * self.phi[v]:
                raise GraphError(f"phi is not a [3]-eigenvector at vertex {v!r}")
        for v in self.vertices:
            if self.phi[self.nu_v[v]] != self.phi[v]:
                raise GraphError(f"phi is not nu-invariant at vertex {v!r}")

    def __repr__(self):
        return f"Graph({self.name}: |V|={len(self.vertices)}, |E|={len(self.edges)}, h={self.h})"


# ---------------------------------------------------------------------------
# Perron-Frobenius data
# ---------------------------------------------------------------------------

def perron_frobenius(g: Graph) -> tuple[Scalar, dict[str, Scalar]]:
    """Exact ([3]_q, phi) with Delta phi = [3] phi, phi normalized to min 1.

    An exact nullspace: the route for A*, E8* and graph files without pf
    data.  The A and D families and the unfoldings pass closed forms instead.
    """
    tower = g.tower
    three = tower.quantum(3)
    n = len(g.vertices)
    delta = g.adjacency()
    # (Delta - [3] I) column-wise: column j = image of basis vector e_j
    cols = []
    for j in range(n):
        col: dict[int, Scalar] = {}
        for i in range(n):
            c = tower.from_fraction(delta[i][j])
            if i == j:
                c = c - three
            if not c.is_zero():
                col[i] = c
        cols.append(col)
    kernel = linalg.nullspace(cols, tower.one())
    if len(kernel) != 1:
        raise GraphError(f"Perron-Frobenius eigenspace has dimension {len(kernel)}, expected 1")
    vec = kernel[0]
    phi = {v: vec.get(j, tower.zero()) for j, v in enumerate(g.vertices)}
    if not next(iter(phi.values())).is_positive():
        phi = {v: -x for v, x in phi.items()}
    return three, _normalize_min(phi)


def _normalize_min(phi: dict[str, Scalar]) -> dict[str, Scalar]:
    """phi scaled so that its minimum entry is 1; every entry must be positive."""
    minimum = None
    for x in phi.values():
        if not x.is_positive():
            raise GraphError("Perron-Frobenius vector is not strictly positive")
        if minimum is None or (minimum - x).is_positive():
            minimum = x
    inv = minimum.inverse()
    return {v: x * inv for v, x in phi.items()}


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------

def _build_a(n: int) -> Graph:
    k = n - 3
    verts = [(p, l) for p in range(k + 1) for l in range(k + 1 - p)]
    verts.sort()
    label = {pl: f"{pl[0]},{pl[1]}" for pl in verts}
    edges = []
    eid = 0
    for (p, l) in verts:
        for q in ((p, l - 1), (p - 1, l + 1), (p + 1, l)):
            if q in label:
                edges.append(Edge(eid, label[(p, l)], label[q]))
                eid += 1
    nu_v = {label[(p, l)]: label[(k - p - l, p)] for (p, l) in verts}
    coloring = {label[(p, l)]: (p - l) % 3 for (p, l) in verts}
    # SU(3) quantum dimensions [p+1][l+1][p+l+2]/[2] (Evans-Pugh, Muenster
    # J. Math. 2, 2009): the Perron-Frobenius vector, 1 at (0, 0)
    tower = FieldTower(n)
    q = [tower.quantum(m) for m in range(n)]
    inv2 = q[2].inverse()
    phi = {label[(p, l)]: q[p + 1] * q[l + 1] * q[p + l + 2] * inv2 for (p, l) in verts}
    return Graph(f"A{n}", n, [label[v] for v in verts], edges, nu_v, coloring, phi=phi)


def _build_astar(n: int) -> Graph:
    m = (n - 1) // 2
    verts = [str(p) for p in range(1, m + 1)]
    edges = []
    eid = 0
    loops = m if n % 2 == 0 else m - 1
    for p in range(1, m + 1):
        if p <= loops:
            edges.append(Edge(eid, str(p), str(p)))
            eid += 1
        if p < m:
            edges.append(Edge(eid, str(p), str(p + 1)))
            eid += 1
            edges.append(Edge(eid, str(p + 1), str(p)))
            eid += 1
    nu_v = {v: v for v in verts}
    return Graph(f"A{n}*", n, verts, edges, nu_v, None)


def unfold(g: Graph, name: str) -> Graph:
    """Threefold cover: vertices v_a, edges v_a -> w_(a+1) per edge v -> w.

    nu on the cover is the deck shift by (h - 3) mod 3, matching the colour
    step of top-degree paths; it is trivial when h = 0 mod 3.  The cover
    keeps g as `base` and takes g's own phi objects.
    """
    verts = [f"{v}_{a}" for a in range(3) for v in g.vertices]
    edges = []
    eid = 0
    emap = {}
    for a in range(3):
        for e in g.edges:
            emap[(e.id, a)] = eid
            edges.append(Edge(eid, f"{e.src}_{a}", f"{e.dst}_{(a + 1) % 3}"))
            eid += 1
    shift = (g.h - 3) % 3
    nu_v = {f"{v}_{a}": f"{v}_{(a + shift) % 3}" for a in range(3) for v in g.vertices}
    nu_e = {emap[(e.id, a)]: emap[(e.id, (a + shift) % 3)] for a in range(3) for e in g.edges}
    coloring = {f"{v}_{a}": a for a in range(3) for v in g.vertices}
    phi = {f"{v}_{a}": g.phi[v] for a in range(3) for v in g.vertices}
    out = Graph(name, g.h, verts, edges, nu_v, coloring, nu_e=nu_e, phi=phi)
    out.base = g
    out.base_edge_of = {emap[(e.id, a)]: (e.id, a) for a in range(3) for e in g.edges}
    return out


def _build_dstar(n: int) -> Graph:
    return unfold(_build_astar(n), f"D{n}*")


def _build_e8star() -> Graph:
    verts = ["1", "2", "3", "4"]
    pairs = [("1", "2"), ("2", "2"), ("2", "3"), ("3", "2"),
             ("3", "3"), ("3", "1"), ("2", "4"), ("4", "3")]
    edges = [Edge(i, s, d) for i, (s, d) in enumerate(pairs)]
    return Graph("E8*", 8, verts, edges, {v: v for v in verts}, None)


def _build_e8() -> Graph:
    return unfold(_build_e8star(), "E8")


def _build_d(n: int) -> Graph:
    """Z3-orbifold of A(n), which it keeps as `base`: free nu-orbits plus a
    triplicated centre."""
    a = _build_a(n)
    k = (n - 3) // 3
    centre = f"{k},{k}"
    orbit_rep: dict[str, str] = {}
    for v in a.vertices:
        orb = sorted({v, a.nu_v[v], a.nu_v[a.nu_v[v]]})
        orbit_rep[v] = orb[0]
    reps = sorted({r for v, r in orbit_rep.items() if v != centre})

    def dlabel(v: str) -> str:
        return f"[{orbit_rep[v]}]"

    verts = [f"[{r}]" for r in reps] + ["c0", "c1", "c2"]
    edges = []
    eid = 0
    seen_orbits = set()
    lift_of_edge: dict[int, tuple] = {}  # D edge -> (A edge, centre copy l or None)
    for e in sorted(a.edges, key=lambda e: e.id):
        if e.src == centre or e.dst == centre:
            continue
        orb = frozenset({e.id, a.nu_e[e.id], a.nu_e[a.nu_e[e.id]]})
        if orb in seen_orbits:
            continue
        seen_orbits.add(orb)
        edges.append(Edge(eid, dlabel(e.src), dlabel(e.dst)))
        lift_of_edge[eid] = (e.id, None)
        eid += 1
    in_orbit = sorted(e.id for e in a.in_edges[centre])
    out_orbit = sorted(e.id for e in a.out_edges[centre])
    for l in range(3):
        e = a.edge_by_id[in_orbit[0]]
        edges.append(Edge(eid, dlabel(e.src), f"c{l}"))
        lift_of_edge[eid] = (e.id, l)
        eid += 1
    for l in range(3):
        e = a.edge_by_id[out_orbit[0]]
        edges.append(Edge(eid, f"c{l}", dlabel(e.dst)))
        lift_of_edge[eid] = (e.id, l)
        eid += 1
    coloring = {}
    for v in a.vertices:
        if v != centre:
            coloring[dlabel(v)] = a.coloring[orbit_rep[v]]
    for l in range(3):
        coloring[f"c{l}"] = a.coloring[centre]
    nu_v = {v: v for v in verts}
    third = a.phi[centre] / 3
    phi = {f"[{r}]": a.phi[r] for r in reps}
    phi.update({f"c{l}": third for l in range(3)})
    g = Graph(f"D{n}", n, verts, edges, nu_v, coloring, phi=_normalize_min(phi))
    g.base = a
    g.cover_lift = lift_of_edge
    g.cover_orbit_rep = orbit_rep
    return g


_FAMILIES = {
    "A": dict(min=4, check=lambda n: n >= 4, build=_build_a,
              note="fusion graph of SU(3) at level n-3"),
    "A*": dict(min=5, check=lambda n: n >= 5, build=_build_astar,
               note="conjugate graph: path with loops"),
    "D": dict(min=6, check=lambda n: n >= 6 and n % 3 == 0, build=_build_d,
              note="Z3-orbifold of A(n); n = 0 mod 3"),
    "D*": dict(min=5, check=lambda n: n >= 5, build=_build_dstar,
               note="threefold unfolding of A*(n)"),
    "E8": dict(min=None, check=None, build=lambda n: _build_e8(), note="exceptional, h=8"),
    "E8*": dict(min=None, check=None, build=lambda n: _build_e8star(), note="exceptional, h=8"),
}


def build_family(tag: str, n: int | None = None) -> Graph:
    if tag not in _FAMILIES:
        raise GraphError(f"unknown family {tag!r}; known: {sorted(_FAMILIES)}")
    fam = _FAMILIES[tag]
    if fam["check"] is None:
        if n is not None:
            raise GraphError(f"family {tag} takes no parameter")
    else:
        if n is None or not fam["check"](n):
            raise GraphError(f"illegal parameter n={n} for family {tag}")
    return fam["build"](n)


def family_catalog() -> list[dict]:
    """Rows for `graphs list`, including unsupported families."""
    rows = []
    showcase = {"A": 4, "A*": 5, "D": 9, "D*": 7}
    for tag in ("A", "A*", "D", "D*", "E8", "E8*"):
        fam = _FAMILIES[tag]
        sample = fam["build"](showcase.get(tag)) if fam["min"] else fam["build"](None)
        rows.append({
            "family": tag, "parameter": "n" if fam["min"] else None,
            "constraint": {"A": "n >= 4", "A*": "n >= 5", "D": "n >= 6, n = 0 mod 3",
                           "D*": "n >= 5"}.get(tag),
            "note": fam["note"],
            "example": {"name": sample.name, "h": sample.h,
                        "vertices": len(sample.vertices), "edges": len(sample.edges),
                        "P": "identity" if sample.nu_is_trivial() else "Z3 rotation"},
        })
    rows.append({"family": "E12 (l=1,2,4,5) / E24", "parameter": None, "constraint": None,
                 "note": "no built-in cell data; supply cells from a file "
                         "(E4(12) admits no cell system and is unsupported)",
                 "example": None})
    return rows


def parse_graph_spec(spec: str) -> Graph:
    """Parse 'A4', 'A7*', 'D9', 'D8*', 'E8', 'E8*', or 'file:path.json'."""
    if spec.startswith("file:"):
        with open(spec[5:], "r", encoding="utf-8") as fh:
            return load_graph(json.load(fh))
    s = spec.strip()
    star = s.endswith("*")
    if star:
        s = s[:-1]
    tag = s[:1].upper()
    try:
        n = int(s[1:])
    except ValueError:
        raise GraphError(f"cannot parse graph spec {spec!r}") from None
    if tag == "E":
        if n != 8:
            raise GraphError(f"family E{n}{'*' if star else ''} has no built-in data "
                             "(supply a graph file)")
        return build_family("E8*" if star else "E8")
    return build_family(tag + ("*" if star else ""), n)


# ---------------------------------------------------------------------------
# serialization: schema "acy-graph/1"
# ---------------------------------------------------------------------------

def save_graph(g: Graph) -> dict:
    doc = {
        "schema": "acy-graph/1",
        "name": g.name,
        "h": g.h,
        "vertices": list(g.vertices),
        "edges": [{"id": e.id, "src": e.src, "dst": e.dst} for e in g.edges],
        "nu": {"vertex_map": dict(g.nu_v),
               "edge_map": {str(k): v for k, v in g.nu_e.items()}},
        "pf": {"tower": g.tower.to_doc(),
               "coords": {v: g.phi[v].to_coords() for v in g.vertices}},
    }
    if g.coloring is not None:
        doc["coloring"] = dict(g.coloring)
    return doc


def load_graph(doc: dict) -> Graph:
    if json_field(doc, "schema", str, "graph document") != "acy-graph/1":
        raise GraphError(f"unsupported schema {doc['schema']!r}")
    h = json_field(doc, "h", int, "graph")
    nu = json_field(doc, "nu", dict, "graph")
    edges = [Edge(json_field(e, "id", int, "edge"), json_field(e, "src", str, "edge"),
                  json_field(e, "dst", str, "edge"))
             for e in json_field(doc, "edges", list, "graph")]
    vertices = json_field(doc, "vertices", list, "graph")
    vertex_map = json_field(nu, "vertex_map", dict, "nu")
    if not all(isinstance(v, str) for v in vertices + list(vertex_map.values())):
        raise GraphError("vertices and nu.vertex_map must name vertices by strings")
    phi = None
    if "pf" in doc:
        tower = FieldTower.from_doc(json_field(doc["pf"], "tower", dict, "pf"))
        if tower.h != h:
            raise GraphError("pf tower h does not match graph h")
        if tower.roots:
            raise GraphError("pf coordinates must live in the base tower")
        coords = json_field(doc["pf"], "coords", dict, "pf")
        if set(coords) != set(vertices):
            raise GraphError("pf.coords must have one entry per vertex and no other")
        phi = {v: Scalar.from_coords(tower, c) for v, c in coords.items()}
    edge_map = json_field(nu, "edge_map", dict, "nu") if "edge_map" in nu else {}
    if not all(k.isdigit() and isinstance(v, int) for k, v in edge_map.items()):
        raise GraphError("nu.edge_map must map edge ids to integer edge ids")
    nu_e = {int(k): v for k, v in edge_map.items()} or None
    coloring = json_field(doc, "coloring", dict, "graph") if "coloring" in doc else None
    if coloring and not all(isinstance(c, int) for c in coloring.values()):
        raise GraphError("field 'coloring' of graph must map vertices to integers")
    return Graph(doc.get("name", "custom"), h, vertices, edges, vertex_map, coloring,
                 nu_e=nu_e, phi=phi)
