"""Exact sparse Gaussian elimination over tower scalars.

Vectors are dicts {index: Scalar}; matrices are lists of such vectors
(column-wise: vectors[j] is the image of domain basis element j).  Pivot
choice is deterministic (lowest index), so echelon bases are reproducible.
"""

from __future__ import annotations

__all__ = ["Eliminator", "rank", "nullspace", "invert_dense",
           "axpy", "vec_scale", "vec_sub_scaled"]


def vec_scale(v: dict, c) -> dict:
    return {i: x * c for i, x in v.items()}


def axpy(out: dict, items, c=None, p: int = 0) -> dict:
    """out += c * vec in place, where `items` yields vec's (index, value)
    pairs and c=None means 1; entries that become zero are dropped.

    Values are tower scalars, or ints mod p when p is given."""
    if p:
        c = 1 if c is None else c
        for i, x in items:
            s = (out.get(i, 0) + c * x) % p
            if s:
                out[i] = s
            else:
                out.pop(i, None)
        return out
    for i, x in items:
        t = x if c is None else c * x
        cur = out.get(i)
        if cur is not None:
            t = cur + t
            if t.is_zero():
                del out[i]
                continue
        out[i] = t
    return out


def vec_sub_scaled(v: dict, w: dict, c) -> dict:
    """v - c*w."""
    return axpy(dict(v), w.items(), -c)


class Eliminator:
    """Reduced-echelon accumulator.

    Pivot vectors are normalized to 1 at their pivot index and kept mutually
    reduced, so a single pass over a vector's initial support reduces it
    completely.  With track=True, kernel combinations are reported.
    """

    def __init__(self, one=None, track: bool = False):
        self.pivots: dict[int, dict] = {}
        self.combs: dict[int, dict] | None = {} if track else None
        self.one = one
        if track and one is None:
            raise ValueError("tracking requires the scalar one of the tower")

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, v: dict, tag=None) -> dict | None:
        """Insert a vector; returns a kernel combination if it was dependent
        (only when tracking), else None for dependent / {} marker otherwise."""
        v = dict(v)
        comb = {tag: self.one} if self.combs is not None else None
        for i in sorted(v):
            piv = self.pivots.get(i)
            if piv is not None and i in v:
                c = v[i]
                v = vec_sub_scaled(v, piv, c)
                if comb is not None:
                    comb = vec_sub_scaled(comb, self.combs[i], c)
        if not v:
            return comb if comb is not None else None
        p = min(v)
        inv = v[p].inverse()
        v = vec_scale(v, inv)
        if comb is not None:
            comb = vec_scale(comb, inv)
        for i in self.pivots:
            piv = self.pivots[i]
            if p in piv:
                c = piv[p]
                self.pivots[i] = vec_sub_scaled(piv, v, c)
                if comb is not None:
                    self.combs[i] = vec_sub_scaled(self.combs[i], comb, c)
        self.pivots[p] = v
        if comb is not None:
            self.combs[p] = comb
        return None


def rank(vectors) -> int:
    e = Eliminator()
    for v in vectors:
        e.add(v)
    return e.rank


def nullspace(vectors, one) -> list[dict]:
    """Kernel of the column-wise matrix, as combinations {column: Scalar}."""
    e = Eliminator(one=one, track=True)
    out = []
    for j, v in enumerate(vectors):
        k = e.add(v, tag=j)
        if k is not None:
            out.append(k)
    return out


def invert_dense(cols: list[dict], n: int, one) -> list[dict]:
    """Inverse of an n x n matrix given column-wise; raises on singularity.

    Returns inverse columns: inv[j] expresses e_j over the original columns.
    """
    e = Eliminator(one=one, track=True)
    for j in range(n):
        if e.add(cols[j], tag=j) is not None:
            raise ValueError("singular matrix")
    if e.rank != n:
        raise ValueError("singular matrix")
    return [e.combs[i] for i in range(n)]
