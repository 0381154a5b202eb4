"""Sparse Gaussian elimination over tower scalars, over Q(omega) in
`Eisenstein`s, over Q in Python's ints and Fractions, or over the integers
mod p; and the integer kernel of integer vectors, as a Z-basis.

Vectors are dicts {index: value}; matrices are lists of such vectors
(column-wise: vectors[j] is the image of domain basis element j).  One
forward echelon accumulator, `Eliminator`, serves every caller: ranks, the
reduced echelon form (unique for a given span, so the output does not depend
on insertion order), kernels and inverses.  Pivot choice is deterministic
(lowest index).
"""

from __future__ import annotations

from . import scalar

__all__ = ["Eliminator", "rank", "nullspace", "integer_kernel", "invert_dense", "axpy"]


def axpy(out: dict, items, c=None, p: int = 0) -> dict:
    """out += c * vec in place, where `items` yields vec's (index, value)
    pairs and c=None means 1; entries that become zero are dropped.

    Values are tower scalars, Eisensteins, ints and Fractions, or ints mod
    p when p is given."""
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
            if not t:
                del out[i]
                continue
        out[i] = t
    return out


class Eliminator:
    """Forward echelon accumulator over any coefficient field that
    `scalar.inverse` serves (p = 0), or over F_p.

    `pivots[lead]` is a stored vector whose lowest index is `lead`, with
    value 1 there.  A new vector is reduced at its lowest index until that
    index is free, then stored normalised; `reduced` back-substitutes once.
    """

    def __init__(self, p: int = 0):
        self.p = p
        self.pivots: dict[int, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, v: dict) -> None:
        """Insert a vector; it adds a pivot unless it is in the span."""
        p, pivots = self.p, self.pivots
        v = dict(v)
        while v:
            lead = min(v)
            piv = pivots.get(lead)
            if piv is None:
                if p:
                    inv = pow(v[lead], -1, p)
                    pivots[lead] = {i: x * inv % p for i, x in v.items()}
                else:
                    inv = scalar.inverse(v[lead])
                    pivots[lead] = {i: x * inv for i, x in v.items()}
                return
            axpy(v, piv.items(), -v[lead], p)

    def reduced(self) -> dict[int, dict]:
        """The reduced echelon form {lead: row}: each row is 1 at its lead and
        0 at every other lead.  Rows are reduced in place, from the highest
        lead down, so later `add`s still see an echelon form."""
        pivots, p = self.pivots, self.p
        for lead in sorted(pivots, reverse=True):
            row = pivots[lead]
            for j in [j for j in row if j != lead and j in pivots]:
                axpy(row, pivots[j].items(), -row[j], p)
        return pivots


def rank(vectors, p: int = 0) -> int:
    """Rank of the vectors, over F_p when p is given; sparser vectors go
    first, so pivots stay sparse and fill-in small."""
    e = Eliminator(p)
    for v in sorted(vectors, key=len):
        e.add(v)
    return e.rank


def nullspace(vectors, one) -> list[dict]:
    """Kernel of the column-wise matrix, as combinations {column: value}:
    one per column that depends on the columns before it, in ascending
    order, with 1 there and 0 at every other such column."""
    rows: dict[int, dict] = {}
    for j, v in enumerate(vectors):
        for i, x in v.items():
            rows.setdefault(i, {})[j] = x
    e = Eliminator()
    for row in sorted(rows.values(), key=len):
        e.add(row)
    red = e.reduced()
    out = []
    for j in range(len(vectors)):
        if j not in red:
            k = {lead: -row[j] for lead, row in red.items() if j in row}
            k[j] = one
            out.append(k)
    return out


def integer_kernel(vectors) -> list[dict]:
    """A Z-basis of the lattice of integer relations {i: n_i} with
    sum_i n_i v_i = 0 among integer vectors v_i.

    The rows [v_i | e_i] are brought to echelon form in v by unimodular row
    operations, Euclid's algorithm on each column in turn, so the e parts of
    the rows whose v part vanishes span exactly the relations.  A Q-basis
    of the kernel, such as `nullspace` gives, with its denominators cleared
    can span a proper sublattice of them."""
    rows = [(dict(v), {i: 1}) for i, v in enumerate(vectors)]
    for col in sorted(set().union(*vectors)):
        hits = [r for r in rows if r[0].get(col)]
        while len(hits) > 1:
            piv = min(hits, key=lambda r: abs(r[0][col]))
            for r in hits:
                if r is not piv:
                    q = -(r[0][col] // piv[0][col])
                    axpy(r[0], piv[0].items(), q)
                    axpy(r[1], piv[1].items(), q)
            hits = [r for r in hits if r[0].get(col)]
        if hits:
            rows = [r for r in rows if r is not hits[0]]
    return [n for _, n in rows]


def invert_dense(cols: list[dict], n: int, one) -> list[dict]:
    """Inverse of an n x n matrix given column-wise; raises on singularity.

    Returns inverse columns: inv[j] expresses e_j over the original columns.
    They are read off the reduced form of the rows [M^T | I].
    """
    e = Eliminator()
    for j in range(n):
        e.add({**cols[j], n + j: one})
    red = e.reduced()
    if any(lead >= n for lead in red):
        raise ValueError("singular matrix")
    return [{j - n: x for j, x in red[i].items() if j >= n} for i in range(n)]
