"""The closed-form Hilbert series and the Euler characteristic of reduced
cyclic homology extracted from prod_s det H_A(t^s).

The matrix Hilbert series H_A = (1 - P t^h) / M, M = 1 - Dt + D^T t^2 - t^3,
is a polynomial of degree h - 3 for these algebras: one sparse recurrence
for M H_A = 1 - P t^h gives its coefficients.  The Euler path reads log det
H_A from 3h traces of H_A' M P^j, j = 0, 1, 2, so it never expands a
determinant nor an inverse series."""

from __future__ import annotations

from .quiver import Graph, GraphError

__all__ = ["hilbert_closed_form", "euler_characteristic_hc"]


# ---------------------------------------------------------------------------
# Hilbert series of the quotient algebra
# ---------------------------------------------------------------------------

def _coefficients(g: Graph):
    """Yield the matrix coefficients H^0..H^h of
    H_A = (1 - P t^h) / (1 - Dt + D^T t^2 - t^3), as lists of rows.

    M H_A = 1 - P t^h gives H^k = D H^(k-1) - D^T H^(k-2) + H^(k-3) - [k = h] P.
    Row i of D H is the sum of the rows H[t] over the edges i -> t, so D is
    applied as adjacency lists; row i of P is the unit row at nu(i).  Once
    H^(h-2), H^(h-1) and H^h vanish, every later H^k does too, so H_A is a
    polynomial of degree below h - 2; after H^h, GraphError when it is not.
    """
    n, vi = len(g.vertices), g.vindex
    outs = [[vi[e.dst] for e in g.out_edges[v]] for v in g.vertices]  # rows of D H
    ins = [[vi[e.src] for e in g.in_edges[v]] for v in g.vertices]    # rows of D^T H
    h1 = [[int(i == j) for j in range(n)] for i in range(n)]  # H^(k-1)
    h2 = h3 = [[0] * n for _ in range(n)]                     # H^(k-2), H^(k-3)
    yield h1
    for k in range(1, g.h + 1):
        Hk = []
        for i, v in enumerate(g.vertices):
            acc = list(h3[i])
            for t in outs[i]:
                acc = [a + b for a, b in zip(acc, h1[t])]
            for t in ins[i]:
                acc = [a - b for a, b in zip(acc, h2[t])]
            if k == g.h:
                acc[vi[g.nu_v[v]]] -= 1
            Hk.append(acc)
        h1, h2, h3 = Hk, h1, h2
        yield Hk
    for k, H in zip(range(g.h - 2, g.h + 1), (h3, h2, h1)):
        if any(x for row in H for x in row):
            raise GraphError(f"the Hilbert series of {g.name} is not a polynomial "
                             f"of degree below h - 2 = {g.h - 2}: H^{k} != 0")


def hilbert_closed_form(g: Graph) -> list[list[list[int]]]:
    """Matrix coefficients H^0..H^h of the closed form of H_A, from
    `_coefficients`; GraphError when H_A is not a polynomial."""
    return list(_coefficients(g))


# ---------------------------------------------------------------------------
# Euler characteristic of reduced cyclic homology
# ---------------------------------------------------------------------------

def _mobius(n: int) -> int:
    out, d, m = 1, 2, n
    while d * d <= m:
        if m % d == 0:
            m //= d
            if m % d == 0:
                return 0
            out = -out
        d += 1
    if m > 1:
        out = -out
    return out


def _log_det_power_sums(g: Graph, N: int) -> list[int]:
    """q_0..q_N with log det H_A(t) = sum_(m >= 1) q_m t^m / m (q_0 = 0).

    (log det H_A)' = tr(H_A' H_A^(-1)), and H_A^(-1) = M (1 - P t^h)^(-1) =
    sum_(n >= 0) t^(nh) M P^(n mod 3), as P commutes with M and P^3 = 1.  H_A'
    M has degree below h, so q_m = [t^s] tr(H_A' M P^(n mod 3)) with
    m - 1 = n h + s.  With X = H_A' and M = (1 - t^3) - D t + D^T t^2,
    tr(X M P^j) = sum_c X[nu^j c][c] (1 - t^3) - sum_(a -> c) X[nu^j c][a] t
    + sum_(c -> a) X[nu^j c][a] t^2, over the vertices c and the edges."""
    h, vi = g.h, g.vindex
    arcs = [(vi[e.src], vi[e.dst]) for e in g.edges]
    nu = [vi[g.nu_v[v]] for v in g.vertices]
    rhos = [list(range(len(nu))), nu, [nu[c] for c in nu]]  # nu^j, j = 0, 1, 2
    # per j, entry i: the t^(i-4) coefficient of the vertex sum and of the
    # sums over the arcs a -> c and c -> a, each of X[nu^j c][.]; the t^(k-1)
    # coefficient of X = H_A' is k H^k
    sums = [([0] * 3, [0] * 3, [0] * 3) for _ in rhos]
    for k, Hk in enumerate(_coefficients(g)):
        for rho, (verts, ins, outs) in zip(rhos, sums):
            verts.append(k * sum(Hk[r][c] for c, r in enumerate(rho)))
            ins.append(k * sum(Hk[rho[c]][a] for a, c in arcs))
            outs.append(k * sum(Hk[rho[c]][a] for c, a in arcs))
    # traces[j][s] = [t^s] tr(H_A' M P^j)
    traces = [[verts[s + 4] - verts[s + 1] - ins[s + 3] + outs[s + 2] for s in range(h)]
              for verts, ins, outs in sums]
    return [0] + [traces[m // h % 3][m % h] for m in range(N)]   # q_(m+1)


def euler_characteristic_hc(g: Graph, N: int | None = None) -> list[int]:
    """Coefficients a_0..a_N of chi(t) = sum a_k t^k, where
    prod_k (1 - t^k)^(-a_k) = prod_s det H_A(t^s).  Default N = 4h.

    Taking logs, L = sum_s log det H_A(t^s) has r L_r = sum_(s | r) s q_(r/s)
    with q from `_log_det_power_sums`, and r L_r = sum_(d | r) d a_d, which
    Moebius inversion solves; all of it is integer arithmetic."""
    if N is None:
        N = 4 * g.h
    if N < 3 * g.h:
        raise ValueError(f"cutoff {N} must be at least 3h = {3 * g.h}")
    q = _log_det_power_sums(g, N)
    rL = [0] * (N + 1)
    for s in range(1, N + 1):
        for m in range(1, N // s + 1):
            rL[s * m] += s * q[m]
    a = [0] * (N + 1)
    for r in range(1, N + 1):
        acc = sum(_mobius(r // d) * d_rL for d, d_rL in enumerate(rL) if d and r % d == 0)
        if acc % r:
            raise ArithmeticError(f"non-integer Euler coefficient at degree {r}")
        a[r] = acc // r
    return a
