"""The closed-form Hilbert series and the Euler characteristic of reduced
cyclic homology extracted from prod_s det H_A(t^s).

Both series are read off one sparse recurrence for the coefficients of
G = M^(-1), M = 1 - Dt + D^T t^2 - t^3: the Hilbert series is
G (1 - P t^h), and log det M is integrated from the traces tr(M' G), so the
Euler path never expands a determinant."""

from __future__ import annotations

from .quiver import Graph

__all__ = ["hilbert_closed_form", "euler_characteristic_hc"]


# ---------------------------------------------------------------------------
# Hilbert series of the quotient algebra
# ---------------------------------------------------------------------------

def _inverse_series(g: Graph, N: int):
    """Yield the matrix coefficients G^0..G^N of G = M^(-1), where
    M = 1 - Dt + D^T t^2 - t^3, as lists of rows.

    M G = 1 gives G^k = D G^(k-1) - D^T G^(k-2) + G^(k-3); row i of D G is
    the sum of the rows G[t] over the edges i -> t, so D is applied as
    adjacency lists and each step costs n^2 times the mean degree.
    """
    n = len(g.vertices)
    vi = g.vindex
    outs: list[list[int]] = [[] for _ in range(n)]  # row i of D G: rows t, i -> t
    ins: list[list[int]] = [[] for _ in range(n)]   # row i of D^T G: rows t, t -> i
    for e in g.edges:
        outs[vi[e.src]].append(vi[e.dst])
        ins[vi[e.dst]].append(vi[e.src])
    zero = [[0] * n for _ in range(n)]
    g1 = [[int(i == j) for j in range(n)] for i in range(n)]  # G^(k-1)
    g2 = g3 = zero                                              # G^(k-2), G^(k-3)
    yield g1
    for _ in range(N):
        G = []
        for i in range(n):
            acc = list(g3[i])
            for t in outs[i]:
                acc = [a + b for a, b in zip(acc, g1[t])]
            for t in ins[i]:
                acc = [a - b for a, b in zip(acc, g2[t])]
            G.append(acc)
        g1, g2, g3 = G, g1, g2
        yield G


def hilbert_closed_form(g: Graph, N: int) -> list[list[list[int]]]:
    """Matrix coefficients H^0..H^N of (1 - P t^h) / (1 - Dt + D^T t^2 - t^3).

    H = M^(-1) (1 - P t^h), so H^k = G^k - G^(k-h) P with G = M^(-1) from
    `_inverse_series`; column j of G P is column nu^(-1)(j) of G.
    """
    if N < g.h:
        raise ValueError(f"cutoff {N} must be at least h = {g.h}")
    vi = g.vindex
    back = [0] * len(g.vertices)  # back[j] = nu^(-1)(j)
    for v, w in g.nu_v.items():
        back[vi[w]] = vi[v]
    G = list(_inverse_series(g, N))
    out = G[:g.h]
    for k in range(g.h, N + 1):
        out.append([[a - low[b] for a, b in zip(row, back)]
                    for row, low in zip(G[k], G[k - g.h])])
    return out


def _nu_cycles(g: Graph) -> list[int]:
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

    The denominator is read through traces, not expanded: with G = M^(-1),
    (log det M)' = tr(M' G) and M' = -D + 2 D^T t - 3 t^2, so
    m [t^m] log det M = -tr(D G^(m-1)) + 2 tr(D^T G^(m-2)) - 3 tr(G^(m-3)).
    tr(D G) sums G[dst][src] and tr(D^T G) sums G[src][dst] over the edges.
    The numerator det(1 - P t^h) is the product of 1 - t^(h l) over the
    nu-cycles of length l, whose logs add -h l at every multiple of h l."""
    vi = g.vindex
    arcs = [(vi[e.src], vi[e.dst]) for e in g.edges]
    q = [0] * (N + 1)
    for k, G in enumerate(_inverse_series(g, N - 1)):
        # the t^k coefficient of tr(M' G) enters q_(k+1), q_(k+2), q_(k+3)
        q[k + 1] += sum(G[b][a] for a, b in arcs)
        if k + 2 <= N:
            q[k + 2] -= 2 * sum(G[a][b] for a, b in arcs)
        if k + 3 <= N:
            q[k + 3] += 3 * sum(G[i][i] for i in range(len(G)))
    for clen in _nu_cycles(g):
        for m in range(g.h * clen, N + 1, g.h * clen):
            q[m] -= g.h * clen
    return q


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
