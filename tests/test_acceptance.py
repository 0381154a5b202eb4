"""Acceptance suite: every criterion exact, one PASS line per criterion.

Expected homology tables are assembled from the periodic structure blocks
(C, X, K for trivial Nakayama automorphism; C, X1..X4, K1, K2 otherwise);
expected cohomology comes from the identification formulas applied to those
tables plus the fixed-vertex top-generator series L.

A note on the D family: a naive count of the cyclic loops through the
triplicated centre treats the three copies [(i1 i2 c_l i1)] as independent
in A/[A,A].  They are not: right-multiplying the double-edge relation by the
double edge identifies one weighted combination of the three with loops that
avoid the double edge and vanish.  Exact linear algebra (two independent
routes), the determinant-product Euler identity, duality, periodicity, and a
random-start scan of the full cell-equation solution space all confirm the
reduced count, which is what this suite asserts; the naive blocks are kept
below as strict expected-failure witnesses.
"""

import time
from fractions import Fraction

import pytest

from acy.algebra import GradedAlgebra
from acy.cells import derive_relations, verify_type_I, verify_type_II
from acy.homology import Homology, build_report, cyclic_from_hh, euler_from_hc, hh0_direct
from acy.quiver import build_family, parse_graph_spec
from acy.series import euler_characteristic_hc, hilbert_closed_form
from conftest import det_hilbert, pipeline, poly, rational, same_ratio, taylor
from oracles import gauge_transform, predicted_tables

# structure blocks per graph -------------------------------------------------

TRIVIAL = {
    "E8*": dict(C={1: 2, 2: 1, 3: 1, 5: 1}, X={}, K={0: 2}, L={5: 4}),
    "D9":  dict(C={3: 2, 6: 1}, X={}, K={0: 6}, L={6: 12}),
    "D12": dict(C={3: 2, 6: 1, 9: 1}, X={}, K={0: 14}, L={9: 21}),
    "A5*": dict(C={1: 1, 2: 1}, X={}, K={}, L={2: 2}),
    "A6*": dict(C={1: 2, 2: 1, 3: 1}, X={}, K={}, L={3: 2}),
    "A7*": dict(C={1: 2, 2: 2, 3: 1, 4: 1}, X={}, K={}, L={4: 3}),
    "A8*": dict(C={1: 3, 2: 2, 3: 2, 4: 1, 5: 1}, X={}, K={}, L={5: 3}),
    "D6*": dict(C={3: 1}, X={}, K={0: 2}, L={3: 6}),
    "D9*": dict(C={3: 2, 6: 1}, X={}, K={0: 6}, L={6: 12}),
}

NONTRIVIAL = {
    "A4": dict(C={}, X1={}, X2={3: 1}, X3={}, X4={}, K1={}, K2={}, L={}),
    "A5": dict(C={}, X1={}, X2={3: 1}, X3={6: 1}, X4={}, K1={}, K2={}, L={}),
    "A6": dict(C={}, X1={}, X2={3: 1}, X3={}, X4={}, K1={}, K2={0: 2}, L={3: 1}),
    "A7": dict(C={}, X1={}, X2={3: 1, 6: 1}, X3={9: 1}, X4={}, K1={}, K2={0: 2}, L={}),
    "E8": dict(C={3: 1}, X1={}, X2={3: 1, 6: 1}, X3={9: 2}, X4={}, K1={}, K2={0: 2}, L={}),
}

# the naive centre-loop counts (three independent loops per degree below the
# top), kept as strict expected-failure witnesses of the identification
NAIVE_D_BLOCKS = {
    "D9":  dict(C={3: 3, 6: 1}, X={3: 1, 6: 1}, K={0: 6}),
    "D12": dict(C={3: 3, 6: 3, 9: 1}, X={3: 1, 6: 4, 9: 1}, K={0: 14}),
}

HH0_ONLY = {
    "A9*": {1: 3, 2: 3, 3: 2, 4: 2, 5: 1, 6: 1},
    "D7*": {3: 1},
    "D8*": {3: 2},
}

TABLE_GRAPHS = list(NONTRIVIAL) + list(TRIVIAL)


def expected_tables(name: str):
    g = parse_graph_spec(name)
    h = g.h
    if name in TRIVIAL:
        b = TRIVIAL[name]
        hh, hc = predicted_tables(h, {"C": b["C"], "X": b["X"], "K": b["K"]},
                                  True, 13, 4 * h)
    else:
        b = NONTRIVIAL[name]
        hh, hc = predicted_tables(h, {k: b[k] for k in
                                      ("C", "X1", "X2", "X3", "X4", "K1", "K2")},
                                  False, 13, 4 * h)
    hh = dict(hh)
    hc = dict(hc)
    nv = len(g.vertices)
    hh[(0, 0)] = hh.get((0, 0), 0) + nv
    hc[(0, 0)] = hc.get((0, 0), 0) + nv
    return hh, hc


def expected_cohomology(name: str, hh: dict):
    g = parse_graph_spec(name)
    h = g.h
    L = (TRIVIAL.get(name) or NONTRIVIAL[name])["L"]
    coh = {}
    for (i, d), v in hh.items():
        if i == 3 and 3 <= d <= h - 1:
            coh[(0, d - 3)] = coh.get((0, d - 3), 0) + v
    for d, v in L.items():
        coh[(0, d)] = coh.get((0, d), 0) + v
    for i in (1, 2):
        for (ii, d), v in hh.items():
            if ii == 3 - i and ii >= 1:
                coh[(i, d - 3)] = v
    for i in range(3, 13):
        for (ii, d), v in hh.items():
            if ii == 15 - i:
                coh[(i, d - 3 * h - 3)] = v
    for (i, d), v in list(coh.items()):
        if i == 1:
            coh[(13, d - 3 * h)] = v
    return coh


def computed_tables(name: str):
    g, cells, A, hom = pipeline(name)
    cutoff = 4 * g.h
    i_full = Homology.index_bound(g.h, cutoff)
    hh_full = hom.hh_table(i_full, cutoff)
    hc_red = cyclic_from_hh(hom.reduced(hh_full), cutoff, i_full)
    hh = {(i, d): v for (i, d), v in hh_full.items() if i <= 13}
    hc = {(i, d): v for (i, d), v in hc_red.items() if i <= 13}
    hc[(0, 0)] = hc.get((0, 0), 0) + hh_full[(0, 0)]
    return hh, hc, hh_full


def test_criterion_1_hilbert_gate():
    graphs = ["A4", "A5", "A6", "A7", "A5*", "A6*", "A7*", "A8*", "A9*",
              "D9", "D12", "D6*", "D7*", "D8*", "D9*", "E8", "E8*"]
    for spec in graphs:
        t0 = time.time()
        g, cells, A, _ = pipeline(spec)   # construction enforces the gate
        H = hilbert_closed_form(g)
        vi = g.vindex
        for k in range(g.h):
            blocks = A.block_index[k] if k <= A.top else {}
            dims = {blk: len(idxs) for blk, idxs in blocks.items()}
            for a in g.vertices:
                for b in g.vertices:
                    assert dims.get((a, b), 0) == H[k][vi[a]][vi[b]], (spec, k)
        assert A.dim(A.top + 1) == 0
        elapsed = time.time() - t0
        assert elapsed < 30, f"{spec}: Hilbert gate took {elapsed:.1f}s"
    print("\nACCEPTANCE criterion 1 (Hilbert gate, 17 graphs): PASS")


def test_criterion_2_determinants():
    assert same_ratio(det_hilbert("A4"), rational([6], [3]))
    assert same_ratio(det_hilbert("E8*"), rational([2, 4, 8, 8], [1, 1]))
    for m in (2, 3, 4, 5):
        assert same_ratio(det_hilbert(f"A{2 * m + 2}*"),
                          rational([2] + [2 * m + 2] * (m - 1), [1] * m))
        assert same_ratio(det_hilbert(f"A{2 * m + 1}*"),
                          rational([2 * m + 1] * (m - 1), [1] * (m - 1)))
    for k in (1, 2):
        assert same_ratio(det_hilbert(f"D{6 * k}"),
                          rational([6 * k] * (2 * (3 * k * (k - 1) + 2)) + [3 * k], [3] * 3))
        assert same_ratio(det_hilbert(f"D{6 * k + 3}"),
                          rational([6 * k + 3] * (6 * k * k + 3), [3] * 3))
        assert same_ratio(det_hilbert(f"D{6 * k}*"),
                          rational([6] + [6 * k] * (9 * k - 6), [3] * (3 * k - 1)))
        assert same_ratio(det_hilbert(f"D{6 * k + 3}*"),
                          rational([6 * k + 3] * (9 * k), [3] * (3 * k)))
    t = poly([0, 1])
    assert same_ratio(det_hilbert("E8"),
                      tuple(p.compose(t, t ** 3) for p in det_hilbert("E8*")))
    print("\nACCEPTANCE criterion 2 (determinants): PASS")


def test_criterion_3_hh0_cross_check():
    cases = {}
    for n in (4, 5, 6, 7):
        cases[f"A{n}"] = {}
    for name in ("A5*", "A6*", "A7*", "A8*", "D6*", "D9*", "E8", "E8*", "D9", "D12"):
        src = TRIVIAL.get(name) or NONTRIVIAL.get(name)
        cases[name] = src["C"]
    cases.update(HH0_ONLY)
    for name, c_series in cases.items():
        g, cells, A, hom = pipeline(name)
        want = dict(c_series)
        want[0] = want.get(0, 0) + len(g.vertices)
        direct = hh0_direct(A)
        assert direct == want, (name, direct, want)
        via_complex = {d: hom.hh_dim(0, d) for d in range(A.top + 1)}
        via_complex = {d: v for d, v in via_complex.items() if v}
        assert via_complex == direct, name
    print("\nACCEPTANCE criterion 3 (HH0 cross-check, "
          f"{len(cases)} graphs): PASS")


@pytest.mark.xfail(strict=True,
                   reason="naive centre-loop count: the double-edge relation "
                          "identifies one combination of the three degree-3 "
                          "loops (see module docstring)")
def test_criterion_3_naive_d9_count():
    _, _, A, _ = pipeline("D9")
    want = dict(NAIVE_D_BLOCKS["D9"]["C"])
    want[0] = 12
    assert hh0_direct(A) == want


def test_criterion_4_full_tables():
    for name in TABLE_GRAPHS:
        t0 = time.time()
        want_hh, want_hc = expected_tables(name)
        got_hh, got_hc, _ = computed_tables(name)
        assert got_hh == want_hh, (name, "HH")
        assert got_hc == want_hc, (name, "HC")
        assert time.time() - t0 < 300, name
    print(f"\nACCEPTANCE criterion 4 (HH/HC tables, {len(TABLE_GRAPHS)} graphs): PASS")


@pytest.mark.xfail(strict=True,
                   reason="naive centre-loop structure blocks for D12 "
                          "(see module docstring)")
def test_criterion_4_naive_d12_tables():
    h = 12
    want_hh, _ = predicted_tables(h, dict(NAIVE_D_BLOCKS["D12"]), True, 13, 4 * h)
    want_hh = dict(want_hh)
    want_hh[(0, 0)] = want_hh.get((0, 0), 0) + 21
    got_hh, _, _ = computed_tables("D12")
    assert got_hh == want_hh


def test_criterion_5_cohomology():
    for name in TABLE_GRAPHS:
        g, cells, A, hom = pipeline(name)
        want_hh, _ = expected_tables(name)
        want = expected_cohomology(name, want_hh)
        got = hom.coh_table(13, -3 * g.h - 3, A.top)
        assert got == want, (name, "HH^*")
        _, _, hh_full = computed_tables(name)
        assert hom.verify_cohomology_routes(hh_full, got, 13) == []
        assert hom.verify_hh0_cohomology(hh_full, got)
    print(f"\nACCEPTANCE criterion 5 (cohomology, {len(TABLE_GRAPHS)} graphs): PASS")


def test_criterion_6_property_suite():
    graphs = TABLE_GRAPHS + ["A8", "A9", "D6", "D5*", "A10*"]
    for name in graphs:
        g, cells, A, hom = pipeline(name)
        rep = build_report(A, cells)
        bad = {k: v for k, v in rep.checks.items() if not v}
        assert not bad, (name, bad)
    print(f"\nACCEPTANCE criterion 6 (property suite, {len(graphs)} graphs "
          "including A8/A9 beyond the tabulated families): PASS")


def test_criterion_7_cell_certification():
    for name in TABLE_GRAPHS + ["A8", "A9", "D7*", "D8*", "A9*"]:
        _, cells, _, _ = pipeline(name)
        assert verify_type_I(cells).ok, name
        assert verify_type_II(cells).ok, name
    # gauge-transformed variants leave every homology table unchanged
    for name in ("A4", "D9"):
        g, cells, A, hom = pipeline(name)
        if name == "D9":
            (pair,) = [es for es in g.between.values() if len(es) > 1]
            u = {(pair[0].src, pair[0].dst):
                 [[Fraction(3, 5), Fraction(4, 5)], [Fraction(-4, 5), Fraction(3, 5)]]}
        else:
            e0 = g.edges[0]
            u = {(e0.src, e0.dst): [[-1]]}
        mixed = gauge_transform(cells, u)
        assert verify_type_I(mixed).ok and verify_type_II(mixed).ok
        A2 = GradedAlgebra(g, derive_relations(mixed))
        hom2 = Homology(A2)
        cutoff = 4 * g.h
        assert hom2.hh_table(13, cutoff) == hom.hh_table(13, cutoff), name
        assert hom2.coh_table(13, -3 * g.h - 3, A.top) == \
            hom.coh_table(13, -3 * g.h - 3, A.top), name
    print("\nACCEPTANCE criterion 7 (cell certification + gauge invariance): PASS")


def test_euler_two_way_all_table_graphs():
    for name in TABLE_GRAPHS:
        g, _, _, hom = pipeline(name)
        cutoff = 4 * g.h
        i_full = Homology.index_bound(g.h, cutoff)
        hh = hom.hh_table(i_full, cutoff)
        hc = cyclic_from_hh(hom.reduced(hh), cutoff, i_full)
        assert euler_from_hc(hc, cutoff) == euler_characteristic_hc(g, cutoff), name


@pytest.mark.xfail(strict=True,
                   reason="(t^3+t^6)/(1-t^12) pairs the wrong degrees: the "
                          "product identity puts the dual class in degree "
                          "9 = 3h - 3, not 6")
def test_a4_euler_wrong_pairing():
    got = euler_characteristic_hc(build_family("A", 4), 24)
    assert got == taylor({3: 1, 6: 1}, 12, 24)
