import hashlib
import json

import pytest

import acy.homology
import acy.scalar
from acy import cli
from acy.algebra import AlgebraError, GradedAlgebra
from acy.cells import builtin_cells, derive_relations
from acy.homology import (Homology, _generators, _Resolution, _resolution_ranks,
                          build_report, cyclic_from_hh, differentials, euler_from_hc,
                          hh0_direct, verify_resolution)
from acy.quiver import parse_graph_spec
from acy.scalar import PrimeEmbedding
from acy.series import euler_characteristic_hc
from acy.solver import solve_cells
from conftest import own_relations
from oracles import predicted_tables, resolution_blocks, structure_from_euler


def test_a4_chain_space_v_block_empty(pipe):
    # the 3-cycle admits no (V (x) A)^S elements: mu'_1 has trivial domain
    _, _, _, hom = pipe("A4")
    for d in range(13):
        assert hom.chain_space(1, d) == []
    assert hom.hh_dim(1, 3) == 0


def test_vn_degree_zero_needs_loops(pipe):
    # (a (x) idempotent) lies in (V (x) A)^S only if a is a loop
    g, _, _, hom = pipe("E8*")
    elems = hom.space(1, 0, 0)
    for (eid, i) in elems:
        e = g.edge_by_id[eid]
        assert e.src == e.dst


def test_hh0_direct_values(pipe):
    _, _, A, _ = pipe("E8*")
    assert hh0_direct(A) == {0: 4, 1: 2, 2: 1, 3: 1, 5: 1}
    # D9: the double-edge relation identifies one combination of the three
    # degree-3 centre loops with vanishing loops, leaving 2t^3 + t^6
    _, _, A9, _ = pipe("D9")
    assert hh0_direct(A9) == {0: 12, 3: 2, 6: 1}
    _, _, A6d, _ = pipe("D6")
    assert hh0_direct(A6d) == {0: 6, 3: 1}
    for spec in ("A4", "A6"):
        _, _, Aa, _ = pipe(spec)
        assert hh0_direct(Aa) == {0: len(Aa.graph.vertices)}


def test_hh0_direct_matches_complex(pipe):
    for spec in ("A5", "E8*", "D6*"):
        _, _, A, hom = pipe(spec)
        direct = hh0_direct(A)
        via_complex = {}
        for d in range(A.top + 1):
            v = hom.hh_dim(0, d)
            if v:
                via_complex[d] = v
        assert via_complex == direct, spec


def test_cyclic_bookkeeping():
    assert cyclic_from_hh({}, 10, 10) == {}
    # a staircase: HH_0 = 1, HH_1 = 1 at degree 2 -> HC_0 = 1, HC_1 = 0
    hh = {(0, 2): 1, (1, 2): 1}
    assert cyclic_from_hh(hh, 4, 6) == {(0, 2): 1}
    # inconsistent table (HC_0 != HH_0) raises
    with pytest.raises(AlgebraError):
        cyclic_from_hh({(1, 2): 1}, 4, 6)


def test_structure_trivial_zero():
    out = structure_from_euler(8, [0] * 33, {}, True)
    assert out["X"] == {} and out["K"] == {}


def test_structure_d12_blocks():
    g_chi = euler_characteristic_hc
    from acy.quiver import build_family

    chi = g_chi(build_family("D", 12), 48)
    C = {3: 3, 6: 3, 9: 1}
    out = structure_from_euler(12, chi, C, True)
    assert out["K"] == {0: 14}
    assert out["X"] == {3: 1, 6: 4, 9: 1}


def test_structure_a6_k2():
    from acy.quiver import build_family

    chi = euler_characteristic_hc(build_family("A", 6), 72)
    hh1 = {}          # computed HH1 is zero for A6
    hh4 = {}
    out = structure_from_euler(6, chi, {}, False, hh1, hh4)
    assert out["K2"] == {0: 2}
    assert out["X2"] == {3: 1}
    assert out["K1"] == {} and out["X1"] == {} and out["X4"] == {}


def test_predicted_matches_computed_e8star(pipe):
    g, _, A, hom = pipe("E8*")
    h = g.h
    chi = euler_characteristic_hc(g, 4 * h)
    C = {d: v for d, v in hh0_direct(A).items() if d > 0}
    blocks = structure_from_euler(h, chi, C, True)
    want_hh, want_hc = predicted_tables(h, blocks, True, 13, 4 * h)
    hh = hom.hh_table(17, 4 * h)
    reduced = hom.reduced(hh)
    got_hh = {(i, d): v for (i, d), v in reduced.items() if i <= 13}
    assert got_hh == want_hh
    hc = cyclic_from_hh(reduced, 4 * h, 17)
    got_hc = {(i, d): v for (i, d), v in hc.items() if i <= 13}
    assert got_hc == want_hc


def test_duality_and_symmetry(pipe):
    for spec in ("A5", "E8*"):
        _, _, _, hom = pipe(spec)
        assert hom.verify_duality() == []
        hh = hom.hh_table(17, 4 * hom.g.h)
        assert hom.verify_dim_symmetry(hh, 4 * hom.g.h) == []


def _bump_first_entry(hom, r, t, j):
    """Add 1 to the first nonzero entry of the cached matrix mat(r, t, j)."""
    for col in hom.mat(r, t, j)["cols"]:
        if col:
            p = min(col)
            col[p] = col[p] + hom.A.one
            return
    raise AssertionError(f"mat{(r, t, j)} is zero")


# verify_duality after one entry of mu'_2 at total degree j + 1, which is
# mat(2, 0, j - 1), is raised by 1, for the first j where mu'_2 is nonzero.
# With trivial nu the same matrix also serves mu'_6 and mu'_10, so it fails
# at more (i, d).
MU2_FAULT = {
    "A9": (2, [(2, 3)]),
    "D9": (2, [(2, 3), (2, 6), (6, 12), (6, 15)]),
    "E8*": (1, [(2, 2), (2, 6), (6, 10), (6, 14)]),
}


def test_duality_detects_a_perturbed_differential(pipe):
    for spec, (j, want) in MU2_FAULT.items():
        _, cells, A, _ = pipe(spec)
        hom = Homology(A)
        assert not any(hom.mat(2, 0, j - 2)["cols"]), spec
        _bump_first_entry(hom, 2, 0, j - 1)
        assert hom.verify_duality() == want, spec


def test_duality_detects_a_perturbed_mu12(pipe):
    # mu'_12 on degree zero is mat(4, 2, 0); a nontrivial nu keeps it apart
    # from mu'_4 and mu'_8, so only the beta identity fails
    for spec in ("A4", "A9"):
        _, cells, A, _ = pipe(spec)
        hom = Homology(A)
        _bump_first_entry(hom, 4, 2, 0)
        assert not hom._check_mu12_beta(), spec
        assert hom.verify_duality() == [(12, "beta")], spec


# sha256 of every differential matrix Homology.mat(r, t, j), in exact normal
# form, as the four hand-written formulas gave them; the number of matrices
# comes first.
MAT_PIN = {
    "A4": (24, "b366835c68bda232c60c643b95d631cdc18f7ebb022be662da57f4475dfc79ae"),
    "A5": (36, "a9ddfe5a579645b329b626126c61ca5d466c063070bbab320c817a0743920913"),
    "E8*": (24, "0fe75489705fb95d1580d3e46548a3b02cf3f27a666a415ff4c50674e7e13263"),
    "D6": (16, "ed065ef627d3ef247ff43bf119bb45fe99557e21f6dffacad0af99c101a8538c"),
    "D5*": (36, "7bd249140be95d2f486b472f79d91bd53d54a8d0b14075422a673d882eebf0ea"),
}


def _mat_digest(hom) -> tuple[int, str]:
    def normal_form(x):
        return [sorted(x.re.items()), sorted(x.im.items()) if x.im else []]

    out = []
    for r in range(1, 5):
        for t in sorted({hom._tw(t) for t in range(3)}):
            for k in range(hom.A.top + 1):
                m = hom.mat(r, t, k)
                out.append([r, t, k + (r in (1, 2)), m["nd"], m["nt"],
                            [sorted((p, normal_form(c)) for p, c in col.items())
                             for col in m["cols"]]])
    return len(out), hashlib.sha256(json.dumps(out, separators=(",", ":")).encode()).hexdigest()


def test_differential_matrices_pinned(pipe):
    # the pins are of the algebra of W itself, over the cells' tower
    for spec, pin in MAT_PIN.items():
        g, cells, _, _ = pipe(spec)
        hom = Homology(GradedAlgebra(g, own_relations(cells)))
        assert _mat_digest(hom) == pin, spec


def test_generators_match_the_ends_of_every_mu_term(pipe):
    # a term (l, v', rt, c) of mu_r(gen), gen: a -> b, is a path l v' rt:
    # l runs from a to the left end of v', and rt from its right end to b
    for spec in ("A4", "A5*", "D9", "E8*"):
        g, _, A, hom = pipe(spec)
        for r in range(1, 5):
            ends = {v: (a, b) for v, a, b in _generators(g, r - 1)}
            gens = _generators(g, r)
            assert sorted(gen for gen, _, _ in gens) == sorted(hom.mu[r]), (spec, r)
            for gen, a, b in gens:
                for (kl, il), v, (kr, ir), _ in hom.mu[r][gen]:
                    left, right = A.basis[kl][il], A.basis[kr][ir]
                    assert (left.src, left.dst) == (a, ends[v][0]), (spec, r, gen)
                    assert (right.src, right.dst) == (ends[v][1], b), (spec, r, gen)


def test_resolution_exactness(pipe):
    # D9 and E8* take the trivial-nu (period-4) path, A4 and A7 the twisted one
    for spec in ("A4", "A7", "E8*", "D9"):
        _, _, _, hom = pipe(spec)
        res = verify_resolution(hom)
        assert res["ok"], res


# Per stage r of the resolution (r = 0..4) and total degree d = 0..top+h,
# summed over the (u, v) blocks of the one-sided complex P (x)_A A_0: the
# mod-p rank of mu_r (x) A_0, the dimension of its domain and the dimension
# of its target, as lists over d.  The numbers were computed separately from
# the bimodule complex, keeping the elements whose right factor has degree 0
# and the targets of right degree 0; the exact ranks over the tower agree.
RESOLUTION_PIN = {
    "A5": (1073741833, [
        ([6, 0, 0, 0, 0, 0, 0, 0],
         [6, 9, 6, 0, 0, 0, 0, 0],
         [6, 0, 0, 0, 0, 0, 0, 0]),
        ([0, 9, 6, 0, 0, 0, 0, 0],
         [0, 9, 15, 9, 0, 0, 0, 0],
         [6, 9, 6, 0, 0, 0, 0, 0]),
        ([0, 0, 9, 9, 0, 0, 0, 0],
         [0, 0, 9, 15, 9, 0, 0, 0],
         [0, 9, 15, 9, 0, 0, 0, 0]),
        ([0, 0, 0, 6, 9, 0, 0, 0],
         [0, 0, 0, 6, 9, 6, 0, 0],
         [0, 0, 9, 15, 9, 0, 0, 0]),
        ([0, 0, 0, 0, 0, 6, 0, 0],
         [0, 0, 0, 0, 0, 6, 9, 6],
         [0, 0, 0, 6, 9, 6, 0, 0]),
    ]),
    "E8*": (1073741857, [
        ([4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
         [4, 8, 12, 12, 8, 4, 0, 0, 0, 0, 0, 0, 0, 0],
         [4, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
        ([0, 8, 12, 12, 8, 4, 0, 0, 0, 0, 0, 0, 0, 0],
         [0, 8, 20, 28, 28, 20, 8, 0, 0, 0, 0, 0, 0, 0],
         [4, 8, 12, 12, 8, 4, 0, 0, 0, 0, 0, 0, 0, 0]),
        ([0, 0, 8, 16, 20, 16, 8, 0, 0, 0, 0, 0, 0, 0],
         [0, 0, 8, 20, 28, 28, 20, 8, 0, 0, 0, 0, 0, 0],
         [0, 8, 20, 28, 28, 20, 8, 0, 0, 0, 0, 0, 0, 0]),
        ([0, 0, 0, 4, 8, 12, 12, 8, 0, 0, 0, 0, 0, 0],
         [0, 0, 0, 4, 8, 12, 12, 8, 4, 0, 0, 0, 0, 0],
         [0, 0, 8, 20, 28, 28, 20, 8, 0, 0, 0, 0, 0, 0]),
        ([0, 0, 0, 0, 0, 0, 0, 0, 4, 0, 0, 0, 0, 0],
         [0, 0, 0, 0, 0, 0, 0, 0, 4, 8, 12, 12, 8, 4],
         [0, 0, 0, 4, 8, 12, 12, 8, 4, 0, 0, 0, 0, 0]),
    ]),
    "D6": (1073742073, [
        ([6, 0, 0, 0, 0, 0, 0, 0, 0, 0],
         [6, 10, 10, 6, 0, 0, 0, 0, 0, 0],
         [6, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
        ([0, 10, 10, 6, 0, 0, 0, 0, 0, 0],
         [0, 10, 20, 24, 10, 0, 0, 0, 0, 0],
         [6, 10, 10, 6, 0, 0, 0, 0, 0, 0]),
        ([0, 0, 10, 18, 10, 0, 0, 0, 0, 0],
         [0, 0, 10, 24, 20, 10, 0, 0, 0, 0],
         [0, 10, 20, 24, 10, 0, 0, 0, 0, 0]),
        ([0, 0, 0, 6, 10, 10, 0, 0, 0, 0],
         [0, 0, 0, 6, 10, 10, 6, 0, 0, 0],
         [0, 0, 10, 24, 20, 10, 0, 0, 0, 0]),
        ([0, 0, 0, 0, 0, 0, 6, 0, 0, 0],
         [0, 0, 0, 0, 0, 0, 6, 10, 10, 6],
         [0, 0, 0, 6, 10, 10, 6, 0, 0, 0]),
    ]),
    "D5*": (1073741833, [
        ([6, 0, 0, 0, 0, 0, 0, 0],
         [6, 9, 6, 0, 0, 0, 0, 0],
         [6, 0, 0, 0, 0, 0, 0, 0]),
        ([0, 9, 6, 0, 0, 0, 0, 0],
         [0, 9, 15, 9, 0, 0, 0, 0],
         [6, 9, 6, 0, 0, 0, 0, 0]),
        ([0, 0, 9, 9, 0, 0, 0, 0],
         [0, 0, 9, 15, 9, 0, 0, 0],
         [0, 9, 15, 9, 0, 0, 0, 0]),
        ([0, 0, 0, 6, 9, 0, 0, 0],
         [0, 0, 0, 6, 9, 6, 0, 0],
         [0, 0, 9, 15, 9, 0, 0, 0]),
        ([0, 0, 0, 0, 0, 6, 0, 0],
         [0, 0, 0, 0, 0, 6, 9, 6],
         [0, 0, 0, 6, 9, 6, 0, 0]),
    ]),
}


def test_resolution_ranks_pinned(pipe):
    for spec, (prime, stages) in RESOLUTION_PIN.items():
        g, _, _, hom = pipe(spec)
        emb = PrimeEmbedding.find(hom.A.tower)
        assert emb.p == prime, spec
        res = _Resolution(hom, emb)
        got = [([], [], []) for _ in range(5)]
        for d in range(hom.A.top + g.h + 1):
            blocks = res.degree(d).values()
            for r in range(5):
                for k in range(3):
                    got[r][k].append(sum(b[r][k] for b in blocks))
        assert got == [tuple(map(list, s)) for s in stages], spec
        out = verify_resolution(hom)
        assert (out["ok"], out["failures"], out["prime"]) == (True, [], prime), spec


def test_one_sided_ranks_drop_terms_with_a_positive_right_factor(pipe):
    # +1 on the 1 (x) e term of mu_1(e) makes it e (x) 1 alone: P (x)_A A_0
    # drops that term, so its ranks stay exact, and only the generator check
    # over the tower, the premise d o d = 0, sees the fault
    for spec in ("A4", "D6", "E8*"):
        g, _, A, _ = pipe(spec)
        hom = Homology(A)
        e = g.edges[0].id
        left, v, right, c = hom.mu[1][e][1]
        assert right[0] > 0, spec
        hom.mu[1][e][1] = (left, v, right, c + A.one)
        res = _Resolution(hom, PrimeEmbedding.find(A.tower))
        assert _resolution_ranks(res, A.top + g.h) == [], spec
        out = verify_resolution(hom)
        assert not out["ok"], spec
        assert ("d2-exact", 1, e) in out["failures"], spec
        assert {f[0] for f in out["failures"]} == {"d2-exact"}, spec


def _with_first_weight(change):
    """A _Resolution whose first reduced cell weight is replaced by
    change(w, p) in its modular image of mu_2; over the tower it is exact."""
    class Corrupted(_Resolution):
        def __init__(self, hom, emb):
            super().__init__(hom, emb)
            a = min(a for a, terms in self.mu[2].items() if terms)
            terms = self.mu[2][a]
            # the two terms of mu_2(a~) that carry one weight W_abc come first
            for n in (0, 1):
                left, v, right, w = terms[n]
                terms[n] = (left, v, right, change(w, self.p))
    return Corrupted


def test_resolution_detects_a_corrupted_modular_image(pipe, monkeypatch):
    # zero the first reduced cell weight: mu_2 loses rank at one block, and
    # mu_2 mu_3 no longer vanishes mod p at the ends of that edge
    _, _, _, hom = pipe("A4")
    monkeypatch.setattr(acy.homology, "_Resolution", _with_first_weight(lambda w, p: 0))
    out = verify_resolution(hom)
    assert not out["ok"]
    assert out["failures"] == [("d2-modp", 3, "0,0"), ("d2-modp", 3, "1,0"),
                               ("node1", 2, "1,0", "0,0"), ("node2", 2, "1,0", "0,0")]


def test_resolution_detects_a_rank_preserving_slip(pipe, monkeypatch):
    # one reduced cell weight raised by 1 keeps every rank; the generator
    # check of the modular maps finds mu_2 mu_3 != 0 at both ends of the edge
    monkeypatch.setattr(acy.homology, "_Resolution",
                        _with_first_weight(lambda w, p: (w + 1) % p))
    for spec in ("A4", "A5", "E8*", "D6"):
        g, _, _, hom = pipe(spec)
        a = g.edge_by_id[min(a for a, terms in hom.mu[2].items() if terms)]
        out = verify_resolution(hom)
        assert not out["ok"], spec
        assert sorted(out["failures"]) == sorted(
            ("d2-modp", 3, m) for m in {a.src, a.dst}), spec


def _flipped(A):
    """The differentials with mu_1(e) = e (x) 1 + 1 (x) e: mu_0 mu_1(e) = 2e
    on every edge."""
    mu = differentials(A)
    for terms in mu[1].values():
        left, v, right, c = terms[1]
        terms[1] = (left, v, right, -c)
    return mu


def test_resolution_detects_a_sign_flip_in_mu1(pipe, monkeypatch):
    g, _, A, _ = pipe("A4")
    monkeypatch.setattr(acy.homology, "differentials", _flipped)
    out = verify_resolution(Homology(A))
    assert not out["ok"]
    assert [f for f in out["failures"] if f[1] == 1] == [
        ("d2-exact", 1, e.id) for e in g.edges]


def test_cli_reports_a_sign_flip_in_mu1(monkeypatch, capsys):
    monkeypatch.setattr(acy.homology, "differentials", _flipped)
    code = cli.main(["verify", "--graph", "A4", "--check", "resolution", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["checks"] == {"hilbert": True, "resolution": False}
    assert doc["details"]["resolution_failures"][0] == ["d2-exact", 1, 0]


# +1 on the last term of mu_4 at the first vertex, the one of its top-degree w
# (whose dual is an idempotent).  mu_3 mu_4 then fails at that vertex and
# mu_4 mu_5 at edge 0.
MU4_FAULT = {"A4": "0,0", "A5": "0,0", "D6": "[0,0]", "E8*": "1"}


def _bump_mu4(mu: dict) -> dict:
    terms = next(iter(mu[4].values()))
    left, v, right, c = terms[-1]
    terms[-1] = (left, v, right, c + 1)
    return mu


def _retargeted(A):
    """The differentials with the term e (x) e_t (x) 1 of mu_1(e), for the
    first edge e: s -> t with s != t, sent to the generator e_s instead."""
    mu = differentials(A)
    e = next(e for e in A.graph.edges if e.src != e.dst)
    left, _, right, c = mu[1][e.id][0]
    mu[1][e.id][0] = (left, e.src, right, c)
    return mu


def test_an_image_that_escapes_the_target_space_raises(pipe, monkeypatch):
    # the retargeted term's image lies in the block of e_s, which the target
    # space of mu_1 does not hold, in the Hochschild matrices and in the
    # certificate's one-sided rows, which share the term rule
    monkeypatch.setattr(acy.homology, "differentials", _retargeted)
    for spec in ("A6", "D9", "E8*"):
        g, _, A, _ = pipe(spec)
        hom = Homology(A)
        with pytest.raises(AlgebraError, match="escapes the target space"):
            for t in range(3):
                for k in range(A.top + 1):
                    hom.mat(1, t, k)
        res = _Resolution(hom, PrimeEmbedding.find(A.tower))
        with pytest.raises(AlgebraError, match="escapes the target space"):
            for d in range(A.top + g.h + 1):
                res.degree(d)


def test_cli_exits_3_on_an_image_that_escapes_the_target_space(monkeypatch, capsys):
    monkeypatch.setattr(acy.homology, "differentials", _retargeted)
    assert cli.main(["verify", "--graph", "A6", "--check", "d2"]) == 3
    assert "escapes the target space" in capsys.readouterr().err


def test_resolution_detects_a_bumped_mu4(pipe, monkeypatch):
    monkeypatch.setattr(acy.homology, "differentials",
                        lambda A: _bump_mu4(differentials(A)))
    for spec, m in MU4_FAULT.items():
        _, _, A, _ = pipe(spec)
        out = verify_resolution(Homology(A))
        assert out["failures"] == [("d2-exact", 4, m), ("d2-exact", 5, 0)], spec


def test_cli_d2_check_reports_a_bumped_mu4(monkeypatch, capsys):
    # the Hochschild d o d misses this fault; the generator check sees it
    monkeypatch.setattr(acy.homology, "differentials",
                        lambda A: _bump_mu4(differentials(A)))
    code = cli.main(["verify", "--graph", "A4", "--check", "d2", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["checks"] == {"hilbert": True, "d2": False}
    assert ["d2-exact", 4, "0,0"] in doc["details"]["d2_failures"]


def test_cli_d2_check_text_names_where_it_fails(monkeypatch, capsys):
    monkeypatch.setattr(acy.homology, "differentials",
                        lambda A: _bump_mu4(differentials(A)))
    code = cli.main(["verify", "--graph", "A4", "--check", "d2"])
    out = capsys.readouterr().out
    assert code == 3
    assert "  d2: FAIL" in out.splitlines()
    line = next(x for x in out.splitlines() if x.startswith("  d2 failed at: "))
    assert ["d2-exact", 4, "0,0"] in json.loads(line.split(": ", 1)[1])


def test_compute_report_d2_sees_a_bumped_mu4(monkeypatch, capsys):
    # the Hochschild d o d the report always runs misses this fault; the
    # certificate's generator check sees it, and both checks report it
    monkeypatch.setattr(acy.homology, "differentials",
                        lambda A: _bump_mu4(differentials(A)))
    code = cli.main(["compute", "--graph", "A4", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["checks"]["d2"] is False
    assert doc["checks"]["exactness"] is False


def test_compute_report_names_where_a_bumped_mu4_fails(monkeypatch, capsys):
    monkeypatch.setattr(acy.homology, "differentials",
                        lambda A: _bump_mu4(differentials(A)))
    code = cli.main(["compute", "--graph", "A4", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert ["d2-exact", 4, "0,0"] in doc["failures"]["d2"]
    assert doc["failures"]["exactness"]
    assert cli.main(["compute", "--graph", "A4"]) == 3
    text = capsys.readouterr().out
    assert 'd2 failed at: [["d2-exact", 4, "0,0"]' in text
    assert "exactness failed at: [" in text


def test_resolution_detects_a_bumped_modular_mu4(pipe, monkeypatch):
    # the modular stage 4 applies the reduced mu_4 table, so the same +1 on
    # its image fails the generator check mod p.  The bumped term is the one
    # the one-sided rows read at that vertex: it breaks the nu-match of the
    # terms, so no rank rows are shared and every block is ranked, and a
    # term scaled by a unit keeps every rank
    made = []

    class Bumped(_Resolution):
        def __init__(self, hom, emb):
            super().__init__(hom, emb)
            _bump_mu4(self.mu)
            made.append(self)

    monkeypatch.setattr(acy.homology, "_Resolution", Bumped)
    for spec, m in MU4_FAULT.items():
        _, _, _, hom = pipe(spec)
        out = verify_resolution(hom)
        assert out["failures"] == [("d2-modp", 4, m), ("d2-modp", 5, 0)], spec
        assert made[-1].shared is False, spec


# +1 on the first term of mu_4 at the first vertex m whose w has degree
# top // 2, the middle of A: mu_3 mu_4 then fails at m, and mu_4 mu_5 at the
# edges into and out of m, which meet w on the left and w* on the right
MU4_MID_FAULT = {"A6": ("0,0", [0, 1]), "D6": ("[0,0]", [0, 1]), "E8": ("1_0", [0, 21])}


def _bump_mu4_mid(mu: dict, top: int, one) -> dict:
    terms = next(iter(mu[4].values()))
    n = next(n for n, t in enumerate(terms) if t[0][0] == top // 2)
    left, v, right, c = terms[n]
    terms[n] = (left, v, right, c + one)
    return mu


def test_resolution_detects_a_bumped_mu4_of_middle_degree(pipe, monkeypatch):
    for spec, (m, edges) in MU4_MID_FAULT.items():
        g, _, A, hom = pipe(spec)
        assert [e.id for e in g.edges if m in (e.src, e.dst)] == edges, spec
        bumped = Homology(A)
        _bump_mu4_mid(bumped.mu, A.top, A.one)
        out = verify_resolution(bumped)
        assert out["failures"] == [("d2-exact", 4, m)] + [("d2-exact", 5, e) for e in edges], spec

        class Bumped(_Resolution):
            def __init__(self, hom, emb):
                super().__init__(hom, emb)
                _bump_mu4_mid(self.mu, self.A.top, 1)

        with monkeypatch.context() as patch:
            patch.setattr(acy.homology, "_Resolution", Bumped)
            out = verify_resolution(hom)
        assert out["failures"] == [("d2-modp", 4, m)] + [("d2-modp", 5, e) for e in edges], spec


def test_resolution_shares_rank_rows_exactly_along_nu_orbits(pipe):
    # with nontrivial nu, one block per orbit is ranked; every block's rows
    # equal those of the oracle, which ranks each block on its own.  A10 and
    # A11 have no built-in cells, and are solved
    for spec in ("A6", "A7", "A8", "A9", "A10", "A11", "A12", "E8", "E8*", "D7*"):
        if spec in ("A10", "A11"):
            g = parse_graph_spec(spec)
            A = GradedAlgebra(g, derive_relations(solve_cells(g)))
            hom = Homology(A)
        else:
            g, _, A, hom = pipe(spec)
        emb = PrimeEmbedding.find(A.tower)
        res, full = _Resolution(hom, emb), _Resolution(hom, emb)
        assert res.shared is not g.nu_is_trivial(), spec
        for d in range(A.top + g.h + 1):
            assert res.degree(d) == resolution_blocks(full, d), (spec, d)


def test_pipe_caches_the_real_differentials_under_a_patch(pipe, monkeypatch):
    import conftest

    conftest._CACHE.pop("A4", None)
    monkeypatch.setattr(acy.homology, "differentials",
                        lambda A: _bump_mu4(differentials(A)))
    _, _, A, hom = pipe("A4")
    monkeypatch.undo()
    assert conftest._CACHE["A4"][3] is hom
    assert hom.mu == differentials(A)


def _zero_stage(r: int):
    """The differentials with mu_r = 0 on every generator: d o d = 0 still
    holds, so only the ranks can see the fault."""
    def mu(A):
        out = differentials(A)
        for gen in out[r]:
            out[r][gen] = []
        return out
    return mu


def test_resolution_ranks_fire_on_a_zeroed_stage(pipe, monkeypatch):
    # mu_r = 0 breaks exactness at nodes r - 1 and r of P (x)_A A_0, and
    # mu_1 = 0 at node 4 too, as mu_5 is mu_1 shifted
    algebras = {spec: pipe(spec)[2] for spec in ("A5", "E8", "D6")}
    for r in range(1, 5):
        monkeypatch.setattr(acy.homology, "differentials", _zero_stage(r))
        want = {f"node{r - 1}", f"node{r}"} | ({"node4"} if r == 1 else set())
        for spec, A in algebras.items():
            out = verify_resolution(Homology(A))
            assert not out["ok"], (spec, r)
            assert {f[0] for f in out["failures"]} == want, (spec, r)


def test_cli_reports_a_zeroed_stage(monkeypatch, capsys):
    monkeypatch.setattr(acy.homology, "differentials", _zero_stage(2))
    code = cli.main(["verify", "--graph", "A4", "--check", "resolution", "--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 3
    assert doc["checks"] == {"hilbert": True, "resolution": False}
    assert {f[0] for f in doc["details"]["resolution_failures"]} == {"node1", "node2"}


def test_resolution_skips_a_prime_that_fails_to_reduce(pipe, monkeypatch):
    _, _, A, hom = pipe("A4")
    first = PrimeEmbedding.find(A.tower).p
    residue = acy.scalar.residue

    def failing_at_first(x, emb):
        if emb.p == first:
            raise ZeroDivisionError
        return residue(x, emb)

    monkeypatch.setattr(acy.scalar, "residue", failing_at_first)
    out = verify_resolution(hom)
    assert out["ok"], out
    assert out["prime"] == PrimeEmbedding.find(A.tower, skip=1).p != first


def test_resolution_without_a_usable_prime(pipe, monkeypatch):
    _, _, _, hom = pipe("A4")

    def failing(x, emb):
        raise ZeroDivisionError

    monkeypatch.setattr(acy.scalar, "residue", failing)
    monkeypatch.setattr(acy.homology, "_PRIME_TRIES", 2)
    out = verify_resolution(hom)
    assert not out["ok"]
    assert out["failures"] == [("no-usable-prime", 2)]


def test_euler_two_way(pipe):
    for spec in ("A6", "D6*"):
        g, _, _, hom = pipe(spec)
        cutoff = 4 * g.h
        i_full = Homology.index_bound(g.h, cutoff)
        hh = hom.hh_table(i_full, cutoff)
        hc = cyclic_from_hh(hom.reduced(hh), cutoff, i_full)
        assert euler_from_hc(hc, cutoff) == euler_characteristic_hc(g, cutoff)


def test_cohomology_hh0_l_space(pipe):
    # HH^0 = HH_3'[-3] (+) L, with L spanned by the top generators at the
    # nu-fixed vertices; HH_3'[-3] stops below the top degree, so HH^0 there
    # is L alone.  A6 has exactly one fixed vertex, H_L = t^3; A4 has none
    for spec, fixed in (("A6", 1), ("A4", 0)):
        g, _, A, hom = pipe(spec)
        assert sum(g.nu_v[v] == v for v in g.vertices) == fixed
        hh = hom.hh_table(5, 4 * g.h)
        coh = hom.coh_table(0, -3 * g.h - 3, A.top)
        assert hom.verify_hh0_cohomology(hh, coh)
        assert coh.get((0, A.top), 0) == fixed, spec


def test_hh0_cohomology_sees_a_rank_fault(pipe):
    # +1 on the rank of mu_1^* at the lowest degree of HH^0, after the HH
    # table that the check compares with was taken; the cohomology table is
    # taken after the fault, as the report takes it from the same ranks
    g, _, A, _ = pipe("A6")
    hom = Homology(A)
    hh = hom.hh_table(3, g.h)
    coh = hom.coh_table(0, -3 * g.h - 3, A.top)
    assert hom.verify_hh0_cohomology(hh, coh)
    r, twist, k = hom._coh_params(1, min(d for _, d in coh))
    hom._rank_cache[(r, hom._tw(twist), k)] += 1
    assert not hom.verify_hh0_cohomology(hh, hom.coh_table(0, -3 * g.h - 3, A.top))


def _rank_fault_outcomes(spec, pipe, monkeypatch) -> dict:
    """For each distinct `Homology.rank(r, twist, k)` call of a report
    without the resolution, keyed on the raw arguments: the checks that fail
    when that one call returns rank + 1, or ["AlgebraError"] if it raises."""
    _, cells, A, _ = pipe(spec)
    real = Homology.rank
    calls = []

    def recorded(self, r, twist, k):
        calls.append((r, twist, k))
        return real(self, r, twist, k)

    monkeypatch.setattr(Homology, "rank", recorded)
    build_report(A, cells, with_resolution=False)
    out = {}
    for fault in dict.fromkeys(calls):
        def bumped(self, r, twist, k, fault=fault):
            return real(self, r, twist, k) + ((r, twist, k) == fault)

        monkeypatch.setattr(Homology, "rank", bumped)
        try:
            report = build_report(A, cells, with_resolution=False)
        except AlgebraError:
            out[fault] = ["AlgebraError"]
        else:
            out[fault] = [check for check, ok in report.checks.items() if not ok]
    return out


def test_no_single_rank_fault_is_silent(pipe, monkeypatch):
    """+1 on one distinct rank call at a time, 54 calls each on A6 and D6.
    Tally of faults per outcome (a fault may fail several checks):

      A6: 43 AlgebraError, 10 cohomology_routes, 4 euler, 2 dim_symmetry,
          2 periodicity;
      D6: 20 AlgebraError, 32 cohomology_routes, 12 euler, 9 dim_symmetry,
          12 periodicity, 1 hh0_cross.

    The fault at Homology.rank(2, -3, 1) changes only HH^13 at degree -3h;
    of all checks, only cohomology_routes (HH^13 = HH_2[-3h-3]) sees it."""
    for spec in ("A6", "D6"):
        outcomes = _rank_fault_outcomes(spec, pipe, monkeypatch)
        assert outcomes
        assert [f for f, fired in outcomes.items() if not fired] == [], spec


def _failed_with_rank_fault(pipe, monkeypatch, spec, fault) -> set:
    """The checks that fail in A(spec)'s report without the resolution when
    Homology.rank(*fault) returns rank + 1."""
    _, cells, A, _ = pipe(spec)
    real = Homology.rank

    def bumped(self, r, twist, k):
        return real(self, r, twist, k) + ((r, twist, k) == fault)

    monkeypatch.setattr(Homology, "rank", bumped)
    report = build_report(A, cells, with_resolution=False)
    return {check for check, ok in report.checks.items() if not ok}


def test_dim_symmetry_sees_a_rank_fault(pipe, monkeypatch):
    # rank(1, 2, 2) + 1 lowers HH_8 and HH_9 at degree 15 but not their
    # partners HH_3 and HH_2 at degree 3h - 15 = 3
    failed = _failed_with_rank_fault(pipe, monkeypatch, "A6", (1, 2, 2))
    assert failed == {"dim_symmetry", "euler", "cohomology_routes"}


def test_periodicity_sees_a_rank_fault(pipe, monkeypatch):
    # rank(3, 3, 0) + 1 moves HH_14 and HH_15 at degree 21, above the
    # reported indices, but not HH_2 and HH_3 at degree 21 - 3h = 3
    failed = _failed_with_rank_fault(pipe, monkeypatch, "A6", (3, 3, 0))
    assert failed == {"periodicity", "euler"}


def test_euler_sees_a_rank_fault(pipe, monkeypatch):
    # rank(4, 2, 0) + 1 lowers HH_11 and HH_12 at degree 3h together, so
    # HH_11,d = HH_12,(6h-d) still holds; HC_11 at degree 3h drops with them
    failed = _failed_with_rank_fault(pipe, monkeypatch, "A6", (4, 2, 0))
    assert failed == {"euler", "cohomology_routes"}


def test_cohomology_routes_sees_a_rank_fault(pipe, monkeypatch):
    # the fault of test_no_single_rank_fault_is_silent's docstring: it moves
    # only HH^13 at degree -3h, which no other check reads
    failed = _failed_with_rank_fault(pipe, monkeypatch, "A6", (2, -3, 1))
    assert failed == {"cohomology_routes"}


def test_hh0_cross_sees_a_faulted_commutator_table(pipe, monkeypatch):
    # +1 on HH_0 by commutators at degree 1: only the cross-check with HH_0
    # of the complex reads that table
    _, cells, A, _ = pipe("A6")
    real = acy.homology.hh0_direct

    def bumped(A):
        out = real(A)
        out[1] = out.get(1, 0) + 1
        return out

    monkeypatch.setattr(acy.homology, "hh0_direct", bumped)
    report = build_report(A, cells, with_resolution=False)
    assert {check for check, ok in report.checks.items() if not ok} == {"hh0_cross"}


@pytest.mark.parametrize("spec", ["A6", "D9", "E8"])
def test_a_faulted_form_table_fails_duality(spec):
    # twice one f(x y) with x of degree 1, after the form is built.  The
    # duality pairings read that table, and so do the top-degree products of
    # mu_4's Hochschild maps, so d2 and the tables built on them fail too;
    # though both sides of the duality now read the faulted table, it fails
    g = parse_graph_spec(spec)
    cells = builtin_cells(g)
    A = GradedAlgebra(g, derive_relations(cells))
    A.build_form()
    key = min(A.fxy[1])
    A.fxy[1][key] = A.fxy[1][key] + A.fxy[1][key]
    report = build_report(A, cells)
    assert {check for check, ok in report.checks.items() if not ok} == {
        "d2", "dim_symmetry", "duality", "euler"}


def test_report_assembly(pipe):
    g, cells, A, _ = pipe("A5")
    rep = build_report(A, cells, with_resolution=False)
    assert rep.ok
    doc = rep.to_doc()
    assert doc["schema"] == "acy-report/1"
    assert doc["tables"]["hh"]["2"] == {"3": 1}
    text = rep.render_text()
    assert "HH_2" in text and "pass" in text


def test_structure_e8_nontrivial_route(pipe):
    # the full non-trivial bookkeeping on E8: K1 from chi at degree h,
    # X1/X3 from the computed HH1/HH4, then X2, X4, K2 degreewise
    g, _, A, hom = pipe("E8")
    chi = euler_characteristic_hc(g, 4 * g.h)
    C = {d: v for d, v in hh0_direct(A).items() if d > 0}
    hh1 = {d: v for d in range(2 * g.h) if (v := hom.hh_dim(1, d))}
    hh4 = {d: v for d in range(3 * g.h) if (v := hom.hh_dim(4, d))}
    out = structure_from_euler(g.h, chi, C, False, hh1, hh4)
    assert out["C"] == {3: 1}
    assert out["X1"] == {} and out["X4"] == {} and out["K1"] == {}
    assert out["X2"] == {3: 1, 6: 1}
    assert out["X3"] == {9: 2}
    assert out["K2"] == {0: 2}
