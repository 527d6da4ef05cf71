"""Relative (co)dominant dimension: both methods, classical values, cograde."""

import pytest

from qhcover.algebra import basic_algebra, centralizer_algebra, opposite
from qhcover.fields import GF, QQ
from qhcover.gallery import build_am, build_hecke, build_schur
from qhcover.homology import DimValue
from qhcover.linalg import Mat
from qhcover.modules import (
    direct_sum,
    dual,
    hom_space,
    is_isomorphic,
    regular_module,
    top,
)
from qhcover.reldim import (
    classical_domdim,
    codomdim_chain,
    domdim_chain,
    find_projective_injectives,
    left_add_approximation,
    reduced_cograde,
    relative_codomdim,
    relative_domdim,
    right_add_approximation,
)

from conftest import make_am_algebra

F3 = GF(3)


def indec_projectives(a):
    from qhcover.modules import _indec_projective

    prim = a.primitive_idempotents()
    return [_indec_projective(a, ci)[0] for ci in range(prim.n_blocks)]


def a2_modules(a2):
    p1, p2 = sorted(indec_projectives(a2), key=lambda m: m.dim)
    s1, s2 = top(p1)[0], top(p2)[0]
    return p1, p2, s1, s2


# -- approximations -------------------------------------------------------------


def test_right_approx_split_for_add_q(a2_gf3):
    p1, p2, s1, s2 = a2_modules(a2_gf3)
    f = right_add_approximation(p2, p2)
    assert f.is_surjective()


def test_right_approx_p2_to_s2(a2_gf3):
    p1, p2, s1, s2 = a2_modules(a2_gf3)
    f = right_add_approximation(p2, s2)
    assert f.source.dim == 3 and f.is_surjective()


def test_right_approx_zero_hom(a2_gf3):
    p1, p2, s1, s2 = a2_modules(a2_gf3)
    f = right_add_approximation(p2, s1)
    assert f.source.dim == 0 and not f.is_surjective()


def test_left_approx_regular_into_p2(a2_gf3):
    p1, p2, s1, s2 = a2_modules(a2_gf3)
    reg = regular_module(a2_gf3)
    f = left_add_approximation(p2, reg)
    assert f.is_injective()  # P(2) is faithful: A embeds into add P(2)
    g = left_add_approximation(p2, s1)
    assert g.matrix.is_zero() or not g.is_injective()


# -- chain oracle vs the default method ------------------------------------------


def test_codomdim_infinite_for_add_q(a2_gf3):
    p1, p2, s1, s2 = a2_modules(a2_gf3)
    v, chain = codomdim_chain(p2, p2, 8)
    assert v.is_infinite()
    assert relative_codomdim(p2, p2, 8).value.is_infinite()


def test_codomdim_zero_case(a2_gf3):
    p1, p2, s1, s2 = a2_modules(a2_gf3)
    v, chain = codomdim_chain(p2, s1, 8)
    assert (v.kind, v.n) == ("exact", 0)
    assert relative_codomdim(p2, s1, 8).value.kind == "exact"
    assert relative_codomdim(p2, s1, 8).value.n == 0


def test_methods_agree_on_a2_pairs(a2_gf3):
    p1, p2, s1, s2 = a2_modules(a2_gf3)
    reg = regular_module(a2_gf3)
    mods = [p1, p2, s1, s2, reg, dual(dual(p1))]
    for q in [p1, p2, s2, direct_sum([p2, s2])[0]]:
        for m in mods:
            mv = relative_codomdim(q, m, 8).value
            cv, _ = codomdim_chain(q, m, 8)
            assert (mv.kind, mv.n) == (cv.kind, cv.n), (q.name, m.name, str(mv), str(cv))


def test_tilting_codomdim_infinite_a2(a2_gf3):
    # q = T = P(2) + S(2) is the characteristic tilting module of A_2
    p1, p2, s1, s2 = a2_modules(a2_gf3)
    t = direct_sum([p2, s2])[0]
    assert relative_codomdim(t, t, 8).value.is_infinite()


def test_p2_codomdim_of_dual_regular_is_two(a2_gf3):
    # P(2)-codomdim D(A) = P(2)-domdim A = domdim A_2 = 2
    p1, p2, s1, s2 = a2_modules(a2_gf3)
    da = dual(regular_module(opposite_algebra(a2_gf3)))
    v = relative_codomdim(p2, da, 8).value
    assert (v.kind, v.n) == ("exact", 2)


def opposite_algebra(a):
    from qhcover.algebra import opposite

    return opposite(a)


# -- classical dominant dimension --------------------------------------------------


def test_find_projective_injectives_a2(a2_gf3):
    p = find_projective_injectives(a2_gf3)
    assert p.dim == 3  # only P(2) is also injective


def test_classical_domdim_a2_a3(a2_gf3, a3_gf3):
    v2, _ = classical_domdim(a2_gf3, 10)
    assert (v2.value.kind, v2.value.n) == ("exact", 2)
    v3, _ = classical_domdim(a3_gf3, 10)
    assert (v3.value.kind, v3.value.n) == ("exact", 4)


def test_classical_domdim_a2_qq(a2_qq):
    v, _ = classical_domdim(a2_qq, 10)
    assert (v.value.kind, v.value.n) == ("exact", 2)


def test_classical_domdim_semisimple_infinite():
    import numpy as np
    from qhcover.algebra import from_structure_constants

    # GF(3)[x]/(x^2 - x) = GF(3) x GF(3): semisimple
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0][0][0] = mult[0][1][1] = mult[1][0][1] = mult[1][1][1] = 1
    a = from_structure_constants(F3, 2, mult, [1, 0])
    assert a.radical_subspace().dim == 0
    v, _ = classical_domdim(a, 8)
    assert v.value.is_infinite()


def unreduced_domdim(a, cap):
    """(value, b_dim, proj_inj_dim) of A computed on A itself, with no basic algebra:
    the projectives of A isomorphic to duals of projectives of A^op, and
    their domdim relative to the regular module of A."""
    from qhcover.modules import _indec_projective

    aop = opposite(a)
    injectives = [dual(_indec_projective(aop, ci)[0]) for ci in range(aop.primitive_idempotents().n_blocks)]
    keep = [p for p in indec_projectives(a) if any(is_isomorphic(p, i) is not None for i in injectives)]
    if not keep:
        return DimValue.exact(0), 0, 0
    p = keep[0] if len(keep) == 1 else direct_sum(keep)[0]
    report = relative_domdim(p, regular_module(a), cap)
    return report.value, report.b_dim, p.dim


def assert_morita_invariant(a, cap=10):
    expected = unreduced_domdim(a, cap)
    report, p_dim = classical_domdim(a, cap)
    assert (report.value, report.b_dim, p_dim) == expected
    assert find_projective_injectives(a).dim == p_dim
    return expected


MORITA_CASES = {
    "S_GF2(2,2)": lambda: build_schur(2, 2, 1, GF(2)),
    "S_GF3(2,3)": lambda: build_schur(2, 3, 1, F3),
    "S_QQ(2,3)": lambda: build_schur(2, 3, 1, QQ),
    "S_GF2(3,2)": lambda: build_schur(3, 2, 1, GF(2)),
    "S_GF2(2,4)": lambda: build_schur(2, 4, 1, GF(2)),
    "S_GF5(2,5)": lambda: build_schur(2, 5, 1, GF(5)),
    "S_GF5(3,2),u=2": lambda: build_schur(3, 2, 2, GF(5)),
    "S_GF7(3,3),u=2": lambda: build_schur(3, 3, 2, GF(7)),
    "H_GF2(3)": lambda: build_hecke(3, 1, GF(2)),
    "H_GF3(3)": lambda: build_hecke(3, 1, F3),
    "A3_QQ": lambda: build_am(3, QQ),
}


@pytest.mark.parametrize("name", list(MORITA_CASES))
def test_classical_domdim_on_the_basic_algebra_matches_the_unreduced_one(name):
    assert_morita_invariant(MORITA_CASES[name]().algebra)


def test_classical_domdim_pins_on_schur33_and_m3(schur33_gf3, schur33_gf2):
    m3 = centralizer_algebra([Mat.identity(GF(2), 3)])[0]
    assert basic_algebra(m3)[0].dim == 1
    assert assert_morita_invariant(m3) == (DimValue.infinite(), 1, 3)
    assert assert_morita_invariant(schur33_gf3.algebra) == (DimValue.exact(4), 6, 27)
    assert assert_morita_invariant(schur33_gf2.algebra) == (DimValue.exact(2), 3, 19)
    # the exact value 4 on S_GF3(3,3) is read off B's Tor ladder: Tor_1 = Tor_2 = 0, Tor_3 != 0
    tor_dims = classical_domdim(schur33_gf3.algebra, 10)[0].tor_dims
    assert tor_dims[:2] == [0, 0] and tor_dims[2] > 0


def test_classical_domdim_builds_no_module_over_a_non_basic_algebra():
    # dim P = 27 on S_GF3(3,3) is read on the 9-dimensional basic algebra:
    # no A e_i over the 165-dimensional A is built, and the reference builds P
    a = build_schur(3, 3, 1, F3).algebra
    report, p_dim = classical_domdim(a, 10)
    assert basic_algebra(a)[0] is not a and (str(report.value), p_dim) == ("Exact(4)", 27)
    built_over_a = lambda: [key for key in vars(a) if key.startswith("_indec_projective")]
    assert not built_over_a()
    assert find_projective_injectives(a).dim == 27 and built_over_a()


def test_domdim_s2_is_one(a2_gf3):
    # domdim S(2) = 1: embeds in P(2) but the cokernel I(1) has no add-P(2) embedding
    p1, p2, s1, s2 = a2_modules(a2_gf3)
    v = relative_domdim(p2, s2, 8).value
    assert (v.kind, v.n) == ("exact", 1)
    vc, _ = domdim_chain(p2, s2, 8)
    assert (vc.kind, vc.n) == ("exact", 1)


def test_duality_identity_triple(a2_gf3):
    # DQ-domdim(A^op regular) = Q-codomdim(DA) = Q-domdim(A)
    from qhcover.algebra import opposite

    p1, p2, s1, s2 = a2_modules(a2_gf3)
    aop = opposite(a2_gf3)
    for q in [p2, direct_sum([p2, s2])[0]]:
        v1 = relative_domdim(dual(q), regular_module(aop), 8).value
        v2 = relative_codomdim(q, dual(regular_module(aop)), 8).value
        v3 = relative_domdim(q, regular_module(a2_gf3), 8).value
        assert str(v1) == str(v2) == str(v3)


# -- reduced cograde ------------------------------------------------------------------


def test_cograde_projective_infinite(a2_gf3):
    p1, p2, s1, s2 = a2_modules(a2_gf3)
    x = dual(p1)  # right A-module over opposite
    assert reduced_cograde(x, p2, 8).is_infinite()


def test_cograde_tor1_nonzero(a2_gf3):
    # Tor_1(D S(2), M) is dual to Ext^1(M, S(2)), which is nonzero for M = S(1)
    # (resolution 0 -> P(1) -> P(2) -> ... of S(1) has a P(2) in degree 1).
    p1, p2, s1, s2 = a2_modules(a2_gf3)
    x = dual(s2)
    v = reduced_cograde(x, s1, 8)
    assert (v.kind, v.n) == ("exact", 1)
    # the pair (D S(2), S(2)) itself has all Tor vanishing (Ext^i(S2, S2) = 0, i > 0)
    assert reduced_cograde(x, s2, 8).is_infinite()


def test_cograde_cross_check_a2(a2_gf3):
    # For Y with an add(Q)-presentation: Q-domdim Y >= n iff cograde_{DQ} X >= n+1
    from qhcover.modules import quotient_module, socle
    from qhcover.reldim import cograde_cross_check

    p1, p2, s1, s2 = a2_modules(a2_gf3)
    ys = []
    # Y = P(2)/soc = [2/1] admits an add(P(2))-presentation
    soc_mod, soc_incl = socle(p2)
    from qhcover.linalg import Subspace

    y, _ = quotient_module(p2, Subspace.from_columns(soc_incl.matrix))
    ys.append((p2, y))
    ys.append((p2, p2))
    ys.append((p2, s2))
    checked = 0
    for q, yy in ys:
        res = cograde_cross_check(q, yy, cap=8)
        if res is None:
            continue
        checked += 1
        domdim, cograde = res
        # equivalence: domdim >= n iff cograde >= n + 1, modulo cap censoring
        if domdim.kind == "exact" and cograde.kind == "exact":
            assert cograde.n == domdim.n + 1, (str(domdim), str(cograde))
        elif domdim.kind == "exact":
            assert cograde.kind == "at_least" and cograde.n <= domdim.n + 1
        elif cograde.kind == "exact":
            assert not domdim.is_infinite() and cograde.n - 1 >= domdim.n
    assert checked >= 2


def test_methods_agree_over_qq(a2_qq):
    from qhcover.modules import _indec_projective

    prim = a2_qq.primitive_idempotents()
    p1 = _indec_projective(a2_qq, 0)[0]
    p2 = _indec_projective(a2_qq, 1)[0]
    s2 = top(p2)[0]
    reg = regular_module(a2_qq)
    t = direct_sum([p2, s2])[0]
    for q in [p2, t]:
        for m in [p1, p2, s2, reg, t]:
            mv = relative_codomdim(q, m, 7).value
            cv, _ = codomdim_chain(q, m, 7)
            assert str(mv) == str(cv), (m.name, str(mv), str(cv))


def test_end_algebra_built_once(monkeypatch):
    from qhcover import algebra
    from qhcover.algebra import opposite
    from qhcover.modules import end_algebra_with_bimodule, endomorphism_algebra
    from qhcover.qh import WeightPoset, verify_split_qh
    from qhcover.reldim import _split_off_add_q

    calls = []
    original = algebra._primitive_idempotents

    def counting(a):
        calls.append(a)
        return original(a)

    monkeypatch.setattr(algebra, "_primitive_idempotents", counting)
    a = make_am_algebra(2, F3)
    _, qh = verify_split_qh(a, WeightPoset(["1", "2"], [(1, 0)], [a.basis_element(v) for v in range(2)]))
    t = qh.characteristic_tilting()
    s2 = top(qh.projectives[1])[0]  # = T(2), so the split-off is one cheap iso test
    assert _split_off_add_q(s2, t).dim == 0
    assert relative_codomdim(t, s2, cap=6).value.is_infinite()
    end_t = endomorphism_algebra(t)
    assert end_t is endomorphism_algebra(t)
    assert end_algebra_with_bimodule(t)[0] is opposite(end_t[0])
    # End(T) and End(T)^op share one idempotent slot: computed once in all
    assert len([b for b in calls if b.provenance == "endomorphism" and b.dim == end_t[0].dim]) == 1
