"""Cover quality: double centralizers, Hemmer-Nakano dimensions, the
Ringel-dual cover theorem, Wakamatsu check, truncation monotonicity."""

import pytest

from qhcover.algebra import Algebra
from qhcover.covers import (
    CoverError,
    cover_check,
    double_centralizer_check,
    hn_dimension,
    random_delta_filtered,
    schur_functor_image,
    truncate_cover_check,
    verify_ringel_cover_theorem,
    wakamatsu_check,
)
from qhcover.fields import GF, QQ
from qhcover.gallery import build_am, build_schur
from qhcover.linalg import Mat
from qhcover.modules import direct_sum, hom_module_over_endop, hom_space, regular_module, top
from qhcover.reldim import find_projective_injectives

from conftest import eta_naive, named_modules, right_a_action_naive

F3 = GF(3)


@pytest.fixture(scope="module")
def am2():
    return build_am(2, F3)


@pytest.fixture(scope="module")
def am3():
    return build_am(3, F3)


def test_double_centralizer_regular(am2):
    assert double_centralizer_check(regular_module(am2.algebra))


def test_double_centralizer_fails_unfaithful(am2):
    s1 = am2.simples[0]
    assert not double_centralizer_check(s1)


def test_double_centralizer_tensor_space():
    s = build_schur(2, 3, 1, F3)
    assert double_centralizer_check(s.tensor_module)


def test_ringel_cover_check_builds_the_regular_module_once(monkeypatch):
    # hn_dimension builds the regular module of the Ringel dual once and
    # hands Hom_A(P, A) to the double centralizer check
    s = build_schur(2, 3, 1, F3)
    qh = s.qh()
    calls = []
    original = Algebra.left_regular_action
    monkeypatch.setattr(Algebra, "left_regular_action", lambda self: calls.append(self) or original(self))
    verdict = verify_ringel_cover_theorem(qh, s.tensor_module, cap=6)
    assert verdict.holds and len(calls) == 1


def test_cover_check_progenerator(am2):
    p = direct_sum(am2.qh.projectives)[0]
    is_cover, _ = cover_check(p)
    assert is_cover


def test_cover_fully_faithful_on_projectives(am3):
    # is_cover iff F_P fully faithful on add(A): compare hom dimensions
    qh = am3.qh
    p = direct_sum([qh.projectives[1], qh.projectives[2]])[0]
    is_cover, _ = cover_check(p)
    assert is_cover
    for x in qh.projectives:
        for y in qh.projectives:
            fx = schur_functor_image(p, x)
            fy = schur_functor_image(p, y)
            assert hom_space(x, y).dim == hom_space(fx, fy).dim


def test_hn_progenerator_is_equivalence(am2):
    p = direct_sum(am2.qh.projectives)[0]
    rep = hn_dimension(am2.qh, p, cap=4)
    assert rep.is_cover and rep.hn_str() == "AtLeast(4)"


def test_hn_minimal_faithful_a3(am3):
    p = direct_sum([am3.qh.projectives[1], am3.qh.projectives[2]])[0]
    rep = hn_dimension(am3.qh, p, cap=4)
    assert rep.is_cover
    assert rep.hn_str() == "Exact(0)"


def test_hn_rejects_non_projective(am2):
    with pytest.raises(CoverError, match="projective"):
        hn_dimension(am2.qh, am2.simples[1], cap=3)


def test_hn_random_delta_filtered_cross_check(am3):
    p = direct_sum([am3.qh.projectives[1], am3.qh.projectives[2]])[0]
    rep = hn_dimension(am3.qh, p, cap=4, random_checks=6, seed=5)
    assert rep.random_checks == 6


def test_random_delta_filtered_members(am3):
    import numpy as np

    rng = np.random.default_rng(3)
    for _ in range(5):
        x = random_delta_filtered(am3.qh, rng)
        assert am3.qh.in_f_delta(x)


def test_ringel_cover_theorem_all_combos_a2(am2):
    for combo, q in am2.qh.partial_tilting_combinations():
        verdict = verify_ringel_cover_theorem(am2.qh, q, cap=5)
        assert verdict.holds, (combo, verdict.detail)


def test_ringel_cover_theorem_all_combos_a3(am3):
    asserted = 0
    for combo, q in am3.qh.partial_tilting_combinations():
        verdict = verify_ringel_cover_theorem(am3.qh, q, cap=5)
        assert verdict.holds, (combo, verdict.detail)
        if verdict.asserted:
            asserted += 1
    assert asserted >= 2  # the proj-inj pair and the full tilting module


def test_ringel_cover_rejects_non_tilting(am2):
    with pytest.raises(CoverError, match="add"):
        verify_ringel_cover_theorem(am2.qh, am2.simples[0], cap=4)


def test_wakamatsu_all_combos(am2, am3):
    for g in (am2, am3):
        for combo, q in g.qh.partial_tilting_combinations():
            value, add_eq, holds = wakamatsu_check(g.qh, q, cap=8)
            assert holds
            if value.is_infinite():
                assert add_eq


def test_projective_resolution_reformulation(am2, am3):
    # Hom(T,Q)-codomdim over R(A) of DT equals Q-domdim over A of T
    from qhcover.modules import dual, hom_module_over_endop
    from qhcover.reldim import relative_codomdim, relative_domdim

    for g in (am2, am3):
        qh = g.qh
        t = qh.characteristic_tilting()
        from qhcover.modules import end_algebra_with_bimodule

        b, bim, _ = end_algebra_with_bimodule(t)
        dt = dual(bim.right)  # DT as a left R(A)-module
        for combo, q in qh.partial_tilting_combinations():
            lhs = relative_codomdim(hom_module_over_endop(t, q)[0], dt, 8).value
            rhs = relative_domdim(q, t, 8).value
            assert str(lhs) == str(rhs), (combo, str(lhs), str(rhs))


def test_truncate_cover_monotone_a3(am3):
    p = direct_sum([am3.qh.projectives[1], am3.qh.projectives[2]])[0]
    res = truncate_cover_check(am3.qh, p, 0, cap=4)
    assert res["monotone"]


def test_truncate_cover_single_label(am2):
    # after quotienting down to one label the check is trivially monotone
    from qhcover.qh import split_heredity_quotient

    quot, proj, sub = split_heredity_quotient(am2.qh, 0)
    p = sub.projectives[0]
    from qhcover.covers import hn_dimension as hn

    rep = hn(sub, p, cap=3)
    assert rep.is_cover


def test_eta_iso_beyond_standards_for_progenerator(am2):
    # the progenerator cover is an equivalence, so eta is an isomorphism on
    # arbitrary modules, not only standards
    from qhcover.covers import _eta_matrix
    from qhcover.modules import hom_module_over_endop

    p = direct_sum(am2.qh.projectives)[0]
    fa, fa_hom = hom_module_over_endop(p, regular_module(am2.algebra))
    for m in list(am2.named_modules().values()):
        eta, homb_dim, _ = _eta_matrix(p, fa, fa_hom, m)
        assert homb_dim == m.dim and eta.rank() == m.dim


def test_hn_equals_domdim_tilting_minus_two_a2(am2):
    # cover quality of the minimal faithful projective-injective equals
    # domdim T - 2; for the zigzag algebra with two weights that is -1
    from qhcover.reldim import relative_domdim

    p2 = am2.qh.projectives[1]
    t = am2.qh.characteristic_tilting()
    dt = relative_domdim(find_projective_injectives(am2.algebra), t, 8).value
    assert str(dt) == "Exact(1)"
    rep = hn_dimension(am2.qh, p2, cap=5)
    assert rep.is_cover and rep.eta_injective and not rep.eta_isomorphism
    assert rep.hn is not None and rep.hn.kind == "exact" and rep.hn.n == -1


def test_ringel_dual_is_built_once_per_structure(monkeypatch):
    from qhcover import qh as qh_module

    qh = build_am(2, F3).qh  # a structure no other test has asked
    built = []
    init = qh_module.RingelDual.__init__
    monkeypatch.setattr(qh_module.RingelDual, "__init__", lambda self, s: built.append(s) or init(self, s))
    rd = qh_module.ringel_dual(qh)
    assert qh_module.ringel_dual(qh) is rd
    assert verify_ringel_cover_theorem(qh, qh.characteristic_tilting(), cap=5).holds
    assert built == [qh]


# -- eta and the right A-action against their per-pair oracles ---------------------

ORACLE_CASES = {
    "A2-GF3": lambda: build_am(2, F3),
    "A2-QQ": lambda: build_am(2, QQ),
    "A3-GF3": lambda: build_am(3, F3),
    "A3-QQ": lambda: build_am(3, QQ),
    "S_GF3(2,3)": lambda: build_schur(2, 3, 1, F3),
}


def _projectives_to_test(g):
    """Each P(l), their sum and the projective-injective module."""
    qh = g.qh() if callable(g.qh) else g.qh
    return [*qh.projectives, direct_sum(qh.projectives)[0], find_projective_injectives(g.algebra)]


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_eta_matches_the_per_pair_oracle(case):
    from qhcover.covers import _eta_matrix

    g = ORACLE_CASES[case]()
    mods = named_modules(g)
    zero_homb = 0
    for p in _projectives_to_test(g):
        fa, fa_hom = hom_module_over_endop(p, regular_module(g.algebra))
        for m in mods:
            eta, homb_dim, fm = _eta_matrix(p, fa, fa_hom, m)
            assert (eta, homb_dim) == eta_naive(p, m)
            assert fm.action == hom_module_over_endop(p, m)[0].action
            zero_homb += homb_dim == 0
    assert zero_homb > 0


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_right_a_action_on_hom_p_a_matches_the_per_pair_oracle(case):
    from qhcover.covers import _cover_check

    g = ORACLE_CASES[case]()
    a = g.algebra
    # row k*n + i: row k of R_(b_i), as ``_cover_check`` reads them
    rights = regular_module(a).flat_action().transpose()
    verdicts = set()
    for p in _projectives_to_test(g):
        fa, fa_hom = hom_module_over_endop(p, regular_module(a))
        acts = fa_hom.coords_of_products(rights, fa_hom.side_by_side())
        h = fa_hom.dim
        assert [acts.take_cols(range(i * h, (i + 1) * h)) for i in range(a.dim)] == right_a_action_naive(p)
        flat = Mat.hstack([m.reshape(h * h, 1) for m in right_a_action_naive(p)])
        is_cover, end_dim = _cover_check(p, fa, fa_hom)
        assert is_cover == (flat.rank() == a.dim and end_dim == a.dim) and end_dim == hom_space(fa, fa).dim
        verdicts.add(is_cover)
    assert verdicts == {True, False}
