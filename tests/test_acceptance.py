"""Acceptance suite: the ten exit criteria, one test each.

Every criterion prints a single pass line with its measured time; all
values are exact (no tolerances anywhere).  The expensive Schur algebras
are built once per session.
"""

import itertools
import time

import numpy as np
import pytest

from qhcover.algebra import corner_algebra, direct_product, opposite
from qhcover.covers import (
    hn_dimension,
    truncate_cover_check,
    verify_ringel_cover_theorem,
    wakamatsu_check,
)
from qhcover.fields import GF, QQ
from qhcover.gallery import (
    build_am,
    build_schur,
    hecke_element_is_in_kernel,
    permutations_of,
    schur_truncation_iso,
    schur_weyl_map,
    truncation_idempotent,
)
from qhcover.homology import DimValue
from qhcover.linalg import Mat, Subspace
from qhcover.modules import (
    Module,
    corner_module,
    direct_sum,
    dual,
    hom_space,
    regular_module,
    submodule,
    quotient_module,
)
from qhcover.qh import WeightPoset, verify_split_qh
from qhcover.reldim import (
    classical_domdim,
    codomdim_chain,
    find_projective_injectives,
    relative_codomdim,
    relative_domdim,
)

F2, F3 = GF(2), GF(3)


def _report(criterion: str, detail: str, t0: float) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail}; {time.time() - t0:.1f}s)")


# -- shared fixtures -----------------------------------------------------------


@pytest.fixture(scope="session")
def am_gf3():
    return {m: build_am(m, F3) for m in (2, 3, 4)}


@pytest.fixture(scope="session")
def am_qq():
    return {m: build_am(m, QQ) for m in (2, 3)}


@pytest.fixture(scope="session")
def schur_small():
    return {
        ("gf2", 2, 2): build_schur(2, 2, 1, F2),
        ("gf3", 2, 2): build_schur(2, 2, 1, F3),
        ("gf3", 2, 3): build_schur(2, 3, 1, F3),
    }


def named_modules_of(gallery_obj) -> dict:
    from qhcover.gallery import AmGallery, SchurGallery

    if isinstance(gallery_obj, AmGallery):
        return gallery_obj.named_modules()
    out = {}
    qh = gallery_obj.qh()
    for i, lab in enumerate(qh.poset.labels):
        out[f"P({lab})"] = qh.projectives[i]
        out[f"I({lab})"] = qh.injective(i)
        out[f"Delta({lab})"] = qh.standards[i]
        out[f"Nabla({lab})"] = qh.costandard(i)
        out[f"T({lab})"] = qh.tiltings()[i]
    out["V^d"] = gallery_obj.tensor_module
    return out


# -- criterion 1: A_m dominant dimension ----------------------------------------


def test_criterion_1_am_dominant_dimension(am_gf3, am_qq):
    t0 = time.time()
    for m in (2, 3, 4):
        v, _ = classical_domdim(am_gf3[m].algebra, 12)
        assert str(v.value) == f"Exact({2 * (m - 1)})", f"A_{m} over GF(3)"
    for m in (2, 3):
        v, _ = classical_domdim(am_qq[m].algebra, 12)
        assert str(v.value) == f"Exact({2 * (m - 1)})", f"A_{m} over QQ"
    _report("1 A_m dominant dimension", "2(m-1) for m=2,3,4 over GF(3) and m=2,3 over QQ", t0)


# -- criterion 2: truncated A_m -----------------------------------------------


def test_criterion_2_truncated_am(am_gf3):
    t0 = time.time()
    for m in (2, 3, 4):
        g = am_gf3[m]
        p = find_projective_injectives(g.algebra)
        for i in range(1, m):
            eps = g.algebra.zero_element()
            for v in range(i):
                eps = eps + g.algebra.basis_element(v)
            corner, incl = corner_algebra(g.algebra, eps)
            ep = corner_module(p, eps, corner, incl)
            value = relative_domdim(ep, regular_module(corner), 8).value
            assert value.is_infinite(), f"m={m}, i={i}: got {value}"
            # Wakamatsu cross-check: add(eps P) = add(characteristic tilting of the corner)
            pairs = [(a, b) for a in range(i) for b in range(i) if a > b]
            poset = WeightPoset(
                [str(v + 1) for v in range(i)],
                pairs,
                [_corner_coords(incl, g.algebra.basis_element(v)) for v in range(i)],
            )
            report, corner_qh = verify_split_qh(corner, poset)
            assert report.passed
            _, add_eq, holds = wakamatsu_check(corner_qh, ep, cap=8)
            assert add_eq and holds, f"m={m}, i={i}: add-closure mismatch"
    _report("2 truncated A_m", "eps_i P-domdim eps_i A_m eps_i = Infinite, add-closure equality", t0)


def _corner_coords(incl: Mat, vec: Mat) -> Mat:
    span = Subspace(vec.field, incl.rows, incl.transpose())
    coords = span.coords(vec.transpose())
    assert coords is not None
    return coords.transpose()


# -- criterion 3: Schur dominant dimensions --------------------------------------


def test_criterion_3_schur_dominant_dimension(schur_small, schur33_gf3, schur33_gf2):
    t0 = time.time()
    v, _ = classical_domdim(schur_small[("gf2", 2, 2)].algebra, 10)
    assert str(v.value) == "Exact(2)"
    v, _ = classical_domdim(schur33_gf2.algebra, 10)
    assert str(v.value) == "Exact(2)"
    v, _ = classical_domdim(schur33_gf3.algebra, 10)
    assert str(v.value) == "Exact(4)"
    v, _ = classical_domdim(schur_small[("gf3", 2, 2)].algebra, 10)
    assert v.value.is_infinite()  # semisimple
    _report("3 Schur dominant dimension", "S_GF2(2,2)=2, S_GF2(3,3)=2, S_GF3(3,3)=4, S_GF3(2,2)=Infinite", t0)


# -- criterion 4: Ringel-dual cover theorem ---------------------------------------


def test_criterion_4_ringel_cover_theorem(am_gf3, schur_small):
    t0 = time.time()
    asserted = 0
    for m in (2, 3):
        qh = am_gf3[m].qh
        for combo, q in qh.partial_tilting_combinations():
            verdict = verify_ringel_cover_theorem(qh, q, cap=6)
            assert verdict.holds, (m, combo, verdict.detail)
            asserted += verdict.asserted
    s23 = schur_small[("gf3", 2, 3)]
    verdict = verify_ringel_cover_theorem(s23.qh(), s23.tensor_module, cap=6, random_checks=20)
    assert verdict.holds
    assert verdict.n.at_least_value() >= 2
    _report("4 Ringel-dual cover theorem", f"all A_2/A_3 combos + V^3 over S_GF3(2,3); {asserted} asserted h=n-2", t0)


# -- criterion 5: char-3 block model -----------------------------------------------


def test_criterion_5_block_model(am_gf3):
    t0 = time.time()
    g2, g3, g1 = am_gf3[2], am_gf3[3], build_am(1, F3)
    prod = direct_product(direct_product(g2.algebra, g3.algebra), g1.algebra)
    offs = [0, g2.algebra.dim, g2.algebra.dim + g3.algebra.dim]
    labels, pairs, idems = [], [], []
    for bi, g in enumerate([g2, g3, g1]):
        base = len(labels)
        for i, lab in enumerate(g.poset.labels):
            labels.append(f"b{bi}:{lab}")
            idems.append(_shift_idem(g.poset.idempotents[i], offs[bi], prod.dim))
        for (i, j) in g.poset.less:
            pairs.append((base + i, base + j))
    report, qhp = verify_split_qh(prod, WeightPoset(labels, pairs, idems))
    assert report.passed
    lab_idx = {lab: i for i, lab in enumerate(labels)}
    tilts = qhp.tiltings()
    q = direct_sum(
        [
            tilts[lab_idx["b0:1"]],
            tilts[lab_idx["b0:2"]],
            qhp.projectives[lab_idx["b1:2"]],
            qhp.projectives[lab_idx["b1:3"]],
            qhp.projectives[lab_idx["b2:1"]],
        ]
    )[0]
    v1 = relative_domdim(q, regular_module(prod), 10).value
    assert str(v1) == "Exact(4)"
    v2 = relative_domdim(q, qhp.characteristic_tilting(), 10).value
    assert str(v2) == "Exact(2)"
    _report("5 block model", "Q-domdim regular = Exact(4), Q-domdim T = Exact(2) on A_2 x A_3 x A_1", t0)


def _shift_idem(e: Mat, offset: int, total: int) -> Mat:
    v = Mat.zeros(F3, total, 1).mutable()
    v[offset : offset + e.rows, 0:1] = e.data
    return Mat(F3, v)


# -- criterion 6: Schur-Weyl kernel --------------------------------------------------


def test_criterion_6_schur_weyl_kernel(schur_small):
    t0 = time.time()
    s = schur_small[("gf3", 2, 3)]
    data = schur_weyl_map(s)
    assert data.surjective
    # the paper's element a = e + (132) + (123) - (12) - (13) - (23)
    coeffs = {}
    for sigma in permutations_of(3):
        inv = sum(1 for i in range(3) for j in range(i + 1, 3) if sigma[i] > sigma[j])
        coeffs[sigma] = 1 if inv % 2 == 0 else -1
    assert hecke_element_is_in_kernel(s, coeffs)
    h = s.hecke
    a = h.algebra.zero_element()
    for sigma, c in coeffs.items():
        a = a + h.element_of_permutation(sigma).scale(F3.normalize(c))
    assert h.algebra.multiply(a, a).is_zero()
    # kernel ideal is not idempotent: K^2 is a strict subspace of K
    ker = data.kernel  # columns in Hecke coordinates
    kdim = ker.cols
    assert kdim > 0
    prods = h.algebra.multiply_batches(ker, ker)
    ksq = Subspace(F3, h.algebra.dim, prods.transpose())
    assert ksq.dim < kdim
    _report("6 Schur-Weyl kernel", f"psi onto (dim {data.image_dim}), a in ker, a^2=0, ker not idempotent", t0)


# -- criterion 7: oracle equivalence suite ----------------------------------------


def _random_sub_or_quotient(mods: list[Module], rng: np.random.Generator) -> Module:
    base = mods[int(rng.integers(0, len(mods)))]
    a = base.algebra
    field = a.field
    if base.dim == 0:
        return base
    k = int(rng.integers(1, base.dim + 1))
    vecs = rng.integers(0, field.p, size=(k, base.dim))
    span = Subspace(field, base.dim, Mat(field, vecs))
    # close under the action of the algebra generators
    gens = a.generator_elements()
    while True:
        cols = span.basis.transpose()
        imgs = [base.act(g) @ cols for g in gens]
        allrows = Mat.vstack([span.basis] + [m.transpose() for m in imgs])
        newspan = Subspace(field, base.dim, allrows)
        if newspan.dim == span.dim:
            break
        span = newspan
    if rng.integers(0, 2):
        return submodule(base, span)[0]
    return quotient_module(base, span)[0]


def test_criterion_7_oracle_equivalence(am_gf3, schur_small):
    t0 = time.time()
    suites = [
        ("A_2", named_modules_of(am_gf3[2])),
        ("A_3", named_modules_of(am_gf3[3])),
        ("S_GF2(2,2)", named_modules_of(schur_small[("gf2", 2, 2)])),
        ("S_GF3(2,3)", named_modules_of(schur_small[("gf3", 2, 3)])),
    ]
    cap = 6
    disagreements = []
    checked = 0
    for tag, named in suites:
        mods = list(named.values())
        q_list = list(named.items())
        for qname, q in q_list:
            for mname, m in named.items():
                mv = relative_codomdim(q, m, cap).value
                cv, _ = codomdim_chain(q, m, cap)
                checked += 1
                if str(mv) != str(cv):
                    disagreements.append((tag, qname, mname, str(mv), str(cv)))
        rng = np.random.default_rng(777)
        qs = [named[k] for k in sorted(named)]
        for trial in range(100):
            m = _random_sub_or_quotient(mods, rng)
            q = qs[trial % len(qs)]
            mv = relative_codomdim(q, m, cap).value
            cv, _ = codomdim_chain(q, m, cap)
            checked += 1
            if str(mv) != str(cv):
                disagreements.append((tag, "random", trial, str(mv), str(cv)))
    assert not disagreements, disagreements[:5]
    _report("7 oracle equivalence", f"{checked} (q, m) pairs, zero disagreements", t0)


# -- criterion 8: identity and symmetry suite ---------------------------------------


def test_criterion_8_identities(am_gf3):
    t0 = time.time()
    # (a) triple equality of the duality identity
    for m in (2, 3):
        g = am_gf3[m]
        aop = opposite(g.algebra)
        for combo, q in g.qh.partial_tilting_combinations():
            v1 = relative_domdim(dual(q), regular_module(aop), 8).value
            v2 = relative_codomdim(q, dual(regular_module(aop)), 8).value
            v3 = relative_domdim(q, regular_module(g.algebra), 8).value
            assert str(v1) == str(v2) == str(v3), (m, combo)
    # (b) tilting symmetry: V-domdim T = V-codomdim T on A_m
    for m in (2, 3):
        g = am_gf3[m]
        tchar = g.qh.characteristic_tilting()
        for combo, v in g.qh.partial_tilting_combinations():
            d1 = relative_domdim(v, tchar, 8).value
            d2 = relative_codomdim(v, tchar, 8).value
            assert str(d1) == str(d2), (m, combo)
    # (c) projective-resolution reformulation over the Ringel dual
    from qhcover.modules import end_algebra_with_bimodule, hom_module_over_endop

    for m in (2, 3):
        g = am_gf3[m]
        tchar = g.qh.characteristic_tilting()
        b, bim, _ = end_algebra_with_bimodule(tchar)
        dt = dual(bim.right)
        for combo, q in g.qh.partial_tilting_combinations():
            lhs = relative_codomdim(hom_module_over_endop(tchar, q)[0], dt, 8).value
            rhs = relative_domdim(q, tchar, 8).value
            assert str(lhs) == str(rhs), (m, combo)
    # (d) SES inequalities on seeded guarded instances
    checked = _ses_inequalities(am_gf3, count=50, seed=4242)
    assert checked >= 50
    _report("8 identities and symmetry", f"triple equality, tilting symmetry, reformulation, {checked} SES instances", t0)


def _exactness_guard(q: Module, m: Module, m1: Module, m2: Module, incl, proj) -> bool:
    hm = hom_space(m, q).dim
    h1 = hom_space(m1, q).dim
    h2 = hom_space(m2, q).dim
    return hm == h1 + h2


def _ses_inequalities(am_gf3, count: int, seed: int) -> int:
    rng = np.random.default_rng(seed)
    checked = 0
    pool = []
    for m in (2, 3):
        g = am_gf3[m]
        qs = [g.qh.characteristic_tilting(), find_projective_injectives(g.algebra)]
        mods = list(named_modules_of(g).values()) + [regular_module(g.algebra)]
        pool.append((g, qs, mods))
    attempts = 0
    while checked < count and attempts < count * 40:
        attempts += 1
        g, qs, mods = pool[attempts % len(pool)]
        base = mods[int(rng.integers(0, len(mods)))]
        if base.dim < 2:
            continue
        k = int(rng.integers(1, base.dim))
        vecs = rng.integers(0, 3, size=(k, base.dim))
        span = Subspace(F3, base.dim, Mat(F3, vecs))
        gens = g.algebra.generator_elements()
        while True:
            cols = span.basis.transpose()
            imgs = [base.act(x) @ cols for x in gens]
            newspan = Subspace(F3, base.dim, Mat.vstack([span.basis] + [mm.transpose() for mm in imgs]))
            if newspan.dim == span.dim:
                break
            span = newspan
        if span.dim in (0, base.dim):
            continue
        m1, incl = submodule(base, span)
        m2, proj = quotient_module(base, span)
        q = qs[attempts % len(qs)]
        if not _exactness_guard(q, base, m1, m2, incl, proj):
            continue
        n = relative_domdim(q, base, 8).value
        n1 = relative_domdim(q, m1, 8).value
        n2 = relative_domdim(q, m2, 8).value
        _assert_ses_clauses(n, n1, n2)
        checked += 1
    return checked


def _ext_int(v: DimValue):
    """Extended value: integer, or None when censored, or 'inf'."""
    if v.kind == "exact":
        return v.n
    if v.kind == "infinite":
        return "inf"
    return None


def _lt(a, b) -> bool:
    if a == "inf":
        return False
    if b == "inf":
        return True
    return a < b


def _ge(a, b) -> bool:
    return not _lt(a, b)


def _plus(a, k):
    return "inf" if a == "inf" else a + k


def _assert_ses_clauses(n, n1, n2) -> None:
    en, e1, e2 = _ext_int(n), _ext_int(n1), _ext_int(n2)
    if en is None or e1 is None or e2 is None:
        return  # censored by the cap; nothing to assert
    # (a) n >= min(n1, n2)
    mn = e1 if _lt(e1, e2) else e2
    assert _ge(en, mn), (en, e1, e2)
    # (b) n1 < n implies n2 = n1 - 1
    if _lt(e1, en):
        assert e1 != "inf" and e2 == e1 - 1, (en, e1, e2)
    # (c) n1 = n => n2 >= n-1; n1 = n+1 => n2 >= n; n1 >= n+2 => n2 = n
    if e1 == en and en != "inf":
        assert _ge(e2, en - 1), (en, e1, e2)
    if en != "inf" and e1 == _plus(en, 1):
        assert _ge(e2, en), (en, e1, e2)
    if en != "inf" and _ge(e1, _plus(en, 2)):
        assert e2 == en, (en, e1, e2)
    # (d) n < n2 implies n1 = n
    if _lt(en, e2):
        assert e1 == en, (en, e1, e2)
    # (e) n = n2 => n1 >= n2; n = n2+1 => n1 >= n2+1; n >= n2+2 => n1 = n2+1
    if en == e2 and en != "inf":
        assert _ge(e1, e2), (en, e1, e2)
    if e2 != "inf" and en == _plus(e2, 1):
        assert _ge(e1, _plus(e2, 1)), (en, e1, e2)
    if e2 != "inf" and _ge(en, _plus(e2, 2)):
        assert e1 == _plus(e2, 1), (en, e1, e2)


# -- criterion 9: truncation monotonicity ---------------------------------------------


def test_criterion_9_truncation_monotonicity(am_gf3, schur_small):
    t0 = time.time()
    g = am_gf3[3]
    qh = g.qh
    p = direct_sum([qh.projectives[1], qh.projectives[2]])[0]
    steps = 0
    while qh.label_count() > 1:
        lam = qh.poset.maximal_indices()[0]
        res = truncate_cover_check(qh, p, lam, cap=5)
        assert res["monotone"], f"A_3 chain step {steps}"
        qh = res["sub_qh"]
        p = res["p_truncated"]
        steps += 1
    s23 = schur_small[("gf3", 2, 3)]
    sqh = s23.qh()
    sp = find_projective_injectives(s23.algebra)
    lam = sqh.poset.maximal_indices()[0]
    res = truncate_cover_check(sqh, sp, lam, cap=5)
    assert res["monotone"]
    _report("9 truncation monotonicity", f"A_3 full chain ({steps} steps) + one S_GF3(2,3) step", t0)


# -- criterion 10: eAe transfer ---------------------------------------------------------


def test_criterion_10_eae_transfer(am_gf3, schur33_gf3, schur_small):
    t0 = time.time()
    # corner isomorphism f S(3,3) f = S(2,3) with the module identification
    small = schur_small[("gf3", 2, 3)]
    iso = schur_truncation_iso(schur33_gf3, small)
    assert iso.corner.dim == 20 and iso.is_isomorphism()
    # module identification: f . V_big is the word subspace = V_small
    assert len(iso.word_rows) == small.tensor_module.dim == 8

    # transfer bounds on (S_GF3(3,3), f)
    big_qh = schur33_gf3.qh()
    t_big = big_qh.characteristic_tilting()
    p_big = find_projective_injectives(schur33_gf3.algebra)
    domdim_t_big = relative_domdim(p_big, t_big, 8).value
    f = iso.f
    corner, incl = iso.corner, iso.corner_incl
    ft = corner_module(t_big, f, corner, incl)
    fp = corner_module(p_big, f, corner, incl)
    lhs = relative_domdim(fp, ft, 8).value
    assert lhs.at_least_value() >= domdim_t_big.at_least_value(), (str(lhs), str(domdim_t_big))

    # codominant-dimension transfer for i in {1, 2} on costandard modules
    transferred = 0
    for l in range(big_qh.label_count()):
        nab = big_qh.costandard(l)
        i_val = relative_codomdim(p_big, nab, 6).value
        bound = min(i_val.at_least_value(), 2)
        if bound < 1:
            continue
        fn = corner_module(nab, f, corner, incl)
        if fn.dim == 0:
            continue
        small_val = relative_codomdim(fp, fn, 6).value
        assert small_val.at_least_value() >= bound, (l, str(i_val), str(small_val))
        transferred += 1

    # same bounds on (A_3, eps_2)
    g = am_gf3[3]
    qh3 = g.qh
    eps = g.algebra.basis_element(0) + g.algebra.basis_element(1)
    corner3, incl3 = corner_algebra(g.algebra, eps)
    p3 = find_projective_injectives(g.algebra)
    t3 = qh3.characteristic_tilting()
    domdim_t3 = relative_domdim(p3, t3, 8).value
    ep3 = corner_module(p3, eps, corner3, incl3)
    et3 = corner_module(t3, eps, corner3, incl3)
    lhs3 = relative_domdim(ep3, et3, 8).value
    assert lhs3.at_least_value() >= domdim_t3.at_least_value(), (str(lhs3), str(domdim_t3))
    for l in range(qh3.label_count()):
        nab = qh3.costandard(l)
        i_val = relative_codomdim(p3, nab, 6).value
        bound = min(i_val.at_least_value(), 2)
        if bound < 1:
            continue
        fn = corner_module(nab, eps, corner3, incl3)
        if fn.dim == 0:
            continue
        small_val = relative_codomdim(ep3, fn, 6).value
        assert small_val.at_least_value() >= bound
        transferred += 1
    assert transferred >= 2
    _report("10 eAe transfer", f"corner iso dim 20 + module id, domdim-T and {transferred} codomdim bounds", t0)


# -- supporting gallery invariant: every built Schur algebra verifies ------------


def test_gallery_invariant_schur_qh_all_instances(schur_small, schur33_gf3, schur33_gf2):
    t0 = time.time()
    for s in list(schur_small.values()) + [schur33_gf3, schur33_gf2]:
        qh = s.qh()
        assert qh.verification is not None and qh.verification.passed, (s.n, s.d)
    _report(
        "gallery invariant",
        "verify_split_qh passes on all five built Schur algebras (incl. both 165-dim)",
        t0,
    )


def test_supporting_hn_matches_domdim_tilting_on_schur33(schur33_gf3):
    # hn of the minimal faithful projective-injective cover equals
    # domdim T - 2 = 0 on the 165-dimensional algebra (disjoint code paths)
    t0 = time.time()
    qh = schur33_gf3.qh()
    p = find_projective_injectives(schur33_gf3.algebra)
    tchar = qh.characteristic_tilting()
    dt = relative_domdim(p, tchar, 8).value
    assert str(dt) == "Exact(2)"
    rep = hn_dimension(qh, p, cap=4)
    assert rep.is_cover and rep.hn is not None
    assert rep.hn.kind == "exact" and rep.hn.n == 0
    _report("supporting hn check", "hn(proj-inj cover) = 0 = domdim T - 2 on S_GF3(3,3)", t0)
