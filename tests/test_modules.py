"""Module machinery: homs (vs the naive intertwiner oracle), duality,
covers, envelopes, traces, corners, isomorphism testing, tensor/counit."""

from fractions import Fraction

import numpy as np
import pytest

from qhcover.algebra import corner_algebra, opposite
from qhcover.fields import GF, QQ
from qhcover.gallery import build_am, build_schur
from qhcover.linalg import Mat, Subspace, unstack
from qhcover.modules import (
    Module,
    ModuleError,
    ModuleMap,
    counit_analysis,
    direct_sum,
    dual,
    end_algebra_with_bimodule,
    endomorphism_algebra,
    hom_into_q_as_right_module,
    hom_module_over_endop,
    hom_space,
    indecomposable_summands,
    indecomposables_isomorphic,
    induced_map_on_hom_into_q,
    injective_envelope,
    is_isomorphic,
    module_radical,
    projective_cover,
    projective_cover_data,
    proj_sum,
    quotient_module,
    radical_span,
    regular_module,
    socle,
    submodule,
    summand_matches,
    tensor_over,
    top,
    trace_submodule,
    zero_module,
)

from conftest import (
    algebra_of_matrices_naive,
    broken_truncated_polynomial_module,
    corner_rep_naive,
    hom_coords_naive,
    hom_into_q_action_naive,
    hom_module_action_naive,
    hom_space_naive,
    induced_map_naive,
    make_am_algebra,
    named_modules,
    quotient_module_naive,
    submodule_naive,
)

F3 = GF(3)


def indec_projectives(a):
    """P(i) keyed by class, via the cached construction."""
    from qhcover.modules import _indec_projective

    prim = a.primitive_idempotents()
    return [_indec_projective(a, ci)[0] for ci in range(prim.n_blocks)]


def simple_modules(a):
    return [top(p)[0] for p in indec_projectives(a)]


def test_regular_module_axioms(a2_gf3):
    reg = regular_module(a2_gf3)
    reg.validate()
    assert reg.dim == 5


def test_regular_decomposes_into_projectives(a2_gf3):
    projs = indec_projectives(a2_gf3)
    dims = sorted(p.dim for p in projs)
    assert dims == [2, 3]  # P(1) = [1/2], P(2) = [2/1/2]


def test_hom_regular_to_module_dim(a2_gf3):
    projs = indec_projectives(a2_gf3)
    reg = regular_module(a2_gf3)
    for m in projs + [reg]:
        assert hom_space(reg, m).dim == m.dim


@pytest.mark.parametrize("algebra", ["a2_gf3", "a2_qq"])
def test_hom_matches_naive_oracle(algebra, request):
    a = request.getfixturevalue(algebra)
    mods = indec_projectives(a) + simple_modules(a) + [regular_module(a)]
    for m in mods:
        for n in mods:
            fast = hom_space(m, n)
            slow = hom_space_naive(m, n)
            assert fast.dim == len(slow), (m, n)
            for f in fast.maps:
                f.validate()


@pytest.mark.parametrize("field", [F3, QQ], ids=["GF3", "QQ"])
def test_act_many_is_the_linear_extension_of_the_action(field):
    a = make_am_algebra(3, field)
    rng = np.random.default_rng(8)
    xs = Mat(field, rng.integers(-4, 5, size=(a.dim, 5)))
    for m in [regular_module(a)] + indec_projectives(a) + simple_modules(a):
        got = m.act_many(xs)
        assert len(got) == xs.cols and m.act_many(Mat.zeros(field, a.dim, 0)) == []
        for c, rho in enumerate(got):
            # sum_i x_i rho(b_i), entry by entry on Python numbers
            want = [
                [field.normalize(sum(Fraction(xs[i, c]) * Fraction(m.action[i][r, s]) for i in range(a.dim))) for s in range(m.dim)]
                for r in range(m.dim)
            ]
            assert [[rho[r, s] for s in range(m.dim)] for r in range(m.dim)] == want
            assert m.act(xs.take_cols([c])) == rho


def test_hom_p1_p2_one_dimensional(a2_gf3):
    p1, p2 = sorted(indec_projectives(a2_gf3), key=lambda p: p.dim)
    assert hom_space(p1, p2).dim == 1
    assert hom_space(p2, p1).dim == 1


def test_dual_involution_and_dims(a2_gf3):
    p2 = max(indec_projectives(a2_gf3), key=lambda p: p.dim)
    d = dual(p2)
    assert d.algebra is opposite(a2_gf3)
    assert dual(d) is p2
    assert d.dim == 3
    d.validate()


def test_dual_swaps_top_and_socle(a2_gf3):
    p1 = min(indec_projectives(a2_gf3), key=lambda p: p.dim)  # [1/2]
    t, _ = top(p1)
    s, _ = socle(p1)
    dt, _ = top(dual(p1))
    ds, _ = socle(dual(p1))
    assert (t.dim, s.dim) == (1, 1)
    assert (dt.dim, ds.dim) == (1, 1)


def test_top_socle_p2(a2_gf3):
    p2 = max(indec_projectives(a2_gf3), key=lambda p: p.dim)
    t, tmap = top(p2)
    s, smap = socle(p2)
    assert t.dim == 1 and s.dim == 1
    assert tmap.is_surjective() and smap.is_injective()
    rad, _ = module_radical(p2)
    assert rad.dim == 2


def test_projective_cover_of_simple(a2_gf3):
    # cover of S(2) is P(2) -> S(2) with kernel of dim 2 (= P(1))
    projs = sorted(indec_projectives(a2_gf3), key=lambda p: p.dim)
    s2 = top(projs[1])[0]
    cov = projective_cover(s2)
    assert cov.source.dim == 3 and cov.is_surjective()
    ker, _ = cov.kernel_submodule()
    assert ker.dim == 2
    iso = is_isomorphic(ker, projs[0])
    assert iso is not None and iso.is_isomorphism()


def test_projective_cover_superfluous_kernel(a2_gf3):
    from qhcover.modules import radical_span

    for p in indec_projectives(a2_gf3):
        s = top(p)[0]
        cov = projective_cover(s)
        ker = cov.matrix.kernel()
        rad = radical_span(cov.source)
        assert rad.contains(ker.transpose())


def test_projective_cover_of_projective_is_iso(a2_gf3):
    p1 = min(indec_projectives(a2_gf3), key=lambda p: p.dim)
    cov = projective_cover(p1)
    assert cov.is_isomorphism()


def test_injective_envelope(a2_gf3):
    # I(1) = [2/1] has dim 2; I(2) = P(2) has dim 3
    s1, s2 = [top(p)[0] for p in sorted(indec_projectives(a2_gf3), key=lambda p: p.dim)]
    env1 = injective_envelope(s1)
    env2 = injective_envelope(s2)
    assert env1.target.dim == 2 and env1.is_injective()
    assert env2.target.dim == 3 and env2.is_injective()


def test_trace_submodule(a2_gf3):
    projs = sorted(indec_projectives(a2_gf3), key=lambda p: p.dim)
    p1, p2 = projs
    tr, incl = trace_submodule(p2, p1)  # image of P(2) -> P(1): the socle
    assert tr.dim == 1
    tr2, _ = trace_submodule(p1, p1)
    assert tr2.dim == p1.dim
    z, _ = trace_submodule(top(p1)[0], p2)  # S(1) cannot reach soc P(2) = S(2)
    assert z.dim == 0


def test_corner_module(a3_gf3):
    # eps_2 = e_1 + e_2 (vertex idempotents): eps_2 A_3 eps_2 = A_2 and
    # eps_2 P(3) has dim 2
    e = a3_gf3.basis_element(0) + a3_gf3.basis_element(1)
    corner, incl = corner_algebra(a3_gf3, e)
    assert corner.dim == 5
    from qhcover.modules import corner_module

    p3 = None
    for p in indec_projectives(a3_gf3):
        if p.dim == 3:  # P(3) = [3/2/3]
            p3 = p
    assert p3 is not None
    cm = corner_module(p3, e, corner, incl)
    # P(3) = [3/2/3] has a single composition factor at the kept vertices
    assert cm.dim == 1
    cm.validate()


def test_is_isomorphic_self_and_mismatch(a2_gf3):
    p1, p2 = sorted(indec_projectives(a2_gf3), key=lambda p: p.dim)
    assert is_isomorphic(p1, p1) is not None
    assert is_isomorphic(p1, p2) is None


def test_indecomposable_summands_of_regular(a2_gf3):
    reg = regular_module(a2_gf3)
    parts = indecomposable_summands(reg)
    dims = sorted(p[0].dim for p in parts)
    assert dims == [2, 3]
    total = Mat.zeros(F3, 5, 5)
    for mod, incl, proj in parts:
        total = total + (incl.matrix @ proj.matrix)
    assert total == Mat.identity(F3, 5)


def test_end_algebra_of_regular(a2_gf3):
    reg = regular_module(a2_gf3)
    b, bim, basis = end_algebra_with_bimodule(reg)
    assert b.dim == 5  # End(A)^op = A
    bim.validate()


def test_end_algebra_local_of_p2(a2_gf3):
    p2 = max(indec_projectives(a2_gf3), key=lambda p: p.dim)
    end, basis = endomorphism_algebra(p2)
    assert end.dim == 2
    assert end.radical_subspace().dim == 1  # local: id + socle-factoring nilpotent


def test_tensor_unit_law(a2_gf3):
    # X tensor_B B = X for X = q as right module over B = End(q)^op
    p2 = max(indec_projectives(a2_gf3), key=lambda p: p.dim)
    b, bim, _ = end_algebra_with_bimodule(p2)
    breg = regular_module(b)
    assert tensor_over(bim.right, breg) == p2.dim


def test_tensor_matches_naive_balancing(a2_gf3):
    # oracle: span of relations xi.b x y - xi x b.y inside X x Y, full basis of B
    p2 = max(indec_projectives(a2_gf3), key=lambda p: p.dim)
    b, bim, _ = end_algebra_with_bimodule(p2)
    s2 = top(p2)[0]
    from qhcover.modules import hom_module_over_endop

    hmod, _ = hom_module_over_endop(p2, s2)
    dim = tensor_over(bim.right, hmod)
    x, y = bim.right, hmod
    rel_rows = []
    for bi in range(b.dim):
        bvec = b.basis_element(bi)
        xb = x.act(bvec)  # right action of b on X
        by = y.act(bvec)
        for r in range(x.dim):
            for s in range(y.dim):
                row = np.zeros(x.dim * y.dim, dtype=np.int64)
                for i in range(x.dim):
                    row[i * y.dim + s] += int(xb[i, r])
                for j in range(y.dim):
                    row[r * y.dim + j] -= int(by[j, s])
                rel_rows.append(row % 3)
    rank = Mat(F3, np.array(rel_rows)).rank() if rel_rows else 0
    assert dim == x.dim * y.dim - rank


def test_counit_on_projective_generator(a2_gf3):
    # chi_M surjective and bijective for M in add(q) when q = regular module
    reg = regular_module(a2_gf3)
    cd = counit_analysis(reg, reg)
    assert cd.surjective and cd.bijective


def test_counit_s2_wrt_p2(a2_gf3):
    # q = P(2), M = S(2): evaluation is surjective but not injective
    p2 = max(indec_projectives(a2_gf3), key=lambda p: p.dim)
    s2 = top(p2)[0]
    cd = counit_analysis(p2, s2)
    assert cd.surjective and not cd.bijective


def test_counit_zero_hom_case(a2_gf3):
    # q = P(2), M = S(1): Hom(P(2), S(1)) = 0 so the counit cannot surject
    p1, p2 = sorted(indec_projectives(a2_gf3), key=lambda p: p.dim)
    s1 = top(p1)[0]
    cd = counit_analysis(p2, s1)
    assert not cd.surjective


def test_modules_over_qq(a2_qq):
    reg = regular_module(a2_qq)
    reg.validate()
    projs = indec_projectives(a2_qq)
    assert sorted(p.dim for p in projs) == [2, 3]
    for m in projs:
        for n in projs:
            assert hom_space(m, n).dim == len(hom_space_naive(m, n))


def test_hom_matches_naive_on_schur():
    # presentation-based hom agrees with the intertwiner oracle on S_GF2(2,2)
    from qhcover.fields import GF
    from qhcover.gallery import build_schur

    s = build_schur(2, 2, 1, GF(2))
    qh = s.qh()
    mods = [s.tensor_module] + list(qh.standards) + list(qh.projectives)
    for m in mods:
        for n in mods:
            assert hom_space(m, n).dim == len(hom_space_naive(m, n))


def test_random_submodule_homs_hypothesis(a2_gf3):
    # seeded random invariant subspaces: fast hom dims equal the oracle
    import numpy as np

    rng = np.random.default_rng(31)
    reg = regular_module(a2_gf3)
    gens = a2_gf3.generator_elements()
    for _ in range(12):
        k = int(rng.integers(1, 5))
        vecs = rng.integers(0, 3, size=(k, reg.dim))
        span = Subspace(F3, reg.dim, Mat(F3, vecs))
        while True:
            cols = span.basis.transpose()
            imgs = [reg.act(g) @ cols for g in gens]
            ns = Subspace(F3, reg.dim, Mat.vstack([span.basis] + [m.transpose() for m in imgs]))
            if ns.dim == span.dim:
                break
            span = ns
        sub, _ = submodule(reg, span)
        assert hom_space(sub, reg).dim == len(hom_space_naive(sub, reg))
        assert hom_space(reg, sub).dim == len(hom_space_naive(reg, sub))


# -- one restriction kernel for sub-, quotient and corner modules and corner reps --


RESTRICTION_CASES = {
    "A3-QQ": lambda: make_am_algebra(3, QQ),
    "S_GF2(2,2)": lambda: build_schur(2, 2, 1, GF(2)).algebra,
    "S_GF3(2,3)": lambda: build_schur(2, 3, 1, F3).algebra,
}


def _random_invariant_spans(m, rng, count):
    """The zero and the whole subspace, then ``count`` submodules A.v, for v
    random in M or, every other time, in rad(M) (smaller, mostly)."""
    field = m.algebra.field
    spans = [Subspace(field, m.dim), Subspace.from_columns(Mat.identity(field, m.dim))]
    rad = radical_span(m).basis.transpose()
    for i in range(count):
        v = Mat(field, rng.integers(-2, 3, size=(m.dim, 1)).tolist())
        if i % 2 and rad.cols:
            v = rad @ Mat(field, rng.integers(-2, 3, size=(rad.cols, 1)).tolist())
        spans.append(Subspace.from_columns(Mat.hstack([g @ v for g in m.action])))
    return spans


@pytest.mark.parametrize("case", list(RESTRICTION_CASES))
def test_sub_and_quotient_modules_match_the_per_matrix_oracles(case):
    a = RESTRICTION_CASES[case]()
    rng = np.random.default_rng(23)
    for m in [regular_module(a)] + indec_projectives(a):
        for span in _random_invariant_spans(m, rng, 6):
            sub, incl = submodule(m, span)
            ref, ref_incl = submodule_naive(m, span)
            assert sub.action == ref.action and incl.matrix == ref_incl.matrix
            quot, proj = quotient_module(m, span)
            ref, ref_proj = quotient_module_naive(m, span)
            assert quot.action == ref.action and proj.matrix == ref_proj.matrix


@pytest.mark.parametrize("case", list(RESTRICTION_CASES))
def test_corner_reps_match_the_per_coordinate_formula(case):
    a = RESTRICTION_CASES[case]()
    if a._rep is None:  # A_3 carries no rep of its own; End(A) = A^op does
        a = endomorphism_algebra(regular_module(a))[0]
    prim = a.primitive_idempotents()
    reps = [prim.idempotents[r] for r in prim.class_reps]
    for e in [prim.idempotents[0], prim.idempotents[-1], sum(reps[1:], reps[0]), a.one]:
        corner, incl = corner_algebra(a, e)
        assert corner._rep is not None and unstack(corner.rep_action()) == corner_rep_naive(a, e, incl)


# -- every constructor builds the flat action with one array operation -------------


def _per_matrix(m):
    """m's action read off one basis element at a time through ``act``."""
    a = m.algebra
    return [m.act(a.basis_element(i)) for i in range(a.dim)]


def _flat_of(mats):
    """The flat form of per-matrix actions: row a is mats[a] read row-major."""
    d = mats[0].rows
    return Mat.vstack([x.reshape(1, d * d) for x in mats])


def _constructor_cases(field):
    """Modules of A_3 over ``field``: the regular module, its projectives and
    simples, and over QQ two conjugates of P(1) whose actions have
    different denominators."""
    a = make_am_algebra(3, field)
    mods = [regular_module(a)] + indec_projectives(a) + simple_modules(a)
    if field == QQ:
        p = max(indec_projectives(a), key=lambda m: m.dim)
        mods += [_conjugated(p, np.random.default_rng(seed)) for seed in (31, 32)]
        assert len({x.flat_action().den for x in mods[-2:]} | {1}) == 3
    return a, mods


@pytest.mark.parametrize("field", [F3, QQ], ids=["GF3", "QQ"])
def test_flat_constructors_match_per_matrix_references(field):
    from qhcover.modules import corner_module, projective_module

    a, mods = _constructor_cases(field)
    for m in mods:
        assert m.flat_action() == _flat_of(m.action) and m.stack() == Mat.vstack(m.action)
    # regular: left multiplication by each basis element
    assert regular_module(a).action == [a.left_mult_matrix(a.basis_element(i)) for i in range(a.dim)]
    # zero: an (A.dim x 0) flat action
    z = zero_module(a)
    assert (z.dim, z.flat_action().rows, z.flat_action().cols) == (0, a.dim, 0)
    assert z.action == [Mat.zeros(field, 0, 0)] * a.dim
    # direct sum: block-diagonal matrices, over a common denominator on QQ
    for parts in [mods[:3], mods[-3:], [mods[-1], z, mods[-2]]]:
        total = direct_sum(parts)[0]
        refs = [Mat.block_diag(field, [p.action[i] for p in parts]) for i in range(a.dim)]
        assert total.action == refs and total.flat_action() == _flat_of(refs)
    # dual: transposed matrices over the opposite algebra
    for m in mods + [z]:
        d = dual(m)
        assert d.algebra is opposite(a) and d.action == [x.transpose() for x in _per_matrix(m)]
    # projective A e: b_i w_t in the basis w of A e, one solve per matrix
    prim = a.primitive_idempotents()
    for e in prim.idempotents + [a.one]:
        p, w, gen = projective_module(a, e)
        assert p.action == [w.solve(a.left_mult_matrix(a.basis_element(i)) @ w) for i in range(a.dim)]
        assert w @ gen.transpose() == e
    # corner e.M over eAe: each corner basis element restricted to e.M
    e = prim.idempotents[0]
    corner, incl = corner_algebra(a, e)
    for m in mods:
        c = corner_module(m, e, corner, incl)
        span = Subspace.from_columns(m.act(e))
        w = span.basis.transpose()
        assert c.flat_action() == _flat_of([w.solve(m.act(incl.take_cols([k])) @ w) for k in range(corner.dim)])


@pytest.mark.parametrize("field", [F3, QQ], ids=["GF3", "QQ"])
def test_flat_sub_and_quotient_modules_match_per_matrix_references(field):
    _, mods = _constructor_cases(field)
    rng = np.random.default_rng(33)
    for m in mods:
        for span in _random_invariant_spans(m, rng, 3):
            sub, _ = submodule(m, span)
            ref, _ = submodule_naive(m, span)
            quot, _ = quotient_module(m, span)
            ref_quot, _ = quotient_module_naive(m, span)
            assert sub.flat_action() == _flat_of(ref.action) and quot.flat_action() == _flat_of(ref_quot.action)


@pytest.mark.parametrize("field", [F3, QQ], ids=["GF3", "QQ"])
def test_flat_hom_modules_match_per_matrix_references(field):
    _, mods = _constructor_cases(field)
    for q in mods[:4]:
        for m in mods:
            hmod, _ = hom_module_over_endop(q, m)
            rmod, _ = hom_into_q_as_right_module(q, m)
            assert hmod.action == hom_module_action_naive(q, m)
            assert rmod.action == hom_into_q_action_naive(q, m)


def test_module_from_matrices_checks_its_shapes(a2_gf3):
    reg = regular_module(a2_gf3)
    assert Module.from_matrices(a2_gf3, reg.action).flat_action() == reg.flat_action()
    with pytest.raises(ModuleError, match="one action matrix per algebra basis element"):
        Module.from_matrices(a2_gf3, reg.action[:-1])
    with pytest.raises(ModuleError, match="square of the module dimension"):
        Module.from_matrices(a2_gf3, reg.action[:-1] + [Mat.zeros(F3, reg.dim, reg.dim + 1)])
    with pytest.raises(ModuleError, match="not \\(algebra dim\\)"):
        Module(a2_gf3, Mat.zeros(F3, a2_gf3.dim, 3))


def test_a_twin_lookup_compares_one_array(monkeypatch):
    a = make_am_algebra(2, F3)
    p2, twins = _p2_and_twins(a)
    end = endomorphism_algebra(p2)
    compared = []
    mat_eq = Mat.__eq__

    def recorded(self, other):
        compared.append((self.rows, self.cols))
        return mat_eq(self, other)

    monkeypatch.setattr(Mat, "__eq__", recorded)
    for t in twins:
        compared.clear()
        assert endomorphism_algebra(t) is end
        # the whole action is one (A.dim x dim^2) array, compared once
        assert compared == [(a.dim, p2.dim * p2.dim)]


# -- Hom coordinates, read at the top generators ----------------------------------

HOM_CASES = {
    "A2-GF3": lambda: build_am(2, F3),
    "A2-QQ": lambda: build_am(2, QQ),
    "A3-GF3": lambda: build_am(3, F3),
    "A3-QQ": lambda: build_am(3, QQ),
    "S_GF3(2,3)": lambda: build_schur(2, 3, 1, F3),
}


@pytest.mark.parametrize("case", list(HOM_CASES))
def test_hom_coordinates_match_a_matrix_basis_on_random_combinations(case):
    mods = named_modules(HOM_CASES[case]())
    rng = np.random.default_rng(24)
    pairs = 0
    for m in mods:
        for n in mods:
            hs = hom_space(m, n)
            if not hs.dim:
                continue
            pairs += 1
            field = m.algebra.field
            coeffs = Mat(field, rng.integers(-3, 4, size=(hs.dim, 3)).tolist())  # column c: one combination
            maps = [hs.combination([coeffs[t, c] for t in range(hs.dim)]).matrix for c in range(3)]
            got = hs.coords_of_products(Mat.hstack(maps).reshape(n.dim * 3, m.dim), Mat.identity(field, m.dim))
            assert got == coeffs == hom_coords_naive(hs, maps)
    assert pairs > 20


@pytest.mark.parametrize("case", ["A3-GF3", "A3-QQ", "S_GF3(2,3)"])
def test_end_algebras_match_the_solve_oracle(case):
    # End(M) reads its structure constants and unit at the Hom frame
    for m in named_modules(HOM_CASES[case]())[:-1]:  # End of the zero module is no algebra
        end, basis = endomorphism_algebra(m)
        want = algebra_of_matrices_naive([f.matrix for f in basis])
        assert end.structure == want.structure and end.one == want.one


@pytest.mark.parametrize("case", list(HOM_CASES))
def test_actions_on_hom_spaces_match_the_per_pair_oracles(case):
    mods = named_modules(HOM_CASES[case]())
    zero_homs = 0
    for q in mods[:-1]:  # End of the zero module is no algebra
        for m in mods:
            hmod, hs = hom_module_over_endop(q, m)
            assert hmod.action == hom_module_action_naive(q, m) and hs.dim == hmod.dim
            rmod, rs = hom_into_q_as_right_module(q, m)
            assert rmod.action == hom_into_q_action_naive(q, m) and rs.dim == rmod.dim
            zero_homs += (hmod.dim == 0) + (rmod.dim == 0)
    assert zero_homs > 0


@pytest.mark.parametrize("case", list(HOM_CASES))
def test_induced_maps_on_hom_into_q_match_the_per_pair_oracle(case):
    mods = named_modules(HOM_CASES[case]())
    zero = mods[-1]
    # covers onto and envelopes out of each module, and the map from 0
    maps = [projective_cover(m) for m in mods[:-1]] + [injective_envelope(m) for m in mods[:-1]]
    maps.append(ModuleMap(zero, mods[0], Mat.zeros(zero.algebra.field, mods[0].dim, 0)))
    for q in mods[:-1]:
        for f in maps:
            got = induced_map_on_hom_into_q(f, hom_space(f.target, q), hom_space(f.source, q))
            assert got == induced_map_naive(f, q)


def test_submodule_of_a_non_invariant_subspace_raises(a3_gf3):
    # the unit generates A, so its line is not a submodule of A
    with pytest.raises(ModuleError, match="subspace is not invariant under the action"):
        submodule(regular_module(a3_gf3), Subspace.from_columns(a3_gf3.one))


def test_is_isomorphic_finds_conjugated_modules(a2_gf3):
    # conjugating the action by a random base change gives an isomorphic module
    import numpy as np

    rng = np.random.default_rng(77)
    projs = indec_projectives(a2_gf3)
    for base in projs + [regular_module(a2_gf3)]:
        d = base.dim
        while True:
            g = Mat(F3, rng.integers(0, 3, size=(d, d)))
            if g.is_invertible():
                break
        ginv = g.inv()
        conj = Module.from_matrices(a2_gf3, [g @ m @ ginv for m in base.action])
        iso = is_isomorphic(base, conj)
        assert iso is not None and iso.is_isomorphism()


def _conjugated(m, rng):
    """m with its action conjugated by a random invertible matrix."""
    while True:
        g = Mat(m.algebra.field, rng.integers(0, 3, size=(m.dim, m.dim)))
        if g.is_invertible():
            break
    ginv = g.inv()
    return Module.from_matrices(m.algebra, [g @ x @ ginv for x in m.action])


def test_is_isomorphic_matches_summands_of_decomposable_modules(a2_gf3):
    p1, p2 = sorted(indec_projectives(a2_gf3), key=lambda p: p.dim)
    m = direct_sum([p2, p2])[0]
    pairs = [
        (direct_sum([p1, p2])[0], direct_sum([p2, p1])[0]),
        (m, _conjugated(m, np.random.default_rng(5))),
    ]
    for x, y in pairs:
        iso = is_isomorphic(x, y)
        assert iso is not None and iso.is_isomorphism()
        iso.validate()


def test_summand_matches_names_the_first_isomorphic_part(a2_gf3):
    p1, p2 = sorted(indec_projectives(a2_gf3), key=lambda p: p.dim)
    m = direct_sum([p2, top(p1)[0], p1])[0]
    matches = summand_matches(m, [p1, p2, _conjugated(p2, np.random.default_rng(6))])
    assert sorted((s.dim, j) for s, j in matches) == [(1, None), (2, 0), (3, 1)]
    assert summand_matches(zero_module(a2_gf3), [p1]) == []


def test_indecomposables_isomorphic_scans_the_whole_hom_basis(a3_gf3):
    # isomorphic indecomposables have an invertible map in every Hom basis,
    # though not always the first one
    rng = np.random.default_rng(9)
    projs = indec_projectives(a3_gf3)
    first_invertible = []
    for p in projs + [injective_envelope(top(p)[0]).target for p in projs]:
        for _ in range(4):
            conj = _conjugated(p, rng)
            iso = indecomposables_isomorphic(p, conj)
            assert iso is not None and iso.is_isomorphism()
            iso.validate()
            first_invertible.append(hom_space(p, conj).maps[0].matrix.is_invertible())
    assert not all(first_invertible)


def test_indecomposables_isomorphic_rejects_maps_both_ways(a2_gf3):
    # P(1) = [1/2] and I(1) = [2/1] map to each other, each map onto a socle
    p1 = min(indec_projectives(a2_gf3), key=lambda p: p.dim)
    i1 = injective_envelope(top(p1)[0]).target
    assert i1.dim == p1.dim and hom_space(p1, i1).dim and hom_space(i1, p1).dim
    assert top(i1)[0].action != top(p1)[0].action
    assert indecomposables_isomorphic(p1, i1) is None and is_isomorphic(p1, i1) is None
    # each summand of one side is matched once: P(1) + P(1) is not P(1) + I(1)
    assert is_isomorphic(direct_sum([p1, p1])[0], direct_sum([p1, i1])[0]) is None


def test_is_isomorphic_rejects_modules_with_maps_both_ways(a2_gf3):
    # P(1) + S(2) and S(1) + S(2) + S(2) share their composition factors and
    # map to each other both ways, but only the first has a nonzero radical
    p1 = min(indec_projectives(a2_gf3), key=lambda p: p.dim)
    soc = module_radical(p1)[0]
    x = direct_sum([p1, soc])[0]
    y = direct_sum([top(p1)[0], soc, soc])[0]
    assert x.dim == y.dim and module_radical(x)[0].dim != module_radical(y)[0].dim
    assert hom_space(x, y).dim and hom_space(y, x).dim
    assert is_isomorphic(x, y) is None and is_isomorphic(y, x) is None


def test_validate_rejects_action_wrong_beyond_generator_pairs():
    a, bad = broken_truncated_polynomial_module()
    assert a.generator_indices() == [1]
    regular_module(a).validate()
    with pytest.raises(ModuleError, match="not multiplicative"):
        bad.validate()


@pytest.mark.parametrize("field", [F3, QQ], ids=["GF3", "QQ"])
def test_indecomposable_is_its_own_summand(field):
    from qhcover.gallery import build_am

    qh = build_am(3, field).qh
    modules = qh.projectives + qh.standards + qh.tiltings()
    for m in modules:
        parts = indecomposable_summands(m)
        assert len(parts) == 1
        summand, incl, proj = parts[0]
        ident = Mat.identity(field, m.dim)
        assert summand is m and incl.matrix == ident and proj.matrix == ident
    reg = regular_module(qh.algebra)
    parts = indecomposable_summands(reg)
    assert len(parts) == 3 and all(s is not reg for s, _, _ in parts)
    total = Mat.zeros(field, reg.dim, reg.dim)
    for _, incl, proj in parts:
        total = total + (incl.matrix @ proj.matrix)
    assert total == Mat.identity(field, reg.dim)


def test_an_indecomposable_module_builds_its_summand_triple_once(a3_gf3, monkeypatch):
    p = indec_projectives(a3_gf3)[0]
    parts = indecomposable_summands(p)
    eyes = []
    eye = np.eye
    monkeypatch.setattr(np, "eye", lambda *args, **kwargs: eyes.append(args) or eye(*args, **kwargs))
    assert indecomposable_summands(p) is parts and eyes == []
    # a twin shares the verdict but gets a triple that names the twin
    twin = Module.from_matrices(a3_gf3, p.action)
    assert indecomposable_summands(twin)[0][0] is twin


# -- modules with equal content share one memo ------------------------------------


def _twins(m):
    """Three twins of m: the same actions, built other ways."""
    field = m.algebra.field
    full = submodule(m, Subspace(field, m.dim, Mat.identity(field, m.dim)))[0]
    by_zero = quotient_module(m, Subspace(field, m.dim))[0]
    single = direct_sum([m])[0]
    return [full, by_zero, single]


def _p2_and_twins(a):
    """P(2) of A_2 and three twins of it."""
    p2 = max(indec_projectives(a), key=lambda p: p.dim)
    return p2, _twins(p2)


def test_twins_share_end_and_presentation():
    p2, twins = _p2_and_twins(make_am_algebra(2, F3))
    for t in twins:
        assert t is not p2 and t.action == p2.action
    # a twin asks first, so the memos are built on a twin and reach p2 too
    for t in twins + [p2]:
        assert endomorphism_algebra(t) is endomorphism_algebra(twins[0])
        assert projective_cover_data(t) is projective_cover_data(twins[0])
        assert indecomposable_summands(t)[0][0] is t  # indecomposable: itself


def test_twins_share_the_split_of_a_decomposable_module():
    a = make_am_algebra(2, F3)
    reg = regular_module(a)
    twin = direct_sum([reg])[0]
    parts = indecomposable_summands(reg)
    assert len(parts) == 2 and indecomposable_summands(twin) is parts


def test_equal_actions_over_two_algebras_share_nothing():
    a, b = make_am_algebra(2, F3), make_am_algebra(2, F3)
    m = regular_module(a)
    n = Module.from_matrices(b, m.action)
    assert endomorphism_algebra(m) is not endomorphism_algebra(n)
    assert projective_cover_data(m) is not projective_cover_data(n)
    assert indecomposable_summands(m) is not indecomposable_summands(n)


def test_colliding_fingerprints_share_nothing(monkeypatch):
    from qhcover.reldim import codomdim_chain, relative_codomdim

    # every module of one dimension now lands on one table key
    monkeypatch.setattr(Mat, "__hash__", lambda self: 0)
    a = make_am_algebra(2, F3)
    p1, p2 = sorted(indec_projectives(a), key=lambda p: p.dim)
    s1, s2 = top(p1)[0], top(p2)[0]
    assert s1.dim == s2.dim and s1.action != s2.action
    assert endomorphism_algebra(s1) is not endomorphism_algebra(s2)
    assert projective_cover_data(s1) is not projective_cover_data(s2)
    # a twin of the key's first module still shares; one of s2 only misses
    assert projective_cover_data(top(p1)[0]) is projective_cover_data(s1)
    assert projective_cover_data(top(p2)[0]) is not projective_cover_data(s2)
    # the pair memos key by representative, so s1 and s2 miss there too
    assert [hom_space(p1, s).dim for s in (s1, s2)] == [len(hom_space_naive(p1, s)) for s in (s1, s2)] == [1, 0]
    assert [counit_analysis(p1, s).surjective for s in (s1, s2)] == [True, False]
    assert is_isomorphic(s1, s1) is not None and is_isomorphic(s1, s2) is None
    reg = regular_module(a)
    for q in [p1, p2, s2, direct_sum([p2, s2])[0]]:
        for m in [p1, p2, s1, s2, reg, dual(dual(p1))]:
            mv = relative_codomdim(q, m, 8).value
            cv, _ = codomdim_chain(q, m, 8)
            assert (mv.kind, mv.n) == (cv.kind, cv.n)


def test_twin_table_empties_when_the_modules_die():
    import gc
    import weakref

    from qhcover.homology import minimal_projective_resolution

    # modules the algebra does not hold (its cached projectives would stay)
    a = make_am_algebra(2, F3)
    reg = regular_module(a)
    mods = [reg, direct_sum([reg])[0]] + [top(s)[0] for s, _, _ in indecomposable_summands(reg)]
    for m in mods:
        endomorphism_algebra(m)
        minimal_projective_resolution(m, 3)
    table = vars(a)["_twins"]
    assert len(table) > 0
    refs = [weakref.ref(m) for m in mods]
    del reg, mods, m
    gc.collect()
    assert all(r() is None for r in refs)
    assert len(table) == 0


def test_classical_domdim_of_schur33_hashes_no_165_square_matrix(monkeypatch):
    from qhcover.gallery import build_schur
    from qhcover.reldim import classical_domdim

    # classical_domdim runs on the basic algebra B = eAe and builds no
    # module over the 165-dimensional S_GF3(3,3), such as its dual regular
    # module, so none of the 165 x 165 action matrices is hashed
    a = build_schur(3, 3, 1, GF(3)).algebra
    hashed = []
    mat_hash = Mat.__hash__

    def recorded(self):
        hashed.append((self.rows, self.cols))
        return mat_hash(self)

    monkeypatch.setattr(Mat, "__hash__", recorded)
    assert str(classical_domdim(a, 10)[0].value) == "Exact(4)"
    assert hashed and (a.dim, a.dim) not in hashed and (a.dim, a.dim * a.dim) not in hashed


# -- pairs of modules share one memo per pair of contents ----------------------------


def test_twin_pairs_build_hom_counit_and_isomorphism_once(monkeypatch):
    import qhcover.modules as modules

    builds = dict.fromkeys(["_hom_matrices", "_counit_analysis", "_isomorphism_matrix"], 0)
    for name in builds:

        def counted(*args, name=name, build=getattr(modules, name)):
            builds[name] += 1
            return build(*args)

        monkeypatch.setattr(modules, name, counted)
    p2, twins = _p2_and_twins(make_am_algebra(2, F3))
    s2 = top(p2)[0]
    mods = [p2, *twins, s2, top(p2)[0]]  # two contents, P(2) and its top
    for m in mods:
        for n in mods:
            hom_space(m, n)
            counit_analysis(m, n)
            is_isomorphic(m, n)
    # one build per pair of contents; is_isomorphic skips pairs of unequal dimension.
    # The other three Hom builds are the counit's Hom_B(Hom(m, n), D m), one
    # per pair of their contents: with m the top S of P(2), Hom(S, P(2)) and
    # Hom(S, S) are twins over B = End(S)^op
    assert builds == {"_hom_matrices": 7, "_counit_analysis": 4, "_isomorphism_matrix": 2}


def test_twin_pairs_build_each_chain_once(monkeypatch):
    import qhcover.reldim as reldim

    builds = []
    build = reldim._chain_steps
    monkeypatch.setattr(reldim, "_chain_steps", lambda q, m, cap: builds.append(cap) or build(q, m, cap))
    p2, twins = _p2_and_twins(make_am_algebra(2, F3))
    mods = [p2, *twins, top(p2)[0], top(p2)[0]]  # two contents, P(2) and its top
    for cap in (6, 3):
        for q in mods:
            for m in mods:
                reldim.codomdim_chain(q, m, cap)
    # one build per pair of contents and cap
    assert builds == [6] * 4 + [3] * 4


def test_chains_of_twins_name_the_module_asked():
    from qhcover.reldim import codomdim_chain

    named = build_am(2, F3).named_modules()
    q, m = named["T(1)"], named["I(1)"]
    value, chain = codomdim_chain(q, m, 6)
    # Hom(q, -) is a line at each step, so each step map starts at q itself,
    # and the first ends at m itself: a stored map would hold the pair
    assert str(value) == "Exact(2)" and [f.source_dim for f in chain.steps] == [q.dim] * 3
    assert chain.steps[0].target_dim == m.dim
    for twin in _twins(m):
        twin_value, twin_chain = codomdim_chain(q, twin, 6)
        assert twin_value == value and twin_chain.base is twin and chain.base is m
        assert twin_chain.to_json() == chain.to_json() and twin_chain.steps is not chain.steps


def test_hom_and_isomorphism_of_twins_map_the_modules_asked():
    p2, twins = _p2_and_twins(make_am_algebra(2, F3))
    hom_space(p2, p2)
    for m in twins:
        for n in [p2, *twins]:
            maps = hom_space(m, n).maps
            assert maps and all(f.source is m and f.target is n for f in maps)
            iso = is_isomorphic(m, n)
            assert iso.source is m and iso.target is n


def test_pair_entries_die_with_their_second_module():
    import gc
    import weakref

    from qhcover.reldim import codomdim_chain

    a = make_am_algebra(2, F3)
    reg = regular_module(a)
    n = direct_sum(indec_projectives(a)[::-1])[0]  # isomorphic to reg, other actions
    assert n.dim == reg.dim and n.action != reg.action
    assert hom_space(reg, n).dim == 5 and counit_analysis(reg, n).bijective
    assert is_isomorphic(reg, n) is not None
    assert str(codomdim_chain(reg, n, 6)[0]) == "Infinite"
    tables = [vars(reg)[key] for key in ("_hom", "_counit", "_iso", "_chain6")]
    assert all(n in table for table in tables)
    ref = weakref.ref(n)
    del n
    gc.collect()
    assert ref() is None
    # Hom(reg, reg) stays: the counit's End(reg) asked for it
    assert [list(table) for table in tables] == [[reg], [], [], []]


def test_no_pair_memo_value_reaches_its_pair():
    import gc
    import types

    from qhcover.algebra import Algebra
    from qhcover.reldim import codomdim_chain, relative_codomdim

    for m in (2, 3):
        named = list(build_am(m, F3).named_modules().values())
        for q in named:
            for n in named:
                relative_codomdim(q, n, 6)
                codomdim_chain(q, n, 6)
    objects = gc.get_objects()
    # a twin table holds weak references only; classes and functions reach everything
    skip = {id(vars(x)["_twins"]) for x in objects if isinstance(x, Algebra) and "_twins" in vars(x)}
    opaque = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType, types.MethodType)

    def reached(value):
        seen, todo = set(), [value]
        while todo:
            obj = todo.pop()
            if id(obj) in seen or id(obj) in skip or isinstance(obj, opaque):
                continue
            seen.add(id(obj))
            todo.extend(gc.get_referents(obj))
        return seen

    tables = 0
    for owner in objects:
        if not isinstance(owner, Module):
            continue
        for key, table in vars(owner).items():
            if key in ("_hom", "_counit", "_iso") or key.startswith("_chain"):
                tables += 1
                for other, value in table.items():
                    assert not {id(owner), id(other)} & reached(value), (key, owner, other)
    assert tables > 100


def test_pair_memos_keep_their_guards():
    from qhcover.reldim import codomdim_chain

    a, b = make_am_algebra(2, F3), make_am_algebra(2, F3)
    m = regular_module(a)
    for f in (hom_space, is_isomorphic):
        with pytest.raises(ModuleError, match="different algebras"):
            f(m, Module.from_matrices(b, m.action))
    z = zero_module(a)
    assert hom_space(z, m).maps == [] and hom_space(m, z).maps == []
    assert is_isomorphic(z, zero_module(a)).matrix.rows == 0 and is_isomorphic(z, m) is None
    # the zero module and a dimension mismatch short-circuit before any table or fingerprint
    for mod in (z, m):
        assert not {"_hom", "_iso", "_twin"} & set(vars(mod))
    # a bad cap raises before the chain table is read, also after a good cap was stored
    p = indec_projectives(a)[0]
    codomdim_chain(p, m, 6)
    assert m in vars(p)["_chain6"]
    with pytest.raises(ValueError, match="at least 2"):
        codomdim_chain(p, m, 1)


def test_dual_stays_per_object():
    p2, twins = _p2_and_twins(make_am_algebra(2, F3))
    for t in twins:
        projective_cover_data(t)
        assert dual(dual(t)) is t
        assert dual(t) is not dual(p2)
    assert dual(dual(p2)) is p2


def _a3_codomdim_reports(reverse: bool) -> list[dict]:
    """Both oracles' reports, as ``relcodomdim --method both`` writes them, on
    every pair of named A_3 modules, run in forward or reverse order."""
    from qhcover.gallery import build_am
    from qhcover.reldim import codomdim_chain, relative_codomdim

    named = build_am(3, F3).named_modules()  # a new algebra: a cold memo
    pairs = [(q, m) for q in named.values() for m in named.values()]
    order = range(len(pairs) - 1, -1, -1) if reverse else range(len(pairs))
    reports = {}
    for i in order:
        value, chain = codomdim_chain(*pairs[i], 6)
        reports[i] = {
            "mueller": relative_codomdim(*pairs[i], 6).to_json(),
            "chain": {"value": value.to_json(), "witness": chain.to_json()},
        }
    return [reports[i] for i in range(len(pairs))]


def test_a3_reports_do_not_depend_on_the_order_of_pairs():
    # the reverse run reads memos that the forward run built later, and back
    assert _a3_codomdim_reports(False) == _a3_codomdim_reports(True)
