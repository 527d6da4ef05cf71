"""Module machinery: homs (vs the naive intertwiner oracle), duality,
covers, envelopes, traces, corners, isomorphism testing, tensor/counit."""

import numpy as np
import pytest

from qhcover.algebra import corner_algebra, opposite
from qhcover.fields import GF, QQ
from qhcover.linalg import Mat, Subspace
from qhcover.modules import (
    Module,
    ModuleError,
    counit_analysis,
    direct_sum,
    dual,
    end_algebra_with_bimodule,
    endomorphism_algebra,
    hom_space,
    hom_space_naive,
    indecomposable_summands,
    injective_envelope,
    is_isomorphic,
    module_radical,
    projective_cover,
    projective_cover_data,
    proj_sum,
    regular_module,
    socle,
    submodule,
    tensor_over,
    top,
    trace_submodule,
    zero_module,
)

from conftest import broken_truncated_polynomial_module

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


def test_hom_matches_naive_oracle(a2_gf3):
    mods = indec_projectives(a2_gf3) + simple_modules(a2_gf3) + [regular_module(a2_gf3)]
    for m in mods:
        for n in mods:
            fast = hom_space(m, n)
            slow = hom_space_naive(m, n)
            assert fast.dim == len(slow), (m, n)
            for f in fast.maps:
                f.validate()


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
        conj = Module(a2_gf3, [g @ m @ ginv for m in base.action])
        iso = is_isomorphic(base, conj)
        assert iso is not None and iso.is_isomorphism()


def test_validate_rejects_action_wrong_beyond_generator_pairs():
    a, bad = broken_truncated_polynomial_module()
    assert a.generator_indices() == [1]
    regular_module(a).validate()
    with pytest.raises(ModuleError, match="not multiplicative"):
        bad.validate()
