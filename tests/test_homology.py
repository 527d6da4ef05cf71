"""Resolutions, Ext, Tor: spec examples plus dimension-shift/duality laws."""

import numpy as np
import pytest

from qhcover.algebra import from_structure_constants, opposite
from qhcover.fields import GF, QQ
from qhcover.gallery import build_am, build_schur
from qhcover.homology import (
    DimValue,
    ext_dim,
    minimal_projective_resolution,
    projective_dimension,
    tor_dim,
)
from qhcover.linalg import Mat
from qhcover.modules import (
    counit_analysis,
    dual,
    end_algebra_with_bimodule,
    hom_space,
    module_radical,
    regular_module,
    submodule,
    tensor_over,
    top,
)

from conftest import ext_dim_cochains, hom_space_naive, make_am_algebra, named_modules

F2, F3 = GF(2), GF(3)


def indec_projectives(a):
    from qhcover.modules import _indec_projective

    prim = a.primitive_idempotents()
    return [_indec_projective(a, ci)[0] for ci in range(prim.n_blocks)]


def gf2_dual_numbers():
    """GF(2)[x]/(x^2): self-injective, non-semisimple."""
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0][0][0] = mult[0][1][1] = mult[1][0][1] = 1
    return from_structure_constants(F2, 2, mult, [1, 0])


def test_resolution_of_projective_terminates_at_zero(a2_gf3):
    p = indec_projectives(a2_gf3)[0]
    res = minimal_projective_resolution(p, 5)
    assert res.terminated
    assert projective_dimension(p).kind == "exact" and projective_dimension(p).n == 0


def test_resolution_of_s2(a2_gf3):
    p1, p2 = sorted(indec_projectives(a2_gf3), key=lambda m: m.dim)
    s2 = top(p2)[0]
    res = minimal_projective_resolution(s2, 5)
    assert res.terminated
    pd = projective_dimension(s2)
    assert (pd.kind, pd.n) == ("exact", 1)
    assert res.steps[0].dim == 3 and res.steps[1].dim == 2
    assert res.is_minimal()


def test_global_dimension_a2_small(a2_gf3):
    sims = [top(p)[0] for p in indec_projectives(a2_gf3)]
    pds = [projective_dimension(s).n for s in sims]
    assert max(pds) <= 2


def test_nonterminating_resolution_capped():
    a = gf2_dual_numbers()
    simple = top(regular_module(a))[0]
    res = minimal_projective_resolution(simple, 6)
    assert not res.terminated
    pd = projective_dimension(simple, cap=6)
    assert pd.kind == "at_least" and pd.n == 7
    # oracle: the radical series is periodic, each syzygy is the simple again
    for i in range(3):
        assert res.steps[i].dim == 2


def test_resolution_kernels_are_presentation_syzygies():
    # every kernel of the resolution is the syzygy its presentation already built
    from qhcover.modules import projective_cover_data

    simple = top(regular_module(gf2_dual_numbers()))[0]
    res = minimal_projective_resolution(simple, 3)
    assert len(res.kernels) == 4
    assert res.kernels[0] is projective_cover_data(simple).syzygy
    for prev, nxt in zip(res.kernels, res.kernels[1:]):
        assert nxt is projective_cover_data(prev[0]).syzygy


@pytest.fixture(scope="module")
def law_algebras(a2_gf3):
    """The algebras the Ext laws run on, over both fields."""
    return {"A2_GF3": a2_gf3, "A3_QQ": make_am_algebra(3, QQ), "S_GF2(2,2)": build_schur(2, 2, 1, F2).algebra}


def law_modules(a):
    """The indecomposable projectives, the simples and the radicals of the projectives."""
    projectives = indec_projectives(a)
    return projectives + [top(p)[0] for p in projectives] + [module_radical(p)[0] for p in projectives]


def test_ext0_is_hom(law_algebras):
    for name, a in law_algebras.items():
        mods = law_modules(a)
        for m in mods:
            for n in mods:
                assert ext_dim(m, n, 0) == hom_space(m, n).dim, name


def test_ext1_delta2_delta1(a2_gf3):
    p1, p2 = sorted(indec_projectives(a2_gf3), key=lambda m: m.dim)
    s2 = top(p2)[0]  # Delta(2)
    assert ext_dim(s2, p1, 1) == 1  # Delta(1) = P(1)


def test_ext1_from_projective_vanishes(law_algebras):
    for name, a in law_algebras.items():
        for p in indec_projectives(a):
            for n in law_modules(a):
                for i in (1, 2):
                    assert ext_dim(p, n, i) == 0, name


def test_dimension_shift(law_algebras):
    # Ext^i(M, N) = Ext^{i-1}(Omega M, N) for i >= 2; ext_space computes both
    # sides from the same presentation of Omega^{i-1} M, so this guards the
    # resolution's reuse of the presentations more than Ext itself
    for name, a in law_algebras.items():
        mods = law_modules(a)
        for m in mods[len(mods) // 3 :]:  # the simples and the radicals
            omega, _ = minimal_projective_resolution(m, 3).kernels[0]
            for n in mods:
                for i in (2, 3):
                    assert ext_dim(m, n, i) == ext_dim(omega, n, i - 1), (name, i)


def test_ext1_by_the_long_exact_sequence(law_algebras):
    # 0 -> Hom(M, N) -> Hom(P0, N) -> Hom(Omega M, N) -> Ext^1(M, N) -> 0,
    # with every Hom from the naive intertwiner solve, never through Ext
    for name, a in law_algebras.items():
        mods = law_modules(a)
        for m in mods:
            res = minimal_projective_resolution(m, 1)
            omega, p0 = res.kernels[0][0], res.steps[0].module
            for n in mods:
                expected = len(hom_space_naive(omega, n)) - len(hom_space_naive(p0, n)) + len(hom_space_naive(m, n))
                assert ext_dim(m, n, 1) == expected, name


def test_ext_duality(law_algebras):
    # Ext^i_A(M, N) = Ext^i_{A^op}(DN, DM): the right side resolves DN, not M
    seen = {"nonzero": set(), "zero syzygy": 0, "past the end": 0}
    for name, a in law_algebras.items():
        mods = law_modules(a)
        for m in mods:
            for n in mods:
                for i in range(3):
                    e = ext_dim(m, n, i)
                    assert e == ext_dim(dual(n), dual(m), i), (name, i)
                    if e:
                        seen["nonzero"].add(i)
                    length = minimal_projective_resolution(m, i + 1).length()
                    seen["zero syzygy"] += i == length + 1
                    seen["past the end"] += i > length + 1
    # the cases reach every branch of ext_space: degree 0, Omega^i M = 0
    # inside the dimension shift, and the early return past the resolution
    assert seen["nonzero"] == {0, 1, 2}
    assert seen["zero syzygy"] and seen["past the end"], seen


@pytest.mark.parametrize(
    "build, nonzero",
    [
        (lambda: build_am(2, F3), [160, 41, 16, 0]),
        (lambda: build_am(3, F3), [248, 51, 43, 25]),
        (lambda: build_am(3, QQ), [248, 51, 43, 25]),
        (lambda: build_schur(2, 2, 1, F2), [157, 27, 9, 0]),
        (lambda: build_schur(2, 3, 1, F3), [157, 33, 9, 0]),
    ],
    ids=["A2_GF3", "A3_GF3", "A3_QQ", "S_GF2(2,2)", "S_GF3(2,3)"],
)
def test_ext_matches_the_cochain_oracle(build, nonzero):
    # every pair of named modules, A and DA, in degrees 0-3, against the
    # cohomology of the slice cochains Hom(P_i, N); nonzero[i] counts the
    # pairs with Ext^i != 0
    g = build()
    a = g.algebra
    mods = named_modules(g) + [regular_module(a), dual(regular_module(opposite(a)))]
    seen = [0] * 4
    for m in mods:
        for n in mods:
            for i in range(4):
                e = ext_dim(m, n, i)
                assert e == ext_dim_cochains(m, n, i), (m.name, n.name, i)
                seen[i] += e != 0
    assert seen == nonzero


def test_tor_projective_vanishes(a2_gf3):
    # Tor_i(DA, P) = 0 for i >= 1 and projective P
    reg = regular_module(a2_gf3)
    x = dual(reg)  # right module over A = left over A^op; here over opp(A)... careful
    # x must live over opposite(algebra of y): y over A, x over opposite(A)
    p = indec_projectives(a2_gf3)[0]
    assert tor_dim(x, p, 1) == 0
    assert tor_dim(x, p, 2) == 0


def test_tor0_matches_tensor_dim(a2_gf3):
    from qhcover.modules import end_algebra_with_bimodule, hom_module_over_endop, tensor_over

    p2 = max(indec_projectives(a2_gf3), key=lambda m: m.dim)
    s2 = top(p2)[0]
    b, bim, _ = end_algebra_with_bimodule(p2)
    h, _ = hom_module_over_endop(p2, s2)
    assert tor_dim(bim.right, h, 0) == tensor_over(bim.right, h)


def test_ext_tor_duality_random(a2_gf3):
    # dim Tor_i(D N, M) = dim Ext^i(M, N) over a field
    p1, p2 = sorted(indec_projectives(a2_gf3), key=lambda m: m.dim)
    pairs = [(top(p2)[0], p1), (top(p1)[0], p2), (top(p1)[0], top(p2)[0])]
    for m, n in pairs:
        dn = dual(n)
        for i in range(3):
            assert tor_dim(dn, m, i) == ext_dim(m, n, i), (m.name, n.name, i)


def test_ext_additivity_on_sums(a2_gf3):
    from qhcover.modules import direct_sum

    p1, p2 = sorted(indec_projectives(a2_gf3), key=lambda m: m.dim)
    s1, s2 = top(p1)[0], top(p2)[0]
    both, _, _ = direct_sum([s1, s2])
    for n in [p1, p2]:
        for i in range(3):
            assert ext_dim(both, n, i) == ext_dim(s1, n, i) + ext_dim(s2, n, i)


def _count_tops(monkeypatch) -> list:
    """The modules whose top is computed from now on, one entry per computation."""
    from qhcover import modules

    seen = []
    original = modules._top_class_generators

    def counting(m):
        seen.append(m)
        return original(m)

    monkeypatch.setattr(modules, "_top_class_generators", counting)
    return seen


def test_top_computed_once_per_module(monkeypatch):
    # resolving to P5 presents the simple and its syzygies K1..K5 and covers
    # K6; all of them act by (1, 0), so they are one module and its top is
    # computed once
    seen = _count_tops(monkeypatch)
    simple = top(regular_module(gf2_dual_numbers()))[0]
    res = minimal_projective_resolution(simple, 5)
    assert res.length() == 5
    kernels = [k for k, _ in res.kernels]
    assert len(kernels) == 6 and all(k.action == simple.action for k in kernels)
    assert len(seen) == 1


def test_top_computed_once_per_distinct_module(monkeypatch):
    # over GF(2)[x]/(x^3) the syzygies of the simple alternate between rad P
    # (dim 2) and the simple again (dim 1): two modules, one top each
    seen = _count_tops(monkeypatch)
    mult = [[[int(i + j == k) for k in range(3)] for j in range(3)] for i in range(3)]
    simple = top(regular_module(from_structure_constants(F2, 3, mult, [1, 0, 0])))[0]
    res = minimal_projective_resolution(simple, 5)
    assert res.length() == 5
    objects = [simple] + [k for k, _ in res.kernels]
    assert [m.dim for m in objects] == [1, 2, 1, 2, 1, 2, 1]
    distinct = {(m.dim, *m.action) for m in objects}
    assert len(distinct) == 2
    assert len(seen) == 2 and {(m.dim, *m.action) for m in seen} == distinct


def test_resolution_extends_in_place():
    simple = top(regular_module(gf2_dual_numbers()))[0]
    short = minimal_projective_resolution(simple, 1)
    first_steps = list(short.steps)
    longer = minimal_projective_resolution(simple, 4)
    assert longer is short
    assert short.length() == 4 and short.steps[:2] == first_steps


# -- tensor products, Tor and the counit against an oracle that avoids Ext --------


def _naive_tensor(x, y):
    """dim x tensor_A y from the tensor space over k: x (over opposite(A))
    tensor y modulo the relations x.b tensor y - x tensor b.y, one block of
    relation vectors per basis element b of A."""
    if x.dim == 0 or y.dim == 0:
        return 0
    field = y.algebra.field
    ix, iy = Mat.identity(field, x.dim), Mat.identity(field, y.dim)
    relations = Mat.hstack([x.action[b].kron(iy) - ix.kron(y.action[b]) for b in range(y.algebra.dim)])
    return x.dim * y.dim - relations.rank()


def _naive_tor(x, y, i):
    """Tor_i(x, y) by dimension shift along 0 -> Omega y -> P_0 -> y -> 0:
    Tor_1 = t(Omega y) - t(P_0) + t(y), with t the tensor dimension, and
    Tor_i(x, y) = Tor_(i-1)(x, Omega y)."""
    if y.dim == 0:
        return 0
    res = minimal_projective_resolution(y, 1)
    omega = res.kernels[0][0]
    if i > 1:
        return _naive_tor(x, omega, i - 1)
    return _naive_tensor(x, omega) - _naive_tensor(x, res.steps[0].module) + _naive_tensor(x, y)


@pytest.mark.parametrize("m", [2, 3])
@pytest.mark.parametrize("field", [F3, QQ], ids=["GF3", "QQ"])
def test_tensor_tor_and_counit_match_the_naive_oracle(m, field):
    named = list(build_am(m, field).named_modules().values())
    nonzero = [0, 0, 0]
    for q in named:
        x = dual(q)
        for n in named:
            assert tensor_over(x, n) == _naive_tensor(x, n)
            for i in (1, 2, 3):
                t = tor_dim(x, n, i)
                assert t == _naive_tor(x, n, i), (q.name, n.name, i)
                nonzero[i - 1] += t != 0
            cd = counit_analysis(q, n)
            maps = hom_space_naive(q, n)
            surjective = bool(maps) and Mat.hstack(maps).rank() == n.dim
            assert cd.surjective == surjective
            # bijective: onto, from a source of dimension dim n
            q_over_b = end_algebra_with_bimodule(q)[1].right  # q as a right B-module
            assert cd.bijective == (surjective and _naive_tensor(q_over_b, cd.hom_module) == n.dim)
    # the oracle meets nonzero Tor in every degree that A_m reaches (A_2 has
    # global dimension 2)
    assert nonzero == {2: [28, 9, 0], 3: [41, 33, 16]}[m]
