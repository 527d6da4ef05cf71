"""Split quasi-hereditary structures on the A_m algebras."""

import pytest

from qhcover.fields import GF, QQ
from qhcover.modules import dual, hom_space, is_isomorphic, top
from qhcover.qh import (
    QHError,
    WeightPoset,
    ringel_dual,
    split_heredity_quotient,
    verify_split_qh,
)

from conftest import make_am_algebra

F3 = GF(3)


def am_poset(a, m):
    # paper order 1 > 2 > ... > m: label i is below label j when i > j
    pairs = [(i, j) for i in range(m) for j in range(m) if i > j]
    return WeightPoset([str(i + 1) for i in range(m)], pairs, [a.basis_element(v) for v in range(m)])


def _am_structure(m, field):
    a = make_am_algebra(m, field)
    report, qh = verify_split_qh(a, am_poset(a, m))
    assert report.passed
    return qh


@pytest.fixture(scope="module")
def qh_a2():
    return _am_structure(2, F3)


@pytest.fixture(scope="module")
def qh_a3():
    return _am_structure(3, F3)


def test_standard_modules_a2(qh_a2):
    # Delta(1) = P(1) (maximal weight), Delta(2) = S(2)
    assert [d.dim for d in qh_a2.standards] == [2, 1]
    assert is_isomorphic(qh_a2.standards[0], qh_a2.projectives[0]) is not None


def test_standard_modules_a3(qh_a3):
    # Delta(1) = P(1) of dim 2, Delta(2) = [2/3] of dim 2, Delta(3) = S(3)
    assert [d.dim for d in qh_a3.standards] == [2, 2, 1]


def test_costandard_modules_a2(qh_a2):
    # Nabla(1) = I(1) = [2/1] of dim 2, Nabla(2) = S(2)
    assert [qh_a2.costandard(l).dim for l in range(2)] == [2, 1]
    # semisimple-socle check: Nabla(1) is the injective envelope of S(1)
    assert is_isomorphic(qh_a2.costandard(0), qh_a2.injective(0)) is not None


def test_orthogonality_a3(qh_a3):
    for i in range(3):
        for j in range(3):
            d = hom_space(qh_a3.standards[i], qh_a3.costandard(j)).dim
            assert d == (1 if i == j else 0)


def test_reversed_order_fails(qh_a2):
    a = qh_a2.algebra
    rev = WeightPoset(["1", "2"], [(0, 1)], [a.basis_element(0), a.basis_element(1)])
    report, _ = verify_split_qh(a, rev)
    assert not report.passed
    assert "End(Delta" in (report.first_failure() or "")


def test_filtration_membership(qh_a2):
    # projectives lie in F(Delta); S(1) does not
    for p in qh_a2.projectives:
        assert qh_a2.in_f_delta(p)
    s1 = top(qh_a2.projectives[0])[0]
    assert not qh_a2.in_f_delta(s1)


def test_delta_multiplicities_p2(qh_a2):
    # P(2) = [2/1/2] has layers Delta(1) and Delta(2), once each
    mults = qh_a2.delta_multiplicities(qh_a2.projectives[1])
    assert mults == [1, 1]
    assert qh_a2.delta_multiplicities(qh_a2.standards[0]) == [1, 0]


def test_characteristic_tilting_a2(qh_a2):
    tilts = qh_a2.tiltings()
    assert [t.dim for t in tilts] == [3, 1]  # T(1) = P(2), T(2) = S(2)
    assert is_isomorphic(tilts[0], qh_a2.projectives[1]) is not None
    for t in tilts:
        assert qh_a2.in_f_delta(t) and qh_a2.in_f_nabla(t)


def test_characteristic_tilting_a3(qh_a3):
    tilts = qh_a3.tiltings()
    # T(1) = P(2) (dim 4), T(2) = P(3) (dim 3), T(3) = S(3)
    assert [t.dim for t in tilts] == [4, 3, 1]
    assert is_isomorphic(tilts[0], qh_a3.projectives[1]) is not None
    assert is_isomorphic(tilts[1], qh_a3.projectives[2]) is not None
    for t in tilts:
        assert qh_a3.in_f_delta(t) and qh_a3.in_f_nabla(t)


def test_tilting_sequences(qh_a3):
    # 0 -> Delta(l) -> T(l) -> X(l) -> 0 with X(l) filtered by lower standards
    for lam, (delta_map, coker) in enumerate(qh_a3.tilting_sequences()):
        assert delta_map.is_injective()
        mults = qh_a3.delta_multiplicities(coker)
        for mu, mult in enumerate(mults):
            if mult:
                assert qh_a3.poset.lt(mu, lam)
    # second defining sequence: the unique map T(l) -> Nabla(l) is onto with
    # kernel filtered by lower costandards
    for lam, t in enumerate(qh_a3.tiltings()):
        maps = hom_space(t, qh_a3.costandard(lam)).maps
        assert len(maps) == 1
        assert maps[0].is_surjective()
        y, _ = maps[0].kernel_submodule()
        assert qh_a3.in_f_nabla(y)
        nmults = qh_a3.nabla_multiplicities(y)
        for mu, mult in enumerate(nmults):
            if mult:
                assert qh_a3.poset.lt(mu, lam)


def test_ringel_dual_a2(qh_a2):
    rd = ringel_dual(qh_a2)
    assert rd.algebra.dim == 5
    assert rd.report.passed
    assert [s.dim for s in rd.structure.standards] == rd.standard_dims_via_hom


def test_ringel_double_dual_a3(qh_a3):
    rd = ringel_dual(qh_a3)
    assert rd.report.passed
    rdd = ringel_dual(rd.structure)
    assert rdd.report.passed
    # Morita invariants: same dimension, same multiset of standard dims
    assert rdd.algebra.dim == qh_a3.algebra.dim
    assert sorted(s.dim for s in rdd.structure.standards) == sorted(
        s.dim for s in qh_a3.standards
    )


def test_split_heredity_chain_exhaustion(qh_a3):
    qh = qh_a3
    dims = [qh.algebra.dim]
    while qh.label_count() > 0:
        maxes = qh.poset.maximal_indices()
        quot, proj, qh = split_heredity_quotient(qh, maxes[0])
        dims.append(quot.dim)
    assert dims[-1] == 0
    assert all(dims[i] > dims[i + 1] for i in range(len(dims) - 1))


def test_split_heredity_quotient_a2(qh_a2):
    quot, proj, sub = split_heredity_quotient(qh_a2, 0)
    # J = A e_1 A has dim 4 = dim Delta(1) * dim Nabla(1); quotient is 1-dim
    assert quot.dim == 1
    assert sub.standards[0].dim == 1


def test_non_maximal_label_rejected(qh_a2):
    with pytest.raises(QHError, match="maximal"):
        split_heredity_quotient(qh_a2, 1)


def test_qh_over_qq():
    a = make_am_algebra(2, QQ)
    report, qh = verify_split_qh(a, am_poset(a, 2))
    assert report.passed
    assert [t.dim for t in qh.tiltings()] == [3, 1]


def test_characteristic_tilting_axioms(qh_a3):
    # T has no self-extensions and finite projective dimension, and the
    # regular module has a finite add(T)-coresolution (via the chain method)
    from qhcover.homology import ext_dim, projective_dimension
    from qhcover.modules import dual, regular_module
    from qhcover.reldim import codomdim_chain

    t = qh_a3.characteristic_tilting()
    for i in (1, 2, 3):
        assert ext_dim(t, t, i) == 0
    pd = projective_dimension(t, cap=8)
    assert pd.kind == "exact"
    v, _ = codomdim_chain(dual(t), dual(regular_module(qh_a3.algebra)), 8)
    assert v.is_infinite()


def test_schur_23_tilting_axioms():
    from qhcover.fields import GF
    from qhcover.gallery import build_schur
    from qhcover.homology import ext_dim

    s = build_schur(2, 3, 1, GF(3))
    qh = s.qh()
    t = qh.characteristic_tilting()
    for i in (1, 2):
        assert ext_dim(t, t, i) == 0
    # V^(tensor 3) lies in add(T): its indecomposable summands are tiltings
    from qhcover.modules import indecomposable_summands, is_isomorphic

    parts = qh.tiltings()
    for summand, _, _ in indecomposable_summands(s.tensor_module):
        assert any(summand.dim == p.dim and is_isomorphic(summand, p) is not None for p in parts)


def _schur_23_structure():
    from qhcover.gallery import build_schur

    return build_schur(2, 3, 1, F3).qh()


@pytest.mark.parametrize(
    "build",
    [
        lambda: _am_structure(2, F3),
        lambda: _am_structure(3, F3),
        lambda: _am_structure(2, QQ),
        lambda: _am_structure(3, QQ),
        _schur_23_structure,
    ],
    ids=["A2-GF3", "A3-GF3", "A2-QQ", "A3-QQ", "S23-GF3"],
)
def test_tiltings_do_not_rename_standards(build):
    # T(l) = Delta(l) when no extension runs (l minimal); T(l) must still
    # be an object of its own, so naming it leaves Delta(l) alone
    qh = build()
    tilts = qh.tiltings()
    for lam, label in enumerate(qh.poset.labels):
        assert qh.standards[lam].name == f"Delta({label})"
        assert tilts[lam].name == f"T({label})"
        assert tilts[lam] is not qh.standards[lam]


def test_universal_extension_kills_ext1(qh_a3):
    # 0 -> x -> x' -> Delta(mu)^e -> 0 is universal iff its connecting map
    # hits all of Ext^1(Delta(mu), x), and then Ext^1(Delta(mu), x') = 0 as
    # Ext^1(Delta(mu), Delta(mu)) = 0; on x with a projective summand the
    # restriction from Hom(P0, x) is nonzero, so the chosen cocycles must
    # avoid its image
    from qhcover.homology import ext_dim
    from qhcover.linalg import Mat
    from qhcover.modules import direct_sum, induced_map_on_hom_into_q, projective_cover_data
    from qhcover.qh import _universal_extension

    qh = qh_a3
    labels = range(qh.label_count())
    mods = qh.projectives + qh.standards + [qh.costandard(l) for l in labels] + qh.tiltings()
    selective = 0
    for a in mods:
        for b in mods:
            x = direct_sum([a, b])[0]
            for mu in labels:
                e = ext_dim(qh.standards[mu], x, 1)
                if not e:
                    continue
                pres = projective_cover_data(qh.standards[mu])
                homs_k = hom_space(pres.syzygy[0], x)
                restriction = induced_map_on_hom_into_q(pres.syzygy[1], hom_space(pres.p0.module, x), homs_k)
                selective += homs_k.dim > e and restriction.rank() > 0
                x_new, _ = _universal_extension(qh, mu, x, Mat.identity(F3, x.dim), e)
                assert ext_dim(qh.standards[mu], x_new, 1) == 0
    assert selective


def test_qh_builds_projectives_without_the_regular_module(monkeypatch):
    # A e comes from the products of the basis with a basis of A e; the
    # n^3 left-regular action is never formed, for A or for A^op
    from qhcover.algebra import Algebra
    from qhcover.gallery import build_schur

    s = build_schur(3, 3, 1, GF(2))
    calls = []
    original = Algebra.left_regular_action
    monkeypatch.setattr(Algebra, "left_regular_action", lambda a: calls.append(a) or original(a))
    qh = s.qh()
    qh.opposite_structure()
    assert calls == []
    monkeypatch.undo()
    _assert_projectives_match_the_regular_module(qh)


@pytest.mark.parametrize(
    "build",
    [
        lambda: _am_structure(2, F3),
        lambda: _am_structure(3, QQ),
        lambda: _am_structure(4, QQ),
        lambda: _schur_structure(2, 2, GF(2)),
        _schur_23_structure,
    ],
    ids=["A2-GF3", "A3-QQ", "A4-QQ", "S22-GF2", "S23-GF3"],
)
def test_projectives_match_the_submodules_of_the_regular_module(build):
    qh = build()
    for s in (qh, qh.opposite_structure()):
        _assert_projectives_match_the_regular_module(s)


def _assert_projectives_match_the_regular_module(qh):
    # oracle: A e as the invariant subspace of the left-regular module
    from qhcover.linalg import Subspace
    from qhcover.modules import regular_module, submodule

    a = qh.algebra
    reg = regular_module(a)
    for e, proj, incl in zip(qh.poset.idempotents, qh.projectives, qh.proj_incls):
        want, want_incl = submodule(reg, Subspace.from_columns(a.right_mult_matrix(e)))
        assert proj.action == want.action and incl == want_incl.matrix


def _schur_structure(n, d, field):
    from qhcover.gallery import build_schur

    return build_schur(n, d, 1, field).qh()
