"""Gallery constructors against the worked examples and combinatorial oracles."""

import time
from math import comb

import numpy as np
import pytest

from qhcover import gallery as G
from qhcover.algebra import centralizer_algebra
from qhcover.fields import GF, QQ
from qhcover.gallery import (
    GalleryError,
    build_am,
    build_hecke,
    build_schur,
    build_tensor_space,
    dominates,
    hecke_element_is_in_kernel,
    partitions_at_most,
    permutations_of,
    schur_truncation_iso,
    schur_weyl_map,
    truncation_idempotent,
    weight_of,
)
from qhcover.linalg import Mat
from qhcover.modules import is_isomorphic, top
from qhcover.reldim import classical_domdim, relative_domdim
from qhcover.serialize import algebra_to_json

from conftest import build_hecke_reference, build_schur_reference, inversions, tensor_action_reference

F2, F3 = GF(2), GF(3)


# -- zigzag algebras ---------------------------------------------------------


def test_build_a1_is_field():
    g = build_am(1, F3)
    assert g.algebra.dim == 1


def test_build_a2():
    g = build_am(2, F3)
    assert g.algebra.dim == 5
    v, _ = classical_domdim(g.algebra, 8)
    assert str(v.value) == "Exact(2)"


def test_build_a3_tilting_list():
    g = build_am(3, F3)
    assert g.algebra.dim == 9
    tilts = g.qh.tiltings()
    assert is_isomorphic(tilts[0], g.qh.projectives[1]) is not None  # T(1) = P(2)
    assert is_isomorphic(tilts[1], g.qh.projectives[2]) is not None  # T(2) = P(3)
    assert tilts[2].dim == 1  # T(3) = S(3)


# -- Hecke algebras -----------------------------------------------------------


def test_hecke_d1():
    h = build_hecke(1, 1, F3)
    assert h.algebra.dim == 1


def test_hecke_d2_gf3_semisimple():
    h = build_hecke(2, 1, F3)
    assert h.algebra.dim == 2
    assert h.algebra.radical_subspace().dim == 0  # Maschke: 2 invertible mod 3


def test_hecke_d3_gf3_radical():
    h = build_hecke(3, 1, F3)
    assert h.algebra.radical_subspace().dim == 4


def test_hecke_base_change_group_algebra():
    # u = 1 over QQ: structure constants are permutation products
    h = build_hecke(3, 1, QQ)
    for i, p in enumerate(h.perms):
        for j, q in enumerate(h.perms):
            k = h.index[tuple(p[q[x]] for x in range(len(p)))]  # (p q)(x) = p(q(x))
            for t in range(len(h.perms)):
                assert h.algebra.mult[i][j][t] == (1 if t == k else 0)


def test_hecke_quadratic_relation_generic_u():
    # over QQ with u = 2: T_s^2 = (u - u^{-1}) T_s + 1
    h = build_hecke(2, 2, QQ)
    s = h.element_of_permutation((1, 0))
    lhs = h.algebra.multiply(s, s)
    from fractions import Fraction

    coeff = Fraction(2) - Fraction(1, 2)
    rhs = s.scale(coeff) + h.algebra.one
    assert lhs == rhs


def test_hecke_zero_u_rejected():
    with pytest.raises(GalleryError, match="invertible"):
        build_hecke(2, 0, F3)


def _hecke_inputs():
    """(d, u, field) for d <= 5 over QQ, GF(2), GF(3), GF(5), at each u in
    {1, 2, 1/2, 3} that is invertible there."""
    for field in (QQ, F2, F3, GF(5)):
        units = [u for u in (1, 2, "1/2", 3) if field is QQ or (u == "1/2" and field.p != 2) or (u != "1/2" and u % field.p)]
        for d in range(1, 6):
            for u in units:
                yield pytest.param(d, u, field, id=f"H{d}-u{u}-{field}")


@pytest.mark.parametrize("d, u, field", _hecke_inputs())
def test_hecke_matches_the_reduced_word_reference(d, u, field):
    assert algebra_to_json(build_hecke(d, u, field).algebra) == algebra_to_json(build_hecke_reference(d, u, field))


@pytest.mark.parametrize("u", [1, 2])
@pytest.mark.parametrize("n, d", [(2, 3), (3, 3), (2, 4), (3, 4), (2, 5)])
def test_tensor_space_action_matches_the_reduced_word_reference(n, d, u):
    f = GF(5)  # u - u^-1 = 4 at u = 2; over GF(3) it would be 0
    assert build_tensor_space(n, d, u, f).module.flat_action() == tensor_action_reference(n, d, u, f)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_each_parent_has_one_inversion_fewer_at_a_smaller_index(d):
    perms = permutations_of(d)
    parents = G._parents(perms)
    assert len(parents) == len(perms) - 1
    for j, (p, t) in enumerate(parents, 1):
        sigma = perms[j]
        assert p < j and sigma[t] > sigma[t + 1] and all(sigma[s] < sigma[s + 1] for s in range(t))
        assert perms[p] == (*sigma[:t], sigma[t + 1], sigma[t], *sigma[t + 2 :])
        assert inversions(perms[p]) == inversions(sigma) - 1


def test_tensor_space_action_guard_acts_before_the_build(monkeypatch):
    # (4, 6) passes the tensor dimension guard, but its 720 dense 4096 x 4096
    # matrices would take 97 GB
    def no_build(*args):
        raise AssertionError("built before the guard")

    monkeypatch.setattr(G, "permutations_of", no_build)
    start = time.perf_counter()
    for n, d in [(4, 6), (8, 4)]:
        with pytest.raises(GalleryError, match="tensor space action size .* exceeds the guard 33554432"):
            build_tensor_space(n, d, 1, F3)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n, d, message", [(-1, 2, "n must be at least 1"), (2, 0, "d must be at least 1")])
def test_tensor_space_sizes_below_one_are_rejected(n, d, message):
    # the CLI tests reach the checks of build_am, build_hecke and build_schur
    with pytest.raises(GalleryError, match=message):
        build_tensor_space(n, d, 1, F3)


# -- tensor space --------------------------------------------------------------


def test_tensor_space_d1():
    ts = build_tensor_space(3, 1, 1, F3)
    assert ts.module.dim == 3
    ts.module.validate()


def test_tensor_space_place_permutation_at_u1():
    ts = build_tensor_space(2, 2, 1, F3)
    swap = ts.simple_action[0]
    # u = 1: plain place permutation, fixes e_00 and e_11, swaps e_01, e_10
    assert swap @ swap == Mat.identity(F3, 4)
    assert swap[0, 0] == 1 and swap[3, 3] == 1 and swap[1, 2] == 1 and swap[2, 1] == 1


def test_tensor_space_braid_and_quadratic_relations():
    from qhcover.fields import GF

    f = GF(5)
    u = 2  # generic-ish: q = u^{-2}
    ts = build_tensor_space(2, 3, u, f)
    s1, s2 = ts.simple_action
    coeff = f.add(f.normalize(u), f.neg(f.inv(f.normalize(u))))
    for s in (s1, s2):
        assert s @ s == s.scale(coeff) + Mat.identity(f, ts.module.dim)
    assert s1 @ (s2 @ s1) == s2 @ (s1 @ s2)
    ts.module.validate()


# -- Schur algebras ---------------------------------------------------------------


def test_schur_22_gf3_semisimple():
    s = build_schur(2, 2, 1, F3)
    assert s.algebra.dim == 10
    assert s.algebra.radical_subspace().dim == 0


def test_schur_22_gf2_domdim():
    s = build_schur(2, 2, 1, F2)
    v, _ = classical_domdim(s.algebra, 8)
    assert str(v.value) == "Exact(2)"


def test_matrix_outside_the_schur_algebra_is_rejected():
    # E_11 on the word (0, 1) does not commute with the swap, which moves
    # (0, 1) to (1, 0): its entries at the frame are no coordinates
    from qhcover.gallery import _matrix_to_algebra_coords

    s = build_schur(2, 2, 1, F3)
    with pytest.raises(GalleryError, match="does not lie in the Schur algebra"):
        _matrix_to_algebra_coords(s, Mat.from_entries(F3, 4, 4, {(1, 1): 1}))
    xi = s.weight_idempotent((1, 1))  # E_11 + E_22 does commute
    assert s.tensor_module.act(xi) == Mat.from_entries(F3, 4, 4, {(1, 1): 1, (2, 2): 1})


def test_schur_dimension_formula():
    for (n, d, p) in [(2, 2, 3), (2, 3, 3), (3, 2, 2)]:
        s = build_schur(n, d, 1, GF(p))
        assert s.algebra.dim == comb(n * n + d - 1, d)


# every size the reference builds in a few seconds; S(3, 4) takes it 11 s
_REFERENCE_SIZES = [(1, 1), (1, 3), (2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (4, 2), (5, 2)]


@pytest.mark.parametrize("field", [QQ, F2, F3, GF(5)], ids=["QQ", "GF2", "GF3", "GF5"])
@pytest.mark.parametrize("n, d", _REFERENCE_SIZES, ids=[f"S({n},{d})" for n, d in _REFERENCE_SIZES])
def test_schur_orbit_sums_match_the_centralizer_reference(n, d, field):
    # the orbit sums ordered by their last positions are the echelon kernel
    # of the commutation equations: the same rep, frame and constants
    alg, (g, rows, cols) = build_schur_reference(n, d, 1, field)
    s = build_schur(n, d, 1, field)
    assert s.algebra.rep_action() == alg.rep_action()
    assert (s.frame[0], list(s.frame[1]), list(s.frame[2])) == (g, list(rows), list(cols))
    assert algebra_to_json(s.algebra) == algebra_to_json(alg)


def test_schur_away_from_u1_solves_the_commutation_equations(monkeypatch):
    # at u = 2 there are no orbit sums: the equations of the T_{s_t} are solved
    solved = []

    def centralizer(gens):
        solved.append(len(gens))
        return centralizer_algebra(gens)

    def no_orbits(words):
        raise AssertionError("labelled orbits away from u = 1")

    monkeypatch.setattr(G, "centralizer_algebra", centralizer)
    monkeypatch.setattr(G, "_orbit_labels", no_orbits)
    s = build_schur(2, 3, 2, QQ)
    assert solved == [2]
    alg, frame = build_schur_reference(2, 3, 2, QQ)
    assert s.algebra.rep_action() == alg.rep_action() and s.frame == frame
    assert algebra_to_json(s.algebra) == algebra_to_json(alg)


def test_schur_builds_the_hecke_algebra_only_when_read(monkeypatch):
    def no_build(*args):
        raise AssertionError("built H(d) or solved the commutation equations")

    with monkeypatch.context() as patched:
        patched.setattr(G, "build_hecke", no_build)
        patched.setattr(G, "centralizer_algebra", no_build)
        big, small = build_schur(2, 2, 1, F3), build_schur(1, 2, 1, F3)
        assert schur_truncation_iso(big, small).is_isomorphism()
        assert big.poset().labels == ["(2, 0)", "(1, 1)"]
    assert "_tensor" not in vars(big)
    assert big.tensor.words == big.words and big.hecke.algebra.dim == 2
    assert big.tensor is big.tensor


def _split_orbit(labels):
    # the pair of words (0, 1) leaves its orbit: its xi no longer commutes
    return labels[:1] + [1] + labels[2:]


def _merge_orbits(labels):
    # the orbit of the pair (0, 0) joins that of the last pair
    return [labels[-1] if f == labels[0] else f for f in labels]


@pytest.mark.parametrize(
    "wrong, message",
    [(_split_orbit, "does not commute with the place permutations"), (_merge_orbits, "Schur dimension 9 != orbit count 10")],
    ids=["split", "merge"],
)
def test_schur_rejects_a_wrong_orbit_labelling(monkeypatch, wrong, message):
    labels = G._orbit_labels
    monkeypatch.setattr(G, "_orbit_labels", lambda words: wrong(labels(words)))
    with pytest.raises(GalleryError, match=message):
        build_schur(2, 2, 1, F3)


def _not_a_permutation(g):
    # a 0/1 matrix with one entry in each row, all in column 0
    return Mat.from_entries(g.field, g.rows, g.cols, {(r, 0): 1 for r in range(g.rows)})


@pytest.mark.parametrize("wrong", [lambda g: g.scale(2), _not_a_permutation], ids=["entries-2", "all-in-column-0"])
def test_schur_rejects_a_place_permutation_that_is_not_a_permutation_matrix(monkeypatch, wrong):
    # the labels are read through a permutation of the words, which each
    # u = 1 T_(s_t) must be
    simple_action = G._simple_action
    monkeypatch.setattr(G, "_simple_action", lambda words, u, field: [wrong(g) for g in simple_action(words, u, field)])
    with pytest.raises(GalleryError, match="not a permutation matrix"):
        build_schur(2, 2, 1, F3)


@pytest.mark.parametrize("u, field", [(1, QQ), (2, GF(5))], ids=["orbit-sums", "equations"])
def test_schur_product_guard_admits_s33_at_its_weight_matched_pairs(monkeypatch, u, field):
    # S(3, 3) has 2,973 pairs of basis elements of matching weights, and
    # 165 coordinates for each: the guard admits it at exactly 165 * 2,973
    # entries and refuses it one below, before any build
    monkeypatch.setattr(G, "MAX_SCHUR_PRODUCT_ENTRIES", 165 * 2973)
    assert G._check_schur_size(3, 3) == 165
    s = build_schur(3, 3, u, field)
    if u == 1:
        # the orbit sums have nonnegative integer constants, so over QQ every
        # weight-matched pair has a nonzero product
        t = s.algebra.triples
        assert np.unique(t.i * 165 + t.j).size == 2973
    monkeypatch.setattr(G, "MAX_SCHUR_PRODUCT_ENTRIES", 165 * 2973 - 1)
    monkeypatch.setattr(G, "_orbit_labels", lambda words: pytest.fail("built past the guard"))
    monkeypatch.setattr(G, "centralizer_algebra", lambda gens: pytest.fail("built past the guard"))
    with pytest.raises(GalleryError, match="Schur product table size 490545 exceeds the guard 490544"):
        build_schur(3, 3, u, field)


def test_schur_qh_verifies():
    s = build_schur(2, 3, 1, F3)
    qh = s.qh()
    assert qh.verification.passed


def test_weight_idempotents_sum_to_one():
    s = build_schur(2, 3, 1, F3)
    total = s.algebra.zero_element()
    for lam in s.weights:
        xi = s.weight_idempotent(lam)
        assert s.algebra.multiply(xi, xi) == xi
        total = total + xi
    assert total == s.algebra.one
    # pairwise orthogonal
    for lam in s.weights:
        for mu in s.weights:
            if lam != mu:
                prod = s.algebra.multiply(s.weight_idempotent(lam), s.weight_idempotent(mu))
                assert prod.is_zero()


def test_weight_space_dims_of_standards():
    # xi_lambda Delta(mu): the highest-weight space at lambda = mu is a line
    s = build_schur(2, 3, 1, F3)
    qh = s.qh()
    for i, lam in enumerate(s.partitions):
        lab = str(lam)
        idx = qh.poset.labels.index(lab)
        delta = qh.standards[idx]
        xi = s.weight_idempotent(lam)
        mat = delta.act(xi)
        assert mat.rank() == 1
    # oracle: weight-space dimension of Delta((3,0)) = S^3(V) at weight (2,1)
    delta_top = qh.standards[qh.poset.labels.index(str((3, 0)))]
    xi21 = s.weight_idempotent((2, 1))
    assert delta_top.act(xi21).rank() == 1  # monomial x^2 y


def test_relative_domdim_bound_for_small_n():
    # V-domdim T >= inf{s : 1 + q + ... + q^s not invertible, s < d}
    s = build_schur(2, 3, 1, F3)
    qh = s.qh()
    t = qh.characteristic_tilting()
    v = relative_domdim(s.tensor_module, t, 8).value
    assert v.at_least_value() >= 2  # inf at s = 2 over GF(3)


def test_truncation_idempotent_small():
    s = build_schur(2, 2, 1, F3)
    f = truncation_idempotent(s, 1)
    assert s.algebra.multiply(f, f) == f
    from qhcover.algebra import corner_algebra

    corner, _ = corner_algebra(s.algebra, f)
    assert corner.dim == comb(1 + 2 - 1, 2)  # S(1,2) is 1-dimensional


# -- Schur-Weyl ---------------------------------------------------------------------


def test_schur_weyl_bijective_n_geq_d():
    s = build_schur(2, 2, 1, F3)
    data = schur_weyl_map(s)
    assert data.surjective and data.injective


def test_schur_weyl_kernel_n2_d3_char3():
    s = build_schur(2, 3, 1, F3)
    data = schur_weyl_map(s)
    assert data.surjective and not data.injective
    # the sign-alternating sum of all six permutations acts as zero
    coeffs = {}
    for sigma in permutations_of(3):
        inv = sum(1 for i in range(3) for j in range(i + 1, 3) if sigma[i] > sigma[j])
        coeffs[sigma] = 1 if inv % 2 == 0 else -1
    assert hecke_element_is_in_kernel(s, coeffs)
    # a^2 = 0 in the group algebra
    h = s.hecke
    a = h.algebra.zero_element()
    for sigma, c in coeffs.items():
        a = a + h.element_of_permutation(sigma).scale(F3.normalize(c))
    assert h.algebra.multiply(a, a).is_zero()


def test_dominance_order():
    assert dominates((3, 0), (2, 1)) and not dominates((2, 1), (3, 0))
    assert partitions_at_most(2, 3) == [(3, 0), (2, 1)]
    assert weight_of((0, 1, 0), 2) == (2, 1)


def test_q_schur_generic_parameter():
    # u = 2 over GF(5): q = u^-2 = 4 = -1, which is not generic: 1 + q = 0,
    # so l = 2 and domdim S_q(2, 2) = 2(l - 1) = 2.  The q-Schur algebra is
    # still split quasi-hereditary.
    s = build_schur(2, 2, "2", GF(5))
    assert s.algebra.dim == 10
    assert s.qh().verification.passed
    assert str(classical_domdim(s.algebra, 8)[0].value) == "Exact(2)"


# Fang and Koenig (Trans. AMS 363, 2011): for n >= d, domdim S_q(n, d) =
# 2(l - 1), with q = u^-2 and l the least integer with 1 + q + ... +
# q^(l-1) = 0 in the field (l = p at q = 1); it is infinite (S_q(n, d)
# semisimple) when l > d.
@pytest.mark.parametrize(
    "n, d, u, p, want",
    [
        (2, 2, "2", 5, "Exact(2)"),  # q = 4 = -1: l = 2
        (3, 2, "2", 5, "Exact(2)"),
        (2, 2, "3", 7, "Infinite"),  # q = 1/9 = 4: 1 + 4 + 16 = 21, l = 3 > d
        (2, 2, "1", 2, "Exact(2)"),  # q = 1: l = p = 2
        (3, 2, "1", 3, "Infinite"),  # l = p = 3 > d
        (3, 3, "2", 7, "Exact(4)"),  # q = 1/4 = 2: 1 + 2 + 4 = 7, l = 3; chain layers 0-2
    ],
)
def test_q_schur_dominant_dimension_is_fang_koenig(n, d, u, p, want):
    s = build_schur(n, d, u, GF(p))
    assert str(classical_domdim(s.algebra, 8)[0].value) == want


# classical_domdim of one Z-form over QQ and GF(p), as computed: the zigzag
# algebra A_3 has domdim 4 over every field; the Schur algebras S(2, d) are
# semisimple over QQ and over GF(p) for p > d, and S(2, p) has domdim 2.
_CHANGE_OF_RINGS = {
    "A3": (lambda f: build_am(3, f).algebra, {"QQ": "Exact(4)", "GF2": "Exact(4)", "GF3": "Exact(4)", "GF5": "Exact(4)"}),
    "S(2,2)": (lambda f: build_schur(2, 2, 1, f).algebra, {"QQ": "Infinite", "GF2": "Exact(2)", "GF3": "Infinite", "GF5": "Infinite"}),
    "S(2,3)": (lambda f: build_schur(2, 3, 1, f).algebra, {"QQ": "Infinite", "GF2": "Infinite", "GF3": "Exact(2)", "GF5": "Infinite"}),
}


@pytest.mark.parametrize("name", list(_CHANGE_OF_RINGS))
def test_domdim_across_fields(name):
    build, want = _CHANGE_OF_RINGS[name]
    fields = {"QQ": QQ, "GF2": GF(2), "GF3": GF(3), "GF5": GF(5)}
    algebras = {key: build(f) for key, f in fields.items()}
    assert {key: str(classical_domdim(a, 8)[0].value) for key, a in algebras.items()} == want
    # the radical can only grow under reduction mod p (semicontinuity)
    rad_qq = algebras["QQ"].radical_subspace().dim
    assert all(a.radical_subspace().dim >= rad_qq for a in algebras.values())


def test_hecke_u_string_parse():
    from fractions import Fraction

    h = build_hecke(2, "1/2", QQ)
    assert h.q == Fraction(4)  # q = u^{-2}
