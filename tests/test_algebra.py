"""Algebra construction and structural analysis, checked against oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhcover.algebra import (
    Algebra,
    AlgebraError,
    _batched_matrix_power_mod,
    centralizer_algebra,
    corner_algebra,
    direct_product,
    from_structure_constants,
    opposite,
    semisimple_quotient,
)
from qhcover.fields import GF, QQ
from qhcover.gallery import build_am, build_schur
from qhcover.linalg import Mat, Subspace
from qhcover.quiver import Arrow, QuiverPresentation, arrow_ideal_dimension, from_quiver

F2, F3 = GF(2), GF(3)


def field_algebra(field):
    return from_structure_constants(field, 1, [[[1]]], [1])


def matrix_algebra(field, s):
    """M_s(field) on the basis E_11, E_12, ..., E_ss (row-major)."""
    n = s * s
    mult = np.zeros((n, n, n), dtype=np.int64)
    for i, j, k, l in itertools.product(range(s), repeat=4):
        if j == k:
            mult[i * s + j][k * s + l][i * s + l] = 1
    one = [1 if (b // s == b % s) else 0 for b in range(n)]
    if field.kind == "prime":
        return from_structure_constants(field, n, mult, one)
    return from_structure_constants(field, n, mult.tolist(), one)


def group_algebra_s3(field):
    """GF(p)S_3 on the basis of the six permutations."""
    perms = list(itertools.permutations(range(3)))
    idx = {p: i for i, p in enumerate(perms)}
    n = 6
    mult = np.zeros((n, n, n), dtype=np.int64)
    for p in perms:
        for q in perms:
            comp = tuple(p[q[i]] for i in range(3))
            mult[idx[p]][idx[q]][idx[comp]] = 1
    one = [0] * 6
    one[idx[(0, 1, 2)]] = 1
    return from_structure_constants(field, n, mult, one)


def a2_quiver(field):
    q = QuiverPresentation(
        n_vertices=2,
        arrows=[Arrow("a1", 0, 1), Arrow("b1", 1, 0)],
        relations=[[(1, (1, 0))]],  # b1 o a1 = 0
    )
    return from_quiver(q, field)


def brute_force_radical_dim(a):
    """Oracle: span of all elements generating a nilpotent two-sided ideal.

    Only usable for small algebras over small prime fields.
    """
    p = a.field.p
    n = a.dim
    nilgens = []
    for coeffs in itertools.product(range(p), repeat=n):
        if not any(coeffs):
            continue
        x = Mat.column(a.field, list(coeffs))
        ideal = _two_sided_ideal(a, x)
        if _is_nilpotent_space(a, ideal):
            nilgens.append(list(coeffs))
    if not nilgens:
        return 0
    return Mat(a.field, nilgens, cols=n).rank()


def _two_sided_ideal(a, x):
    span = Subspace(a.field, a.dim, x.transpose())
    while True:
        cols = span.basis.transpose()
        every = Mat.identity(a.field, a.dim)
        prods = Mat.hstack([
            a.multiply_batches(every, cols),
            a.multiply_batches(cols, every),
        ])
        newspan = Subspace(a.field, a.dim, Mat.vstack([span.basis, prods.transpose()]))
        if newspan.dim == span.dim:
            return span
        span = newspan


def _is_nilpotent_space(a, span):
    current = span
    for _ in range(a.dim + 1):
        if current.dim == 0:
            return True
        prods = a.multiply_batches(current.basis.transpose(), span.basis.transpose())
        current = Subspace(a.field, a.dim, prods.transpose())
    return current.dim == 0


# -- from_structure_constants -------------------------------------------------


def test_one_dimensional_algebra():
    a = field_algebra(F3)
    assert a.dim == 1 and a.multiply(a.one, a.one) == a.one


def test_matrix_algebra_valid():
    a = matrix_algebra(F3, 2)
    assert a.dim == 4
    a.validate_associativity()


def test_forced_associativity_failure():
    # b1 b1 = b2, b1 b2 = b0, b2 b1 = 0: then (b1 b1) b1 = 0 but b1 (b1 b1) = b0.
    mult = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        mult[0][i][i] = 1
        mult[i][0][i] = 1
    mult[1][1][2] = 1
    mult[1][2][0] = 1
    with pytest.raises(AlgebraError, match="associativity"):
        from_structure_constants(F3, 3, mult, [1, 0, 0])


# -- quiver algebras -----------------------------------------------------------


def test_a2_quiver_dimension_and_basis():
    # Oracle: paths of length <= 3 modulo b1 a1 = 0 leave e1, e2, a1, b1, a1 b1.
    a = a2_quiver(F3)
    assert a.dim == 5
    degrees = a.quiver_data["basis_degrees"]
    assert degrees == [0, 0, 1, 1, 2]


def test_a3_quiver_dimension():
    q = QuiverPresentation(
        n_vertices=3,
        arrows=[Arrow("a1", 0, 1), Arrow("a2", 1, 2), Arrow("b1", 1, 0), Arrow("b2", 2, 1)],
        relations=[
            [(1, (1, 0))],  # a2 a1 = 0
            [(1, (2, 3))],  # b1 b2 = 0
            [(1, (2, 0))],  # b1 a1 = 0
            [(1, (3, 1)), (-1, (0, 2))],  # b2 a2 = a1 b1
        ],
    )
    a = from_quiver(q, F3)
    assert a.dim == 9


def test_loop_quiver_infinite():
    q = QuiverPresentation(n_vertices=1, arrows=[Arrow("x", 0, 0)], relations=[])
    with pytest.raises(AlgebraError, match="not finite-dimensional"):
        from_quiver(q, F3, degree_cap=16)


def test_quiver_radical_equals_arrow_ideal():
    a = a2_quiver(F3)
    assert a.radical_subspace().dim == arrow_ideal_dimension(a) == 3


# -- opposite, product ----------------------------------------------------------


def test_opposite_involution():
    a = a2_quiver(F3)
    opp = opposite(a)
    assert opposite(opp) is a
    if a.field.kind == "prime":
        assert np.array_equal(np.transpose(a.mult, (1, 0, 2)), opp.mult)


def test_opposite_commutative_equal():
    a = field_algebra(QQ)
    assert opposite(a).mult == a.mult


def test_direct_product_dims():
    a = a2_quiver(F3)
    b = field_algebra(F3)
    prod = direct_product(a, b)
    assert prod.dim == 6
    prod.validate_unit()
    prod.validate_associativity()


# -- radical --------------------------------------------------------------------


def _power_mod_reference(z, e, mod):
    """z^e mod ``mod`` by square-and-multiply on Python ints."""
    m = len(z)

    def mul(x, y):
        return [[sum(x[i][k] * y[k][j] for k in range(m)) % mod for j in range(m)] for i in range(m)]

    result = [[int(i == j) for j in range(m)] for i in range(m)]
    base = [[int(x) for x in row] for row in z]
    while e:
        if e & 1:
            result = mul(result, base)
        base = mul(base, base)
        e >>= 1
    return result


@pytest.mark.parametrize("p", [3, 1009, 1048573])
def test_p_power_chain_products_are_exact(p):
    # layer 1 of the radical chain works modulo p^2; at the largest allowed
    # prime, 3 * (p^2 - 1)^2 exceeds 2^63, so int64 products would wrap
    mod = p * p
    zs = np.random.default_rng(p).integers(0, mod, size=(3, 3, 3))
    got = _batched_matrix_power_mod(zs, p, mod)
    for z, g in zip(zs, got):
        assert [[int(x) for x in row] for row in g] == _power_mod_reference(z, p, mod)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_p_power_trace_depends_on_residue_only(p):
    # the radical chain powers the pairs a <= b only: tr(z^(p^l)) mod p^(l+1)
    # is the same for any lift of z mod p, hence for XY and YX reduced mod p
    rng = np.random.default_rng(p)
    for layer, m in ((1, 4), (2, 3)):
        mod, e = p ** (layer + 1), p**layer
        x, y, lift = (rng.integers(0, bound, size=(20, m, m)) for bound in (p, p, mod))

        def traces(z):
            return np.trace(_batched_matrix_power_mod(z, e, mod), axis1=1, axis2=2) % mod

        xy = np.matmul(x, y) % p
        assert (traces(xy) == traces(np.matmul(y, x) % p)).all()
        assert (traces(xy) == traces((xy + p * lift) % mod)).all()


def test_radical_semisimple_matrix_algebra():
    assert matrix_algebra(F3, 2).radical_subspace().dim == 0


def test_radical_a2_gf3():
    a = a2_quiver(F3)
    assert a.radical_subspace().dim == 3
    assert brute_force_radical_dim(a) == 3


def test_radical_gf3_s3():
    a = group_algebra_s3(F3)
    assert a.radical_subspace().dim == 4
    assert brute_force_radical_dim(a) == 4


def test_radical_gf2_s2():
    # GF(2)S_2 = GF(2)[x]/(x^2-1): radical is spanned by 1 + x.
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0][0][0] = mult[0][1][1] = mult[1][0][1] = mult[1][1][0] = 1
    a = from_structure_constants(F2, 2, mult, [1, 0])
    assert a.radical_subspace().dim == 1
    assert brute_force_radical_dim(a) == 1


def test_radical_gf3_s3_semisimple_quotient():
    a = group_algebra_s3(F3)
    q = semisimple_quotient(a)
    assert q.quotient.dim == 2
    assert q.quotient.radical_subspace().dim == 0


def test_radical_qq_group_algebra():
    a = group_algebra_s3(QQ)
    assert a.radical_subspace().dim == 0  # Maschke over QQ


def test_radical_qq_quiver():
    a = a2_quiver(QQ)
    assert a.radical_subspace().dim == 3


# -- primitive idempotents -------------------------------------------------------


def test_primitive_idempotents_field():
    a = field_algebra(F3)
    prim = a.primitive_idempotents()
    assert len(prim) == 1 and prim.idempotents[0] == a.one


def test_primitive_idempotents_a2():
    a = a2_quiver(F3)
    prim = a.primitive_idempotents()
    assert len(prim) == 2 and prim.n_blocks == 2
    total = a.zero_element()
    for e in prim.idempotents:
        assert a.multiply(e, e) == e
        total = total + e
    assert total == a.one


def test_primitive_idempotents_m2():
    a = matrix_algebra(F3, 2)
    prim = a.primitive_idempotents()
    assert len(prim) == 2 and prim.n_blocks == 1


def test_primitive_idempotents_gf3_s3():
    a = group_algebra_s3(F3)
    prim = a.primitive_idempotents()
    # GF(3)S_3 has two simple blocks (trivial and sign), each appearing once
    assert prim.n_blocks == 2
    total = a.zero_element()
    for e in prim.idempotents:
        total = total + e
    assert total == a.one


def test_primitive_idempotents_qq_s3():
    a = group_algebra_s3(QQ)
    prim = a.primitive_idempotents()
    # QQ S_3 = QQ x QQ x M_2(QQ): 1 + 1 + 2 primitive idempotents, 3 blocks
    assert prim.n_blocks == 3
    assert len(prim) == 4


# -- corner algebras --------------------------------------------------------------


def test_corner_full_unit():
    a = a2_quiver(F3)
    corner, incl = corner_algebra(a, a.one)
    assert corner.dim == a.dim


def test_corner_vertex_a2():
    a = a2_quiver(F3)
    e1 = a.basis_element(0)  # vertex 1 idempotent
    corner, incl = corner_algebra(a, e1)
    assert corner.dim == 1  # e1 A e1 = span{e1}


def test_corner_non_idempotent_rejected():
    a = a2_quiver(F3)
    with pytest.raises(AlgebraError, match="idempotent"):
        corner_algebra(a, a.basis_element(2))


# -- centralizer algebras ----------------------------------------------------------


def test_centralizer_of_identity_is_full_matrix_algebra():
    ident = Mat.identity(F3, 2)
    alg, basis = centralizer_algebra([ident])
    assert alg.dim == 4
    alg.validate_associativity()
    alg.validate_unit()


def test_centralizer_of_swap_on_two_tensors():
    # S_2 place permutation on (GF(3)^2)^(x2): centralizer is S(2,2), dim 10.
    swap = np.zeros((4, 4), dtype=np.int64)
    for i in range(2):
        for j in range(2):
            swap[j * 2 + i][i * 2 + j] = 1
    alg, basis = centralizer_algebra([Mat(F3, swap)])
    assert alg.dim == 10
    # oracle: orbits of I(2,2) x I(2,2) under simultaneous swap
    pairs = list(itertools.product(range(4), repeat=2))

    def act(pair):
        i, j = pair
        sw = lambda x: (x % 2) * 2 + x // 2
        return (sw(i), sw(j))

    orbits = set()
    for pr in pairs:
        orbits.add(min(pr, act(pr)))
    assert len(orbits) == 10


def test_generators_small():
    a = group_algebra_s3(F3)
    gens = a.generator_indices()
    assert 1 <= len(gens) <= 3


@pytest.mark.parametrize("order", ["a-before-opposite", "a-after-opposite", "op-first"])
def test_opposite_pair_computes_radical_and_idempotents_once(monkeypatch, order):
    from qhcover import algebra

    calls = {"radical": [], "prim": []}
    for name, key in (("_radical_gfp_layers", "radical"), ("_primitive_idempotents", "prim")):
        original = getattr(algebra, name)

        def counting(a, original=original, key=key):
            calls[key].append(a)
            return original(a)

        monkeypatch.setattr(algebra, name, counting)
    a = a2_quiver(F3)
    if order == "a-before-opposite":
        first = (a.radical_subspace(), a.primitive_idempotents())
        opp = opposite(a)
        second = (opp.radical_subspace(), opp.primitive_idempotents())
    else:
        opp = opposite(a)
        x, y = (a, opp) if order == "a-after-opposite" else (opp, a)
        first = (x.radical_subspace(), x.primitive_idempotents())
        second = (y.radical_subspace(), y.primitive_idempotents())
    assert first[0] is second[0] and first[1] is second[1]
    for key in calls:
        assert len([b for b in calls[key] if b is a or b is opp]) == 1
    assert opposite(opposite(a)) is a and opposite(opposite(opp)) is opp


# -- sparse structure-constant products against a dense einsum -------------------


def _assert_products_match_dense(a, xs, ys):
    """left/right multiplication matrices and multiply_batches against einsum
    over the dense (n, n, n) constants, on Python ints."""
    p, c = a.field.p, a.mult.astype(object)
    x, y = xs.data.astype(object), ys.data.astype(object)
    n, r, s = a.dim, xs.cols, ys.cols
    for col in range(r):
        assert a.left_mult_matrix(xs.take_cols([col])).data.tolist() == (np.einsum("i,ijk->kj", x[:, col], c) % p).tolist()
    for col in range(s):
        assert a.right_mult_matrix(ys.take_cols([col])).data.tolist() == (np.einsum("j,ijk->ki", y[:, col], c) % p).tolist()
    for left, right in ((x, y), (y, x)):  # both contraction orders: r <= s and r > s
        want = np.einsum("ir,js,ijk->krs", left, right, c) % p
        got = a.multiply_batches(Mat(a.field, left), Mat(a.field, right))
        assert got.data.tolist() == want.reshape(n, left.shape[1] * right.shape[1]).tolist()


@st.composite
def _random_constants(draw):
    p = draw(st.sampled_from([2, 3, 1048573]))
    n = draw(st.integers(1, 5))
    cells = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), st.integers(0, n - 1), st.integers(1, p - 1))
    mult = np.zeros((n, n, n), dtype=np.int64)
    for i, j, k, v in draw(st.lists(cells, max_size=2 * n * n)):
        mult[i, j, k] = v
    coords = st.lists(st.integers(0, p - 1), min_size=n, max_size=n)
    xs = draw(st.lists(coords, min_size=1, max_size=3))
    ys = draw(st.lists(coords, min_size=1, max_size=4))
    return p, n, mult, xs, ys


@given(_random_constants())
@settings(max_examples=80, deadline=None)
def test_sparse_products_match_dense_on_random_constants(data):
    # associativity plays no part in the contraction, so any constants do
    p, n, mult, xs, ys = data
    field = GF(p)
    a = Algebra(field, n, Mat(field, mult.reshape(n * n, n)), Mat.column(field, [1] + [0] * (n - 1)))
    _assert_products_match_dense(a, Mat(field, np.array(xs).T), Mat(field, np.array(ys).T))


@pytest.mark.parametrize("p", [2, 3, 1048573])
@pytest.mark.parametrize("build", [lambda f: build_am(3, f).algebra, lambda f: build_schur(2, 2, 1, f).algebra], ids=["A3", "S22"])
def test_sparse_products_match_dense_on_gallery_algebras(build, p):
    a = build(GF(p))
    rng = np.random.default_rng(p)
    xs, ys = rng.integers(0, p, size=(a.dim, 2)), rng.integers(0, p, size=(a.dim, 5))
    _assert_products_match_dense(a, Mat(a.field, xs), Mat(a.field, ys))
