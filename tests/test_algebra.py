"""Algebra construction and structural analysis, checked against oracles."""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhcover import algebra as algebra_module
from qhcover import quiver
from qhcover.algebra import (
    Algebra,
    AlgebraError,
    _batched_matrix_power_mod,
    basic_algebra,
    central_primitive_idempotents,
    centralizer_algebra,
    corner_algebra,
    direct_product,
    from_structure_constants,
    opposite,
    semisimple_quotient,
)
from qhcover.fields import GF, QQ
from qhcover.gallery import build_am, build_hecke, build_schur
from qhcover.linalg import Mat, Subspace, Triples, matmul_mod, unstack
from qhcover.quiver import Arrow, QuiverPresentation, arrow_ideal_dimension, from_quiver
from qhcover.serialize import algebra_to_json

from conftest import algebra_of_matrices_naive, from_quiver_reference, make_am_algebra, stored_arrays

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
        from_quiver(q, F3)


def test_exploding_ideal_is_rejected_before_it_is_formed():
    # A_3 with a2 a1, b1 b2, b1 a1 and a1 b1 zero: the words in b2 a2 and
    # a2 b2 keep the quotient alive while the paths and the ideal rows grow
    # geometrically with the degree; unguarded, the dense ideal asked for
    # 1 GiB while the path count was far below its guard
    arrows = [Arrow("a1", 0, 1), Arrow("a2", 1, 2), Arrow("b1", 1, 0), Arrow("b2", 2, 1)]
    q = QuiverPresentation(3, arrows, [[(1, (1, 0))], [(1, (2, 3))], [(1, (2, 0))], [(1, (0, 2))]])
    start = time.perf_counter()
    with pytest.raises(AlgebraError, match="not finite-dimensional: ideal of degree 18 past 4194304 entries"):
        from_quiver(q, F3)
    assert time.perf_counter() - start < 1.0


@st.composite
def bound_quivers(draw):
    """At most 3 vertices and 3 arrows, and up to 3 relations, each a
    combination of distinct composable paths of one length (2 or 3) with
    common ends."""
    n = draw(st.integers(1, 3))
    ends = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    q = QuiverPresentation(n, [Arrow(f"x{i}", *draw(ends)) for i in range(draw(st.integers(0, 3)))])
    paths = [p for length in (2, 3) for p in itertools.product(range(len(q.arrows)), repeat=length) if q.path_composable(p)]
    for first in draw(st.lists(st.sampled_from(paths), max_size=3)) if paths else []:
        alike = [p for p in paths if len(p) == len(first) and (q.path_source(p), q.path_target(p)) == (q.path_source(first), q.path_target(first))]
        terms = draw(st.lists(st.sampled_from(alike), min_size=1, max_size=3, unique=True))
        q.relations.append([(draw(st.sampled_from(["1", "-1", "2", "1/5"])), p) for p in terms])
    return q


@given(q=bound_quivers(), field=st.sampled_from([QQ, F2, F3]))
@settings(max_examples=100, deadline=None)
def test_from_quiver_matches_reference(q, field):
    def outcome(build):
        try:
            a = build(q, field)
        except AlgebraError as e:
            return str(e)
        return algebra_to_json(a), a.quiver_data["basis_paths"], a.quiver_data["basis_degrees"]

    # at the cap of 64 an infinite quiver runs into the path-count guard
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(quiver, "DEGREE_CAP", 6)
        assert outcome(from_quiver) == outcome(from_quiver_reference)


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


# layer 1 of the radical chain works modulo p^2: on float64 while
# 3 (p^2 - 1)^2 < 2^51 (p = 3, 1009), on int64 while it is below 2^63
# (p = 20011), and on Python ints at the largest allowed prime
CHAIN_PRIMES = [3, 1009, 20011, 1048573]


@pytest.mark.parametrize("p", CHAIN_PRIMES)
def test_p_power_chain_products_are_exact(p):
    mod = p * p
    zs = np.random.default_rng(p).integers(0, mod, size=(3, 3, 3))
    got = _batched_matrix_power_mod(zs.astype(float), p, mod)  # the chain's float64 input
    for z, g in zip(zs, got):
        assert [[int(x) for x in row] for row in g] == _power_mod_reference(z, p, mod)


@pytest.mark.parametrize("p", CHAIN_PRIMES)
def test_gamma_traces_match_python_ints(p):
    # gamma_1(z) = tr(z^p) / p mod p, for z mod p of trace 0 (so that
    # tr(z^p) = tr(z)^p = 0 mod p), against square-and-multiply on Python ints
    rng = np.random.default_rng(p)
    zs = rng.integers(0, p, size=(4, 3, 3))
    zs[:, 2, 2] = -(zs[:, 0, 0] + zs[:, 1, 1]) % p
    want = [sum(_power_mod_reference(z, p, p * p)[i][i] for i in range(3)) % (p * p) // p for z in zs]
    assert [int(t) for t in algebra_module._gamma_traces(zs.astype(float), p, 1)] == want


@pytest.mark.parametrize("p", [2, 3, 5])
def test_p_power_trace_depends_on_residue_only(p):
    # the radical chain powers the pairs a <= b only: tr(z^(p^l)) mod p^(l+1)
    # is the same for any lift of z mod p, hence for XY and YX reduced mod p;
    # the matrices are float64, as the chain gives them
    rng = np.random.default_rng(p)
    for layer, m in ((1, 4), (2, 3)):
        mod, e = p ** (layer + 1), p**layer
        x, y, lift = (rng.integers(0, bound, size=(20, m, m)).astype(float) for bound in (p, p, mod))

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


def truncated_polynomial_gf2(n):
    """GF(2)[x]/(x^n) on 1, x, ..., x^(n-1)."""
    mult = [[[int(i + j == k) for k in range(n)] for j in range(n)] for i in range(n)]
    return from_structure_constants(F2, n, mult, [1] + [0] * (n - 1))


def pairwise_chain_radical(a):
    """The radical chain as it was computed before gamma_l's linearity was
    used: at layer l the form gamma_l(X_a X_b) (tr at l = 0) on every pair of
    rep matrices of the current ideal's basis, and the next ideal its
    kernel.  GF(p) only."""
    p, rep, n = a.field.p, unstack(a.rep_action()), a.dim
    m = rep[0].rows
    stack = np.stack([x.data for x in rep]).reshape(n, m * m)
    level = 0
    while p**level < m:
        level += 1
    ideal = Subspace(a.field, n, Mat.identity(a.field, n))
    for layer in range(level + 1):
        r = ideal.dim
        if r == 0:
            break
        xs = matmul_mod(ideal.basis.data, stack, p).reshape(r, m, m)
        pairs = matmul_mod(xs[:, None], xs[None, :], p).reshape(r * r, m, m)  # X_a X_b
        if layer == 0:
            form = np.trace(pairs, axis1=1, axis2=2) % p
        else:
            form = algebra_module._gamma_traces(pairs, p, layer)
        ker = Mat.from_reduced(a.field, form.reshape(r, r)).kernel()
        ideal = Subspace(a.field, n, ker.transpose() @ ideal.basis)
    return ideal


CHAIN_ALGEBRAS = [
    pytest.param(lambda: build_schur(2, 2, 1, F2).algebra, id="S_GF2(2,2)"),
    pytest.param(lambda: build_schur(2, 3, 1, F3).algebra, id="S_GF3(2,3)"),
    pytest.param(lambda: make_am_algebra(3, F3), id="A3_GF3"),
    pytest.param(lambda: truncated_polynomial_gf2(4), id="GF2[x]/(x^4)"),
    pytest.param(lambda: build_schur(3, 2, 1, F2).algebra, id="S_GF2(3,2)"),
    pytest.param(lambda: build_schur(2, 4, 1, F2).algebra, id="S_GF2(2,4)"),
    pytest.param(lambda: build_schur(2, 3, "2", GF(7)).algebra, id="S_q(2,3)_u=2_GF7"),
]


@pytest.mark.parametrize("build", CHAIN_ALGEBRAS)
def test_radical_chain_matches_the_pairwise_chain(build):
    a = build()
    got, want = algebra_module._radical_chain(a), pairwise_chain_radical(a)
    assert (got.basis, got.pivots) == (want.basis, want.pivots)


@pytest.mark.parametrize(
    "build", CHAIN_ALGEBRAS + [pytest.param(lambda: build_schur(3, 3, 1, F3).algebra, id="S_GF3(3,3)")]
)
def test_gamma_is_linear_on_the_previous_ideal(monkeypatch, build):
    # the chain takes gamma_l on the r basis matrices of I_(l-1) only, as
    # gamma_l is linear there (Cohen, Ivanyos, Wales): check it on random
    # combinations of the batches it is given
    batches = []
    gamma_traces = algebra_module._gamma_traces

    def recorded(zs, p, layer):
        batches.append((zs, p, layer))
        return gamma_traces(zs, p, layer)

    monkeypatch.setattr(algebra_module, "_gamma_traces", recorded)
    algebra_module._radical_chain(build())
    assert batches
    rng = np.random.default_rng(13)
    for zs, p, layer in batches:
        cx, cy = rng.integers(0, p, size=(2, 8, len(zs)))
        x, y = (np.einsum("ck,kij->cij", c, zs) % p for c in (cx, cy))
        gx, gy, gsum = (gamma_traces(z, p, layer) for z in (x, y, (x + y) % p))
        assert ((gx + gy) % p == gsum).all()
        assert (gx == cx @ gamma_traces(zs, p, layer) % p).all()


@pytest.mark.parametrize(
    "build",
    [lambda m=m: make_am_algebra(m, QQ) for m in (2, 3, 4)] + [lambda: build_hecke(3, "1/2", QQ).algebra],
    ids=["A2", "A3", "A4", "H3_u=1/2"],
)
def test_trace_form_radical_matches_pairwise_traces(build):
    # the chain's layer 0 over QQ, the traces of the rep matrices put
    # through the structure constants, gives the radical the n(n+1)/2
    # traces tr(L_i L_j) give
    a = build()
    n, left = a.dim, unstack(a.left_regular_action())
    gram = [[sum((left[i] @ left[j])[k, k] for k in range(n)) for j in range(n)] for i in range(n)]
    want = Subspace(QQ, n, Mat(QQ, gram).kernel().transpose())
    got = algebra_module._radical_chain(a)
    assert (got.basis, got.pivots) == (want.basis, want.pivots)
    assert got.dim == {5: 3, 9: 6, 13: 9, 6: 0}[n]


@pytest.mark.parametrize("field", [F3, QQ], ids=["GF3", "QQ"])
def test_left_regular_action_is_left_multiplication(field):
    a = make_am_algebra(3, field)
    action = a.left_regular_action()
    assert unstack(action) == [a.left_mult_matrix(a.basis_element(i)) for i in range(a.dim)]
    # the algebra stores its nonzero constants only, never the dense n^3 form
    nonzero = int(np.count_nonzero(a.mult))
    assert nonzero < a.dim**3 and all(x.size <= nonzero for x in stored_arrays(a))
    # a module's stacked action is its flat action reshaped, not a copy
    # (34 MiB for the dual regular module of S_GF3(3,3))
    from qhcover.modules import dual, regular_module

    d = dual(regular_module(a))
    assert np.shares_memory(d.flat_action().data, d.stack().data)


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


# -- central idempotents: roots and Lagrange interpolants ---------------------------


def poly_mul_linear(field, coeffs, root):
    """coeffs (lowest first) times (x - root)."""
    shifted = [field.zero()] + coeffs
    return [field.add(s, field.neg(field.mul(root, c))) for s, c in zip(shifted, coeffs + [field.zero()])]


def polynomial_algebra(field, coeffs):
    """k[x]/(f) for a monic f (coefficients lowest first), on the basis 1, x, ..."""
    d = len(coeffs) - 1
    powers = [[field.one() if i == k else field.zero() for i in range(d)] for k in range(d)]
    while len(powers) < 2 * d - 1:  # x^(k+1) = x * x^k, with x^d = -(f_0 + ... + f_(d-1) x^(d-1))
        prev = powers[-1]
        top = prev[-1]
        powers.append([field.add(low, field.neg(field.mul(top, coeffs[i]))) for i, low in enumerate([field.zero()] + prev[:-1])])
    mult = [[powers[i + j] for j in range(d)] for i in range(d)]
    return from_structure_constants(field, d, mult, powers[0])


def split_algebra(field, roots):
    coeffs = [field.one()]
    for lam in roots:
        coeffs = poly_mul_linear(field, coeffs, field.normalize(lam))
    return polynomial_algebra(field, coeffs)


# The block orders are the ones the sympy factorisation gave (checked at the
# version that still used it): over GF(p) by (-l) mod p, over QQ by (b, -a)
# for l = a/b.  The primitive idempotents, and the poset JSON's simple_of
# indices, follow this order.
P_MAX = 1048573


@pytest.mark.parametrize(
    "field, roots, order",
    [
        (QQ, [Fraction(1, 2), 0, Fraction(-1, 3), 5, -3, 2], [5, 2, 0, -3, Fraction(1, 2), Fraction(-1, 3)]),
        (QQ, [Fraction(7, 3), -999999, Fraction(-7, 3), 1000003], [1000003, -999999, Fraction(7, 3), Fraction(-7, 3)]),
        (GF(5), [1, 2, 4, 0], [0, 4, 2, 1]),
        (GF(P_MAX), [12345, 1, 0, P_MAX - 1], [0, P_MAX - 1, 12345, 1]),
    ],
    ids=["QQ", "QQ-large", "GF5", "GF1048573"],
)
def test_central_idempotents_are_lagrange_interpolants_in_factor_order(field, roots, order):
    a = split_algebra(field, roots)
    blocks = central_primitive_idempotents(a)
    x = a.basis_element(1)
    assert [next(lam for lam in roots if a.multiply(x, e) == e.scale(lam)) for e in blocks] == order
    for lam, e in zip(order, blocks):
        # prod_{m != l} (x - m) / (l - m), whose degree is below dim A
        coeffs = [field.one()]
        for mu in roots:
            if mu != lam:
                coeffs = poly_mul_linear(field, coeffs, field.normalize(mu))
                coeffs = [field.mul(c, field.inv(field.normalize(lam - mu))) for c in coeffs]
        assert e == Mat.column(field, coeffs)


@pytest.mark.parametrize("n", [2048, 2049])
def test_contraction_bound_at_the_largest_prime(n):
    # a contraction with the constants sums up to n terms below (p-1)^2
    # before one reduction: exact while n (p-1)^2 < 2^51, so up to n = 2048
    # at P_MAX, and refused beyond.  The algebra has b_0 = 1 and every other
    # product 0: 2n - 1 triples, in row-major order
    field, rest = GF(P_MAX), np.arange(1, n)
    i, j, k = np.concatenate([np.zeros(n, int), rest]), np.concatenate([np.arange(n), 0 * rest]), np.concatenate([np.arange(n), rest])
    a = Algebra.from_triples(field, n, Triples(i, j, k, np.ones(2 * n - 1), 1), Mat.from_entries(field, n, 1, {(0, 0): 1}))
    if n == 2048:
        assert a.left_mult_matrix(a.one) == Mat.identity(field, n)
    else:
        with pytest.raises(AlgebraError, match="too large for exact products"):
            a.left_mult_matrix(a.one)


@pytest.mark.parametrize(
    "coeffs, roots",
    [
        ([-10, -2, 5, 1], [-5]),
        ([600, -200, -3, 1], [3]),
        ([Fraction(-1, 3), Fraction(1, 6), Fraction(2, 3), Fraction(1, 6), 1], [Fraction(1, 2), Fraction(-2, 3)]),
        ([2, -1, -2, 1], [2, 1, -1]),
    ],
    ids=["(t+5)(t2-2)", "(t-3)(t2-200)", "(t-1/2)(t+2/3)(t2+1)", "(t-2)(t-1)(t+1)"],
)
def test_rational_roots_between_irrational_ones(coeffs, roots):
    # a rational root below an irrational one, or between two, is found, and
    # the roots keep the factor order (b, -a) for l = a/b
    assert algebra_module._roots([Fraction(c) for c in coeffs], QQ) == roots


@pytest.mark.parametrize(
    "field, coeffs",
    [(QQ, [1, 0, 1]), (QQ, [-2, 0, 1]), (F3, [1, 0, 1]), (QQ, [2, -2, -1, 1]), (GF(5), [0, 3, 0, 1])],
    ids=["QQ-x2+1", "QQ-x2-2", "GF3-x2+1", "QQ-(x-1)(x2-2)", "GF5-x(x2-2)"],
)
def test_field_not_splitting_raises(field, coeffs):
    a = polynomial_algebra(field, [field.normalize(c) for c in coeffs])
    with pytest.raises(AlgebraError, match="field not splitting"):
        a.primitive_idempotents()


@pytest.mark.parametrize("field", [F3, QQ], ids=["GF3", "QQ"])
def test_local_algebra_skips_splitting(monkeypatch, field):
    from qhcover import algebra
    from qhcover.modules import _indec_projective, endomorphism_algebra

    calls = {"split": [], "certify": []}
    for name, key in (("_primitive_set_semisimple", "split"), ("_assert_nilpotent_ideal", "certify")):
        original = getattr(algebra, name)

        def counting(a, *args, original=original, key=key):
            calls[key].append(a)
            return original(a, *args)

        monkeypatch.setattr(algebra, name, counting)
    # non-local: A_3 still runs the general splitting
    a3 = make_am_algebra(3, field)
    prim = a3.primitive_idempotents()
    assert len(prim) == 3 and prim.n_blocks == 3
    assert len(calls["split"]) == 1
    # local: k[x]/(x^2) and End(P(l)) never reach it
    dual_numbers = from_structure_constants(field, 2, [[[1, 0], [0, 1]], [[0, 1], [0, 0]]], [1, 0])
    local = [dual_numbers] + [endomorphism_algebra(_indec_projective(a3, ci)[0])[0] for ci in range(3)]
    for a in local:
        prim = a.primitive_idempotents()
        assert prim.idempotents == [a.one] and prim.block_of == [0]
    assert len(calls["split"]) == 1
    # the radical certificate still runs on every algebra
    assert all(any(b is a for b in calls["certify"]) for a in [a3] + local)


def two_cycle_radical_square_zero(field):
    """Arrows a: 1 -> 2 and b: 2 -> 1 with ab = ba = 0: dim 4, rad = span(a, b)."""
    return from_quiver(QuiverPresentation(2, [Arrow("a", 0, 1), Arrow("b", 1, 0)], [[(1, (1, 0))], [(1, (0, 1))]]), field)


@pytest.mark.parametrize("field", [F3, QQ], ids=["GF3", "QQ"])
def test_radical_certificate_rejects_a_smaller_nilpotent_ideal(monkeypatch, field):
    from qhcover import algebra

    a = two_cycle_radical_square_zero(field)
    prim = a.primitive_idempotents()
    assert a.radical_subspace().dim == 2 and prim.block_of == [0, 1]
    # J = 0 is a nilpotent ideal, and A itself passes for one split simple
    # block with two idempotents: 4 = 2^2.  Only the equivalence of the two
    # idempotents mod J (a b = 0) is missing, so A does not act faithfully
    # on A e_1 and the solve for the links E_01, E_10 has no solution.
    monkeypatch.setattr(algebra, "_radical_chain", lambda alg: Subspace(alg.field, alg.dim))
    with pytest.raises(AlgebraError, match="radical certificate"):
        two_cycle_radical_square_zero(field).primitive_idempotents()


@pytest.mark.parametrize("field", [F3, QQ], ids=["GF3", "QQ"])
@pytest.mark.parametrize("rows", [[0, 2], [0, 1]], ids=["first-column", "first-row"])
def test_radical_certificate_tests_both_sides(monkeypatch, field, rows):
    from qhcover import algebra

    # in M_2(k) on E11, E12, E21, E22 the first column is a left ideal and
    # the first row a right ideal; neither is two-sided
    a = matrix_algebra(field, 2)
    one_sided = Subspace(field, 4, Mat.identity(field, 4).take_rows(rows))
    monkeypatch.setattr(algebra, "_radical_chain", lambda alg: one_sided)
    with pytest.raises(AlgebraError, match="two-sided"):
        a.radical_subspace()


@pytest.mark.parametrize("field", [F3, QQ], ids=["GF3", "QQ"])
def test_radical_certificate_forms_no_products(monkeypatch, field):
    from qhcover import algebra

    # the two-sided test reads the triples: the true radical passes without
    # one product b_i j being formed (the only products are those of the
    # basis with itself, the regular representation that nilpotency is read
    # on), and a one-sided or a non-nilpotent ideal still fails
    a = make_am_algebra(3, field)
    whole = algebra._radical_chain(a)
    assert whole.dim > 1
    products = []
    for name in ("_basis_products", "multiply_batches"):
        original = getattr(Algebra, name)
        monkeypatch.setattr(Algebra, name, lambda self, *args, _f=original: products.append(args) or _f(self, *args))
    algebra._assert_nilpotent_ideal(a, whole)
    assert all(args[0] == Mat.identity(field, a.dim) for args in products)
    m2 = matrix_algebra(field, 2)
    with pytest.raises(AlgebraError, match="two-sided"):
        algebra._assert_nilpotent_ideal(m2, Subspace(field, 4, Mat.identity(field, 4).take_rows([2, 0])))
    with pytest.raises(AlgebraError, match="not nilpotent"):
        algebra._assert_nilpotent_ideal(m2, Subspace(field, 4, Mat.identity(field, 4)))
    # k x 0 in k x k is idempotent: the flag shrinks once, to k^2 e1, and
    # then stays there
    with pytest.raises(AlgebraError, match="not nilpotent"):
        algebra._assert_nilpotent_ideal(two_points(field), Subspace(field, 2, Mat(field, [[1, 0]])))


def two_points(field):
    """k x k on its idempotents e1, e2."""
    return from_structure_constants(field, 2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1, 1])


@pytest.mark.parametrize("field", [F3, QQ], ids=["GF3", "QQ"])
def test_radical_certificate_needs_a_faithful_rep(field):
    # k x k with rep(e1) = [1], rep(e2) = [0]: a representation, but e2 acts
    # as 0.  Its chain takes span(e2) for the radical, which is a two-sided
    # ideal acting nilpotently on k^1, and A/J = k would make A local; the
    # faithfulness check refuses it.
    product = two_points(field)
    a = Algebra(field, 2, product.structure, product.one, rep=Mat(field, [[1], [0]]))
    assert algebra_module._radical_chain(a).dim == 1
    with pytest.raises(AlgebraError, match="not faithful"):
        a.radical_subspace()
    # with the regular representation the radical is 0
    assert product.radical_subspace().dim == 0


@pytest.mark.parametrize("field", [F3, QQ], ids=["GF3", "QQ"])
def test_radical_certificate_counts_the_blocks(monkeypatch, field):
    from qhcover import algebra

    # M_2(k) is one block with two idempotents; calling them two blocks
    # leaves dim A/J = 4 against 1 + 1
    original = algebra._primitive_set_semisimple

    def two_blocks(a):
        idems, blocks, links = original(a)
        return idems, list(range(len(idems))), links

    monkeypatch.setattr(algebra, "_primitive_set_semisimple", two_blocks)
    with pytest.raises(AlgebraError, match="radical certificate failed: dim A/J = 4, but the blocks give 2"):
        matrix_algebra(field, 2).primitive_idempotents()


@pytest.mark.parametrize("field", [F3, QQ], ids=["GF3", "QQ"])
def test_radical_certificate_tests_block_equivalence(monkeypatch, field):
    from qhcover import algebra

    # M_4(k) x k x k has six primitive idempotents in blocks of sizes 4, 1
    # and 1; as two blocks of three they still give 3^2 + 3^2 = 18 = dim A/J,
    # so only the equivalence mod J of the idempotents of a block can fail
    original = algebra._primitive_set_semisimple

    def two_blocks_of_three(a):
        idems, blocks, links = original(a)
        assert sorted(blocks.count(b) for b in set(blocks)) == [1, 1, 4]
        return idems, [0, 0, 0, 1, 1, 1], links

    monkeypatch.setattr(algebra, "_primitive_set_semisimple", two_blocks_of_three)
    a = direct_product(direct_product(matrix_algebra(field, 4), field_algebra(field)), field_algebra(field))
    with pytest.raises(AlgebraError, match="idempotents of one block are not equivalent mod J"):
        a.primitive_idempotents()


@pytest.mark.parametrize("field", [F3, QQ], ids=["GF3", "QQ"])
def test_primitivity_certificate_rejects_a_sum_of_idempotents(monkeypatch, field):
    from qhcover import algebra

    # in M_2(k) x k the two idempotents of the M_2 block sum to its unit,
    # whose corner M_2(k) is not local: two one-idempotent blocks give
    # 1 + 1 against dim A/J = 5, so the count refuses it
    original = algebra._primitive_set_semisimple

    def merged(a):
        idems, blocks, links = original(a)
        i, j = (n for n, b in enumerate(blocks) if blocks.count(b) == 2)
        rest = [n for n in range(len(idems)) if n not in (i, j)]
        unit = idems[i] + idems[j]
        return [unit] + [idems[n] for n in rest], [blocks[i]] + [blocks[n] for n in rest], [(unit, unit)] + [links[n] for n in rest]

    monkeypatch.setattr(algebra, "_primitive_set_semisimple", merged)
    with pytest.raises(AlgebraError, match="radical certificate failed: dim A/J = 5, but the blocks give 2"):
        direct_product(matrix_algebra(field, 2), field_algebra(field)).primitive_idempotents()


@pytest.mark.parametrize("field", [F3, QQ], ids=["GF3", "QQ"])
@pytest.mark.parametrize("wrong", ["swapped", "zero"])
def test_radical_certificate_checks_the_links(monkeypatch, field, wrong):
    from qhcover import algebra

    # M_3(k) splits into E_00, E_11, E_22 with links (E_0i, E_i0): swapping
    # a link gives E_i0 E_0i = E_ii != E_00, and a zero link gives 0
    original = algebra._primitive_set_semisimple

    def bad_link(a):
        idems, blocks, links = original(a)
        u, v = links[1]
        links[1] = (v, u) if wrong == "swapped" else (a.zero_element(), a.zero_element())
        return idems, blocks, links

    a = matrix_algebra(field, 3)
    _, _, links = original(a)
    assert all(a.multiply(u, v) != a.multiply(v, u) for u, v in links[1:])
    monkeypatch.setattr(algebra, "_primitive_set_semisimple", bad_link)
    with pytest.raises(AlgebraError, match="not equivalent mod J"):
        a.primitive_idempotents()


TWISTED_M2 = [[[1, 0], [0, 1]], [[0, 1], [2, 0]], [[0, 1], [3, 0]], [[1, 1], [-1, 0]]]


@pytest.mark.parametrize(
    "build, count, n_blocks",
    [
        pytest.param(lambda: build_hecke(3, 3, QQ).algebra, 4, 3, id="H3_u3_QQ"),
        pytest.param(lambda: build_hecke(3, "5/7", QQ).algebra, 4, 3, id="H3_u5/7_QQ"),
        pytest.param(lambda: build_hecke(3, "-3/5", QQ).algebra, 4, 3, id="H3_u-3/5_QQ"),
        pytest.param(lambda: build_hecke(3, 5, GF(101)).algebra, 4, 3, id="H3_u5_GF101"),
        pytest.param(lambda: build_hecke(3, 1, GF(P_MAX)).algebra, 4, 3, id="H3_u1_GF1048573"),
        pytest.param(lambda: build_hecke(4, 2, QQ).algebra, 10, 5, id="H4_u2_QQ"),
        pytest.param(lambda: build_schur(3, 3, 1, GF(P_MAX)).algebra, 19, 3, id="S33_GF1048573"),
        pytest.param(lambda: build_hecke(3, "1/2", QQ).algebra, 4, 3, id="H3_u1/2_QQ"),
        pytest.param(lambda: build_hecke(3, 2, QQ).algebra, 4, 3, id="H3_u2_QQ"),
        pytest.param(lambda: algebra_of_matrices_naive([Mat(QQ, m) for m in TWISTED_M2], "M_2"), 2, 1, id="M2_twisted_QQ"),
    ],
)
def test_split_blocks_descend_to_matrix_units(build, count, n_blocks):
    # split Hecke and Schur algebras over QQ, a small GF(p) and the largest
    # GF(p); in the twisted M_2(QQ) no basis element has a minimal
    # polynomial of degree 2 with a rational root, so its zero divisor
    # comes from a difference b_i - b_j
    prim = build().primitive_idempotents()
    assert (len(prim), prim.n_blocks) == (count, n_blocks)


def _naive_center(a):
    """The center as the kernel of x -> (x b - b x) over every basis element b."""
    return Mat.vstack([a.right_mult_matrix(a.basis_element(b)) - a.left_mult_matrix(a.basis_element(b)) for b in range(a.dim)]).kernel()


CENTER_ALGEBRAS = [
    pytest.param(lambda: build_am(3, F3).algebra, id="A3_GF3"),
    pytest.param(lambda: build_am(3, QQ).algebra, id="A3_QQ"),
    pytest.param(lambda: build_schur(2, 2, 1, F2).algebra, id="S22_GF2"),
    pytest.param(lambda: build_schur(2, 3, 1, F3).algebra, id="S23_GF3"),
    pytest.param(lambda: build_hecke(3, 2, QQ).algebra, id="H3_u2_QQ"),
    pytest.param(lambda: matrix_algebra(F3, 3), id="M3_GF3"),
    pytest.param(lambda: matrix_algebra(QQ, 3), id="M3_QQ"),
    pytest.param(lambda: direct_product(a2_quiver(QQ), matrix_algebra(QQ, 2)), id="A2xM2_QQ"),
]


def _assert_center_matches_the_naive_center(a):
    center = algebra_module.center_basis(a)
    assert center == _naive_center(a)
    # each central primitive idempotent of A/J cuts out a block with center k
    q = semisimple_quotient(a).quotient
    for eps in central_primitive_idempotents(q):
        assert algebra_module.center_basis(corner_algebra(q, eps)[0]).cols == 1
    return center


@pytest.mark.parametrize("build", CENTER_ALGEBRAS)
def test_center_from_the_triples_matches_the_naive_center(build):
    _assert_center_matches_the_naive_center(build())


def test_center_of_the_semisimple_quotient_of_schur33(schur33_gf3):
    q = semisimple_quotient(schur33_gf3.algebra).quotient
    assert _assert_center_matches_the_naive_center(q).cols == 3


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


# -- basic algebras ----------------------------------------------------------------


def test_basic_algebra_dimensions(schur33_gf3, schur33_gf2):
    # one idempotent per class: 11 idempotents in 3 classes over GF(3), 18 in 3 over GF(2)
    for schur, n_idempotents, dim in ((schur33_gf3, 11, 9), (schur33_gf2, 18, 6)):
        a = schur.algebra
        prim = a.primitive_idempotents()
        b, incl = basic_algebra(a)
        assert (len(prim), prim.n_blocks, b.dim) == (n_idempotents, 3, dim)
        assert (incl.rows, incl.cols) == (a.dim, b.dim)
        assert basic_algebra(a)[0] is b


def test_basic_algebra_seeds_the_class_representatives(schur33_gf3):
    a = schur33_gf3.algebra
    prim = a.primitive_idempotents()
    b, incl = basic_algebra(a)
    seeded = b.primitive_idempotents()
    assert (len(seeded), seeded.n_blocks, seeded.block_of) == (3, 3, [0, 1, 2])
    # class i of B is class i of A: the inclusion carries each back to A's representative
    assert [incl @ f for f in seeded.idempotents] == [prim.idempotents[r] for r in prim.class_reps]
    for i, f in enumerate(seeded.idempotents):
        for j, g in enumerate(seeded.idempotents):
            assert b.multiply(f, g) == (f if i == j else b.zero_element())
    assert sum(seeded.idempotents[1:], seeded.idempotents[0]) == b.one


@pytest.mark.parametrize("fixture", ["schur33_gf3", "schur33_gf2"])
def test_basic_algebra_decomposes_as_basic_on_its_own(fixture, request):
    a = request.getfixturevalue(fixture).algebra
    b = basic_algebra(a)[0]
    fresh = Algebra.from_triples(b.field, b.dim, b.triples, b.one)
    fresh.validate_unit()
    fresh.validate_associativity()
    prim = fresh.primitive_idempotents()
    assert prim.n_blocks == len(prim) == a.primitive_idempotents().n_blocks
    assert fresh.dim - fresh.radical_subspace().dim == prim.n_blocks


def cyclic_group_algebra(field, n):
    mult = [[[int((i + j) % n == k) for k in range(n)] for j in range(n)] for i in range(n)]
    return from_structure_constants(field, n, mult, [1] + [0] * (n - 1))


@pytest.mark.parametrize(
    "build",
    [lambda: build_am(3, QQ).algebra, lambda: cyclic_group_algebra(F3, 3), lambda: cyclic_group_algebra(QQ, 2)],
    ids=["A3_QQ", "C3_GF3", "C2_QQ"],
)
def test_basic_algebra_of_a_basic_algebra_is_itself(build):
    a = build()
    b, incl = basic_algebra(a)
    assert b is a
    assert incl == Mat.identity(a.field, a.dim)


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
    # the generator elements are built once, as a tuple no caller can grow
    elements = a.generator_elements()
    assert elements is a.generator_elements() and elements == tuple(a.basis_element(i) for i in gens)


@pytest.mark.parametrize("order", ["a-before-opposite", "a-after-opposite", "op-first"])
def test_opposite_pair_computes_radical_and_idempotents_once(monkeypatch, order):
    from qhcover import algebra

    calls = {"radical": [], "prim": []}
    for name, key in (("_radical_chain", "radical"), ("_primitive_idempotents", "prim")):
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
    p, c = a.field.p, a.mult.astype(np.int64).astype(object)
    x, y = xs.data.astype(np.int64).astype(object), ys.data.astype(np.int64).astype(object)
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
