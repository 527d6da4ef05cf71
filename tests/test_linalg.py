"""Exact linear algebra kernels: examples, enumeration oracles, invariants."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhcover.fields import GF, QQ
from qhcover.linalg import (
    Mat,
    MatrixBasis,
    Subspace,
    gfp_backends,
    lift_idempotent,
    mat_kernel,
    mat_solve,
)

F3 = GF(3)


def test_kernel_identity_empty():
    assert mat_kernel(Mat.identity(F3, 3)).cols == 0


def test_kernel_zero_map_full():
    k = mat_kernel(Mat.zeros(F3, 2, 3))
    assert k.cols == 3
    assert k == Mat.identity(F3, 3)


def test_kernel_gf3_matches_exhaustive_enumeration():
    # Oracle: enumerate all 9 vectors of GF(3)^2 and keep the annihilated ones.
    m = Mat(F3, [[1, 1], [0, 0]])
    annihilated = [
        v
        for v in itertools.product(range(3), repeat=2)
        if all((sum(m[i, j] * v[j] for j in range(2))) % 3 == 0 for i in range(2))
    ]
    k = mat_kernel(m)
    assert k.cols == 1
    spanned = {tuple((c * k[0, 0] % 3, c * k[1, 0] % 3)) for c in range(3)}
    assert spanned == set(map(tuple, annihilated))


def test_solve_identity_returns_rhs():
    b = Mat(F3, [[1, 2], [0, 1], [2, 2]])
    assert mat_solve(Mat.identity(F3, 3), b) == b


def test_solve_unsolvable_returns_none():
    assert mat_solve(Mat.zeros(F3, 2, 2), Mat(F3, [[1], [0]])) is None


def test_solve_gf3_exhaustive():
    # 2*2 = 4 = 1 mod 3; exhaustive check of the 1x1 case.
    a, b = Mat(F3, [[2]]), Mat(F3, [[1]])
    x = mat_solve(a, b)
    assert x == Mat(F3, [[2]])
    assert [(2 * c) % 3 for c in range(3)].index(1) == 2


def test_rank_nullity_and_product_zero():
    rng = np.random.default_rng(7)
    for _ in range(40):
        r, c = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        m = Mat(F3, rng.integers(0, 3, size=(r, c)))
        k = mat_kernel(m)
        assert m.rank() + k.cols == c
        if k.cols:
            assert (m @ k).is_zero()


@given(st.lists(st.lists(st.fractions(max_denominator=6), min_size=3, max_size=3), min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_qq_kernel_property(rows):
    m = Mat(QQ, rows)
    k = mat_kernel(m)
    assert m.rank() + k.cols == m.cols
    if k.cols:
        assert (m @ k).is_zero()


def test_solve_result_satisfies_equation():
    rng = np.random.default_rng(11)
    for _ in range(40):
        r, c = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = Mat(F3, rng.integers(0, 3, size=(r, c)))
        xs = Mat(F3, rng.integers(0, 3, size=(c, 2)))
        b = a @ xs
        x = mat_solve(a, b)
        assert x is not None and (a @ x) == b


def test_lift_idempotent_fixed_point_and_zero():
    e = Mat(QQ, [[1, 0], [0, 0]])
    assert lift_idempotent(e, 3) == e
    z = Mat.zeros(QQ, 2, 2)
    assert lift_idempotent(z, 3) == z


def test_lift_idempotent_nilpotent_defect():
    # Hand-run: e0 = [[1,1],[0,0]] is already idempotent; perturb to break it.
    e0 = Mat(QQ, [[1, 1], [1, 0]])
    # defect e0^2 - e0 = [[1,0],[0,1]] is NOT nilpotent; build a valid one instead
    e0 = Mat(QQ, [[Fraction(1), Fraction(1, 2)], [Fraction(0), Fraction(0)]])
    e = lift_idempotent(e0, 4)
    assert (e @ e) == e
    assert e[1, 0] == 0 and e[1, 1] == 0 and e[0, 0] == 1


def test_lift_idempotent_gfp_unipotent_block():
    # e0 = [[1,1],[0,0]] over GF(3): idempotent already (fixed point).
    e0 = Mat(F3, [[1, 1], [0, 0]])
    assert lift_idempotent(e0, 4) == e0
    # genuinely defective: e0 + nilpotent correction
    e0 = Mat(F3, [[1, 0], [1, 0]])
    e = lift_idempotent(e0, 4)
    assert (e @ e) == e


def test_backends_agree_bit_for_bit():
    backends = gfp_backends()
    rng = np.random.default_rng(5)
    for p in (2, 3, 7):
        for _ in range(25):
            r, c = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            a = rng.integers(0, p, size=(r, c))
            red_np, piv_np = backends["numpy"].rref_mod(a, p)
            red_ac, piv_ac = backends["active"].rref_mod(a, p)
            assert np.array_equal(red_np, red_ac) and list(piv_np) == list(piv_ac)
            b = rng.integers(0, p, size=(c, 4))
            assert np.array_equal(
                backends["numpy"].matmul_mod(a, b, p),
                backends["active"].matmul_mod(a, b, p),
            )


def test_determinism_identical_inputs():
    a = Mat(F3, [[1, 2, 0], [2, 1, 1]])
    assert mat_kernel(a) == mat_kernel(Mat(F3, [[1, 2, 0], [2, 1, 1]]))


def test_subspace_quotient_coords():
    s = Subspace.from_columns(Mat(F3, [[1, 0], [1, 1], [0, 2]]))
    assert s.dim == 2
    v = Mat(F3, [[1, 1, 0]])
    assert s.contains(v)
    w = Mat(F3, [[0, 1, 0]])
    q = s.quotient_coords(w)
    assert q.cols == 1 and not q.is_zero()


# -- field-neutral primitives, on GF(3) and QQ ------------------------------------

FIELDS = [pytest.param(F3, id="GF3"), pytest.param(QQ, id="QQ")]


@pytest.mark.parametrize("field", FIELDS)
def test_reshape_round_trip_row_major(field):
    m = Mat(field, [[1, 2, 0], [Fraction(1, 2) if field == QQ else 2, 1, -1]])
    flat = m.reshape(1, 6)
    assert [flat[0, j] for j in range(6)] == [m[i, j] for i in range(2) for j in range(3)]
    assert flat.reshape(2, 3) == m
    assert m.reshape(3, 2).reshape(2, 3) == m
    assert m.reshape(6, 1).transpose() == flat
    with pytest.raises(ValueError):
        m.reshape(4, 2)


@pytest.mark.parametrize("field", FIELDS)
def test_from_entries_equals_dense(field):
    entries = {(0, 2): 2, (1, 0): 1, (2, 1): -1}
    assert Mat.from_entries(field, 3, 3, entries) == Mat(field, [[0, 0, 2], [1, 0, 0], [0, -1, 0]])
    assert Mat.from_entries(field, 2, 3, {}) == Mat.zeros(field, 2, 3)
    assert Mat.from_entries(field, 0, 4, {}) == Mat.zeros(field, 0, 4)


@pytest.mark.parametrize("field", FIELDS)
def test_kron_matches_definition(field):
    a = Mat(field, [[1, 2], [0, -1]])
    b = Mat(field, [[1, 0, 2]])
    k = a.kron(b)
    assert (k.rows, k.cols) == (2, 6)
    for i, j, r, c in itertools.product(range(2), range(2), range(1), range(3)):
        assert k[i + r, j * 3 + c] == field.mul(a[i, j], b[r, c])


def _independent_matrices(field, rng, count, rows, cols):
    mats = []
    while len(mats) < count:
        cand = Mat(field, rng.integers(-2, 3, size=(rows, cols)))
        flat = Mat.hstack([m.reshape(rows * cols, 1) for m in mats + [cand]])
        if flat.rank() == len(mats) + 1:
            mats.append(cand)
    return mats


@pytest.mark.parametrize("field", FIELDS)
def test_matrix_basis_coords_agree_with_solve(field):
    rng = np.random.default_rng(3)
    mats = _independent_matrices(field, rng, 4, 2, 3)
    basis = MatrixBasis(mats)
    flat = Mat.hstack([m.reshape(6, 1) for m in mats])
    # pivot rows: leftmost pivots of the transposed family, as the callers chose them before
    assert basis.rows == flat.transpose().rref()[1]
    coeffs = Mat(field, rng.integers(-2, 3, size=(4, 3)))
    targets = flat @ coeffs  # flattened combinations, one per column
    assert basis.flat_coords(targets) == flat.solve(targets) == coeffs
    as_mats = [targets.take_cols([c]).reshape(2, 3) for c in range(3)]
    assert basis.coords(as_mats[1]) == coeffs.take_cols([1])
    assert basis.coords_many(as_mats) == coeffs


@pytest.mark.parametrize("field", FIELDS)
def test_matrix_basis_product_coords(field):
    # upper triangular 2x2 matrices E11, E12, E22: closed under products
    units = [{(0, 0): 1}, {(0, 1): 1}, {(1, 1): 1}]
    basis = MatrixBasis([Mat.from_entries(field, 2, 2, u) for u in units])
    structure = basis.product_coords()
    assert (structure.rows, structure.cols) == (9, 3)
    for i, j in itertools.product(range(3), repeat=2):
        product = basis.mats[i] @ basis.mats[j]
        assert structure.take_rows([i * 3 + j]).transpose() == basis.coords(product)


def test_coefficient_parsing():
    assert GF(3).parse(" -1/2 ") == 1 and GF(3).parse("4/5") == 2 and GF(5).parse("3") == 3
    assert QQ.parse("-2/6") == Fraction(-1, 3)


@pytest.mark.parametrize("field, text", [(GF(3), "1/3"), (GF(3), "2/3"), (GF(3), "1/0"), (QQ, "1/0")])
def test_coefficient_with_zero_denominator_is_rejected(field, text):
    with pytest.raises(ValueError, match=repr(text)):
        field.parse(text)
