"""Exact linear algebra kernels: examples, enumeration oracles, invariants."""

import ast
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhcover.algebra import _lift_idempotent_element, algebra_of_matrices, centralizer_algebra
from qhcover.fields import GF, QQ
from qhcover.gallery import build_hecke
from qhcover.linalg import (
    _FMOD_MAX_SIZE,
    Mat,
    Subspace,
    _chunk_length,
    _reduce,
    frame_products,
    matmul_mod,
    stacked_products,
    unstack,
)

from conftest import algebra_of_matrices_naive, span_coords_naive

F3 = GF(3)
P_MAX = 1048573  # the largest prime below PrimeField.MAX_P


def test_kernel_identity_empty():
    assert Mat.identity(F3, 3).kernel().cols == 0


def test_kernel_zero_map_full():
    k = Mat.zeros(F3, 2, 3).kernel()
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
    k = m.kernel()
    assert k.cols == 1
    spanned = {tuple((c * k[0, 0] % 3, c * k[1, 0] % 3)) for c in range(3)}
    assert spanned == set(map(tuple, annihilated))


def test_solve_identity_returns_rhs():
    b = Mat(F3, [[1, 2], [0, 1], [2, 2]])
    assert Mat.identity(F3, 3).solve(b) == b


def test_solve_unsolvable_returns_none():
    assert Mat.zeros(F3, 2, 2).solve(Mat(F3, [[1], [0]])) is None


def test_solve_gf3_exhaustive():
    # 2*2 = 4 = 1 mod 3; exhaustive check of the 1x1 case.
    a, b = Mat(F3, [[2]]), Mat(F3, [[1]])
    x = a.solve(b)
    assert x == Mat(F3, [[2]])
    assert [(2 * c) % 3 for c in range(3)].index(1) == 2


def _kernel_entry_by_entry(m):
    """Reference kernel: column k holds 1 in row free[k] and -red[i, free[k]]
    in row pivots[i], written one entry at a time."""
    red, pivots = m.rref()
    free = [c for c in range(m.cols) if c not in pivots]
    ker = [[0] * len(free) for _ in range(m.cols)]
    for k, fc in enumerate(free):
        ker[fc][k] = 1
        for i, pc in enumerate(pivots):
            ker[pc][k] = -int(red[i, fc])
    return Mat(m.field, ker, cols=len(free))


def _solve_entry_by_entry(a, b):
    red, pivots = Mat.hstack([a, b]).rref()
    if any(pc >= a.cols for pc in pivots):
        return None
    x = [[0] * b.cols for _ in range(a.cols)]
    for i, pc in enumerate(pivots):
        for j in range(b.cols):
            x[pc][j] = int(red[i, a.cols + j])
    return Mat(a.field, x, cols=b.cols)


def _matrix_of_rank_at_most(field, rng, rows, cols, rank):
    left = Mat(field, rng.integers(0, field.p, size=(rows, rank)))
    return left @ Mat(field, rng.integers(0, field.p, size=(rank, cols)))


@pytest.mark.parametrize("p", [2, 3, P_MAX])
def test_kernel_and_solve_match_entry_by_entry_form(p):
    field, rng = GF(p), np.random.default_rng(p)
    cases = [
        Mat.zeros(field, 4, 6),  # rank 0: every column free
        Mat.identity(field, 5),  # full rank, no free columns
        Mat.vstack([Mat.identity(field, 4), Mat.zeros(field, 2, 4)]),  # no free columns, tall
        Mat(field, rng.integers(0, p, size=(4, 7))),  # full row rank
        _matrix_of_rank_at_most(field, rng, 3, 5, 2),
        _matrix_of_rank_at_most(field, rng, 10, 12, 6),
        _matrix_of_rank_at_most(field, rng, 60, 100, 40),
    ]
    assert cases[0].rank() == 0 and cases[1].rank() == 5 and cases[2].rank() == 4
    for m in cases:
        ker, free = m.kernel_with_free()
        assert ker == m.kernel() == _kernel_entry_by_entry(m)
        assert ker.take_rows(free) == Mat.identity(field, len(free))  # coordinates are read there
        assert (m @ ker).is_zero() and ker.cols == m.cols - m.rank()
        x = Mat(field, rng.integers(0, p, size=(m.cols, 3)))
        b = m @ x
        assert m.solve(b) == _solve_entry_by_entry(m, b)
        assert m @ m.solve(b) == b
        unsolvable = b + Mat.identity(field, m.rows).take_cols([m.rows - 1] * 3)
        assert m.solve(unsolvable) == _solve_entry_by_entry(m, unsolvable)


def test_rank_nullity_and_product_zero():
    rng = np.random.default_rng(7)
    for _ in range(40):
        r, c = int(rng.integers(1, 7)), int(rng.integers(1, 7))
        m = Mat(F3, rng.integers(0, 3, size=(r, c)))
        k = m.kernel()
        assert m.rank() + k.cols == c
        if k.cols:
            assert (m @ k).is_zero()


@given(st.lists(st.lists(st.fractions(max_denominator=6), min_size=3, max_size=3), min_size=2, max_size=4))
@settings(max_examples=60, deadline=None)
def test_qq_kernel_property(rows):
    m = Mat(QQ, rows)
    k, free = m.kernel_with_free()
    assert m.rank() + k.cols == m.cols and k == m.kernel()
    assert k.take_rows(free) == Mat.identity(QQ, len(free))
    if k.cols:
        assert (m @ k).is_zero()


def test_solve_result_satisfies_equation():
    rng = np.random.default_rng(11)
    for _ in range(40):
        r, c = int(rng.integers(1, 6)), int(rng.integers(1, 6))
        a = Mat(F3, rng.integers(0, 3, size=(r, c)))
        xs = Mat(F3, rng.integers(0, 3, size=(c, 2)))
        b = a @ xs
        x = a.solve(b)
        assert x is not None and (a @ x) == b


def _lift_m2(field, entries, nil_bound):
    """Idempotent lifting in the full matrix algebra M_2 on the unit
    matrices, where the coordinates of a 2 x 2 matrix are its entries read
    row-major."""
    units = [Mat.from_entries(field, 2, 2, {(i, j): 1}) for i in range(2) for j in range(2)]
    a = algebra_of_matrices_naive(units, "M_2")
    return _lift_idempotent_element(a, Mat(field, entries).reshape(4, 1), nil_bound).reshape(2, 2)


def test_lift_idempotent_fixed_point_and_zero():
    e = Mat(QQ, [[1, 0], [0, 0]])
    assert _lift_m2(QQ, e.data, 3) == e
    z = Mat.zeros(QQ, 2, 2)
    assert _lift_m2(QQ, z.data, 3) == z


def test_lift_idempotent_nilpotent_defect():
    e = _lift_m2(QQ, [[Fraction(1), Fraction(1, 2)], [Fraction(0), Fraction(0)]], 4)
    assert (e @ e) == e
    assert e[1, 0] == 0 and e[1, 1] == 0 and e[0, 0] == 1
    # x^2 - x = [[0, 1], [0, 0]] is nilpotent; one step 3x^2 - 2x^3 gives 1
    assert _lift_m2(QQ, [[1, 1], [0, 1]], 4) == Mat.identity(QQ, 2)


def test_lift_idempotent_gfp_unipotent_block():
    # idempotent already (fixed points)
    for e0 in ([[1, 1], [0, 0]], [[1, 0], [1, 0]]):
        assert _lift_m2(F3, e0, 4) == Mat(F3, e0)
    # unipotent: the defect [[0, 2], [0, 0]] is nilpotent
    assert _lift_m2(F3, [[1, 2], [0, 1]], 4) == Mat.identity(F3, 2)


def test_products_match_python_int_reference():
    rng = np.random.default_rng(5)
    for p in (2, 3, 7):
        for _ in range(25):
            r, c = int(rng.integers(1, 9)), int(rng.integers(1, 9))
            a, b = rng.integers(0, p, size=(r, c)), rng.integers(0, p, size=(c, 4))
            assert matmul_mod(a.astype(float), b.astype(float), p).tolist() == _matmul_reference(a, b, p)


def _rref_reference(rows, p):
    """Gauss-Jordan mod p on Python ints: leftmost pivot column, topmost
    nonzero pivot row, pivot scaled to 1, column cleared above and below."""
    m = [[int(x) % p for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(len(m[0])):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


@pytest.mark.parametrize("p", [2, 3, 7, P_MAX])
def test_rref_matches_python_int_reference(p):
    # uniform matrices, matrices with entries near p-1, and matrices of low
    # rank, so that free columns and zero rows occur at every p
    rng = np.random.default_rng(p)
    for t in range(45):
        r, c = int(rng.integers(1, 9)), int(rng.integers(1, 9))
        if t % 3 == 2:
            k = int(rng.integers(1, min(r, c) + 1))
            rows = _matmul_reference(rng.integers(0, p, size=(r, k)), rng.integers(0, p, size=(k, c)), p)
        else:
            rows = rng.integers(max(p - 4, 0) if t % 3 else 0, p, size=(r, c)).tolist()
        red, pivots = Mat(GF(p), rows).rref()
        assert (red.data.tolist(), pivots) == _rref_reference(rows, p)


def _matmul_reference(a, b, mod):
    """a @ b mod ``mod`` on Python ints."""
    return [[sum(int(x) * int(y) for x, y in zip(row, col)) % mod for col in zip(*b)] for row in a]



def test_chunk_length_at_the_largest_prime():
    # 2048 * (p-1)^2 < 2^51 <= 2049 * (p-1)^2: a chunk of 2048 terms stays
    # inside _reduce's bound, and one more would leave it
    assert _chunk_length(P_MAX) == 2048
    assert 2048 * (P_MAX - 1) ** 2 < 2**51 <= 2049 * (P_MAX - 1) ** 2


@pytest.mark.parametrize("k", [2048, 2049, 4097, 8192, 8193, 16385])
def test_products_at_the_largest_prime_are_exact(monkeypatch, k):
    # one chunk, just past one chunk boundary, just past two; 8192 and 8193
    # on both sides of 2^53 for an unchunked dot product, and 16385 far past
    # it for a sum of unreduced chunks.  Entries near p-1 push every chunk's
    # dot products close to 2^51.
    rng = np.random.default_rng(k)
    a = rng.integers(P_MAX - 3, P_MAX, size=(2, k))
    b = rng.integers(P_MAX - 3, P_MAX, size=(k, 3))
    inner = []
    matmul = np.matmul

    def recorded(x, y):
        inner.append(x.shape[-1])
        return matmul(x, y)

    monkeypatch.setattr(np, "matmul", recorded)
    assert matmul_mod(a.astype(float), b.astype(float), P_MAX).tolist() == _matmul_reference(a, b, P_MAX)
    assert inner == [2048] * (k // 2048) + ([k % 2048] if k % 2048 else [])


@pytest.mark.parametrize("cols, dtype", [(199, np.int64), (200, np.float64), (_FMOD_MAX_SIZE, np.int64), (_FMOD_MAX_SIZE + 1, np.float64)])
def test_products_on_both_sides_of_the_size_threshold(monkeypatch, cols, dtype):
    # a (1 x 100) @ (100 x cols) product at the largest prime.  199 and 200
    # columns straddle 20000 multiply-adds, where products once switched
    # between int64 and float64; now both are float64.  _FMOD_MAX_SIZE and
    # one more straddle the cut-off where _reduce leaves np.fmod for the
    # floor form on the product's cols entries.  The outside data comes in
    # either dtype.
    rng = np.random.default_rng(cols)
    a, b = rng.integers(0, P_MAX, size=(1, 100)), rng.integers(0, P_MAX, size=(100, cols))
    ma, mb = Mat(GF(P_MAX), a.astype(dtype)), Mat(GF(P_MAX), b.astype(dtype))
    fmod_sizes = []
    fmod = np.fmod

    def recorded(x, *args, **kwargs):
        fmod_sizes.append(x.size)
        return fmod(x, *args, **kwargs)

    monkeypatch.setattr(np, "fmod", recorded)
    got = ma @ mb
    assert got.data.dtype == np.float64
    assert fmod_sizes == ([cols] if cols <= _FMOD_MAX_SIZE else [])
    assert got.data.tolist() == _matmul_reference(a, b, P_MAX)


# the dtype matmul_mod multiplies a 30-term dot product in, by modulus
_PRODUCT_DTYPES = {9: float, 27: float, 81: float, P_MAX: float, 20011**2: np.int64, P_MAX**2: object}


@pytest.mark.parametrize("mod", list(_PRODUCT_DTYPES))
def test_batched_products_are_exact(monkeypatch, mod):
    # a stack of 30 x 30 products on float64, as the radical chain gives
    # them: the chain moduli p^(l+1) = 9, 27, 81 and p = P_MAX on float64;
    # 20011^2, where 30 (mod-1)^2 < 2^63, on int64; P_MAX^2 on Python ints
    rng = np.random.default_rng(mod % 1000)
    a, b = rng.integers(0, mod, size=(4, 30, 30)), rng.integers(0, mod, size=(4, 30, 30))
    dtypes = []
    matmul = np.matmul

    def recorded(x, y):
        dtypes.append(x.dtype)
        return matmul(x, y)

    monkeypatch.setattr(np, "matmul", recorded)
    got = matmul_mod(a.astype(float), b.astype(float), mod)
    assert got.dtype == np.float64 and dtypes == [np.dtype(_PRODUCT_DTYPES[mod])]
    for u, w, g in zip(a, b, got):
        assert [[int(v) for v in row] for row in g] == _matmul_reference(u, w, mod)


def test_products_refuse_moduli_too_wide_for_float64():
    # float64 holds every residue up to 2^53; one more and it cannot
    top = np.full((2, 2), 2.0**53 - 1)
    assert matmul_mod(top, top, 2**53).tolist() == _matmul_reference(top.astype(np.int64), top.astype(np.int64), 2**53)
    with pytest.raises(OverflowError):
        matmul_mod(np.ones((2, 2)), np.ones((2, 2)), 2**53 + 1)


# 49 = 7^2 (a radical-chain modulus) and the prime 107: without the + 0.5,
# floor(x * fl(1/m)) falls one short at x = m (49 * fl(1/49) < 1)
_REDUCE_MODULI = [2, 3, 5, 7, 9, 27, 49, 81, 107, P_MAX, 2**25 - 39, P_MAX**2 // 3]


def _reduce_edge_cases(m):
    """Integers below 2^51 with residues 0, 1, 2, m-2 and m-1, near 0, near
    2^51 and in between; the multiples m * 2^k, whose quotients are powers
    of two; and the 300 integers at each end of the range."""
    xs = set(range(300)) | set(range(2**51 - 300, 2**51))
    xs.update(m * 2**k for k in range(52))
    for base in (0, 2**51 // 3, 2**51 // 2, 2**51 - 4 * m):
        for q in range(base // m, base // m + 4):
            xs.update(q * m + r for r in (0, 1, 2, m - 2, m - 1))
    return sorted(x for x in xs if 0 <= x < 2**51)


@pytest.mark.parametrize("m", _REDUCE_MODULI)
def test_reduce_is_exact_at_the_edge_cases(m):
    xs = _reduce_edge_cases(m)
    assert len(xs) > _FMOD_MAX_SIZE  # the floor form
    got = _reduce(np.array(xs, dtype=np.float64), m)
    assert [int(v) for v in got] == [x % m for x in xs]
    assert not np.signbit(got).any()


@pytest.mark.parametrize("m", _REDUCE_MODULI)
def test_reduce_on_both_sides_of_the_fmod_cut_off(m):
    # small arrays take np.fmod, larger ones the floor form; both are exact
    xs = _reduce_edge_cases(m)
    for size in (1, _FMOD_MAX_SIZE, _FMOD_MAX_SIZE + 1):
        for start in (0, len(xs) - size):
            chunk = xs[start : start + size]
            got = _reduce(np.array(chunk, dtype=np.float64), m)
            assert [int(v) for v in got] == [x % m for x in chunk]
            assert not np.signbit(got).any()


def test_determinism_identical_inputs():
    a = Mat(F3, [[1, 2, 0], [2, 1, 1]])
    assert a.kernel() == Mat(F3, [[1, 2, 0], [2, 1, 1]]).kernel()


def test_subspace_quotient_coords():
    s = Subspace.from_columns(Mat(F3, [[1, 0], [1, 1], [0, 2]]))
    assert s.dim == 2
    v = Mat(F3, [[1, 1, 0]])
    assert s.contains(v)
    w = Mat(F3, [[0, 1, 0]])
    q = s.quotient_coords(w)
    assert q.cols == 1 and not q.is_zero()


def _random_rows(field, rng, rows, cols):
    if field == QQ:
        nums, dens = rng.integers(-3, 4, size=(rows, cols)), rng.integers(1, 4, size=(rows, cols))
        return Mat(QQ, [[Fraction(int(a), int(b)) for a, b in zip(*row)] for row in zip(nums, dens)], cols=cols)
    return Mat(field, rng.integers(0, field.p, size=(rows, cols)), cols=cols)


@pytest.mark.parametrize("field", [GF(2), F3, GF(P_MAX), QQ], ids=["GF2", "GF3", "GF_PMAX", "QQ"])
def test_subspace_queries_match_the_full_reduction(field):
    # contains, coords and quotient_coords form only the non-pivot columns
    # of the residue vecs - vecs[:, pivots] @ basis, whose pivot columns are
    # 0 because the pivot block of the reduced basis is the identity
    rng, n = np.random.default_rng(11), 7
    spans = [None] + [_random_rows(field, rng, k, n) for k in (1, 3, 5, 6)]
    spans.append(Mat.vstack([_random_rows(field, rng, 2, n), Mat.identity(field, n)]))
    for spanning in spans:
        s = Subspace(field, n, spanning)
        inside = _random_rows(field, rng, 4, s.dim) @ s.basis if s.dim else Mat.zeros(field, 4, n)
        batches = [inside, _random_rows(field, rng, 4, n), Mat.vstack([inside, _random_rows(field, rng, 1, n)])]
        for vecs in batches:
            residue = vecs - vecs.take_cols(s.pivots) @ s.basis
            assert residue.take_cols(s.pivots).is_zero()
            assert s.contains(vecs) == residue.is_zero()
            assert s.quotient_coords(vecs) == residue.take_cols(s.nonpivots)
            coords = s.coords(vecs)
            assert (coords is not None) == residue.is_zero()
            if coords is not None:
                assert coords == vecs.take_cols(s.pivots) and coords @ s.basis == vecs
        assert s.contains(inside)
    assert [Subspace(field, n, m).dim for m in (spans[0], spans[-1])] == [0, n]


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


@pytest.mark.parametrize("field", FIELDS)
def test_nonzero_entries_are_row_major_python_values(field):
    m = Mat(field, [[0, 2, 0], [1, 0, -1]])
    entries = m.nonzero_entries()
    assert entries == [(i, j, m[i, j]) for i in range(2) for j in range(3) if m[i, j] != 0]
    assert all(type(i) is type(j) is int and type(x) is (int if field == F3 else Fraction) for i, j, x in entries)
    assert Mat.from_entries(field, 2, 3, {(i, j): x for i, j, x in entries}) == m
    assert Mat.zeros(field, 2, 0).nonzero_entries() == []


def _full_matrix_algebra(field, t):
    """The unit matrices E_ij of M_t, row-major, and their frame: the
    coordinates of a t x t matrix are its entries.  Read row-major, E_ij is
    the unit row i*t + j, so the flat form of the E_ij is the identity."""
    return Mat.identity(field, t * t), (Mat.identity(field, t), [i for i in range(t) for _ in range(t)], list(range(t)) * t)


def _centralizers(field, t, seed):
    # a random matrix, and one with a repeated random block, whose centralizer is larger
    rng = np.random.default_rng(seed)
    g = Mat(field, rng.integers(0, 3, size=(t, t)))
    r = Mat(field, rng.integers(0, 3, size=(2, 2)))
    h = Mat.block_diag(field, [r, r, Mat(field, rng.integers(0, 3, size=(t - 4, t - 4)))])
    return [centralizer_algebra([g]), centralizer_algebra([h])]


@pytest.mark.parametrize("field", FIELDS)
def test_matrix_basis_coords_agree_with_solve(field):
    # a centralizer's basis is a kernel basis, so the coordinates of a
    # combination of its matrices are entries at its frame
    rng = np.random.default_rng(3)
    for a, (g, rows, cols) in _centralizers(field, 5, 3):
        mats = unstack(a.rep_action())
        coeffs = Mat(field, rng.integers(-2, 3, size=(a.dim, 3)))
        flat = Mat.hstack([m.reshape(25, 1) for m in mats])
        combos = [(flat @ coeffs.take_cols([c])).reshape(5, 5) for c in range(3)]
        read = Mat.hstack([Mat.column(field, [(x @ g)[r, c] for r, c in zip(rows, cols)]) for x in combos])
        assert read == span_coords_naive(mats, combos) == coeffs


@pytest.mark.parametrize("field", FIELDS)
def test_matrix_basis_product_coords(field):
    # upper triangular 2x2 matrices E11, E12, E22: closed under products,
    # with coordinates the entries (0, 0), (0, 1) and (1, 1)
    mats = [Mat.from_entries(field, 2, 2, u) for u in ({(0, 0): 1}, {(0, 1): 1}, {(1, 1): 1})]
    stacked = Mat.vstack(mats)
    structure = frame_products(stacked, stacked, [0, 0, 1], [0, 1, 1]).to_mat(field, 3)
    assert (structure.rows, structure.cols) == (9, 3)
    assert structure == algebra_of_matrices_naive(mats).structure


@pytest.mark.parametrize("field", [GF(2), GF(3), GF(P_MAX), QQ], ids=["GF2", "GF3", "GFmax", "QQ"])
def test_product_coords_match_coordinates_of_all_products(field):
    algebras = [algebra_of_matrices(*_full_matrix_algebra(field, t), "M_t") for t in (1, 2, 3)]
    algebras += [a for a, _ in _centralizers(field, 5, 11) + _centralizers(field, 6, 12)]
    for got in algebras:
        want = algebra_of_matrices_naive(unstack(got.rep_action()))
        assert got.structure == want.structure and got.one == want.one


@pytest.mark.parametrize("field", [GF(2), GF(P_MAX), QQ], ids=["GF2", "GFmax", "QQ"])
def test_stacked_products_multiply_block_by_block(field):
    # at the largest prime an inner dimension of 2100 takes two chunks
    rng = np.random.default_rng(5)
    inner = 2100 if field == GF(P_MAX) else 4
    a = Mat(field, rng.integers(-9, 10, size=(3 * 2, inner)).tolist())
    b = Mat(field, rng.integers(-9, 10, size=(3 * inner, 5)).tolist())
    if field == QQ:
        a, b = a.scale(Fraction(1, 6)), b.scale(Fraction(5, 4))
    blocks = [a.take_rows(range(2 * k, 2 * k + 2)) @ b.take_rows(range(inner * k, inner * (k + 1))) for k in range(3)]
    assert stacked_products(a, b, 3) == Mat.vstack(blocks)


def test_take_rows_of_a_range_is_a_read_only_view():
    m = Mat(GF(5), np.arange(24).reshape(6, 4))
    for idx in (range(1, 4), range(0, 6, 2), range(3, 3)):
        rows = m.take_rows(idx)
        assert rows == m.take_rows(list(idx))
        assert np.shares_memory(rows.data, m.data) or rows.rows == 0
        assert not rows.data.flags.writeable


def test_coefficient_parsing():
    assert GF(3).parse(" -1/2 ") == 1 and GF(3).parse("4/5") == 2 and GF(5).parse("3") == 3
    assert QQ.parse("-2/6") == Fraction(-1, 3)
    for field in (GF(3), QQ):
        with pytest.raises(ValueError, match="'1/2/3'"):
            field.parse("1/2/3")


@pytest.mark.parametrize("field, text", [(GF(3), "1/3"), (GF(3), "2/3"), (GF(3), "1/0"), (QQ, "1/0")])
def test_coefficient_with_zero_denominator_is_rejected(field, text):
    with pytest.raises(ValueError, match=repr(text)):
        field.parse(text)


# -- the constructor contract -------------------------------------------------------


def test_public_constructor_reduces_and_coerces_outside_data():
    m = Mat(GF(7), [[-1, 7], [8, -15]])
    assert m.data.tolist() == [[6, 0], [1, 6]]
    frozen = np.array([[9, -2]])
    frozen.setflags(write=False)
    assert Mat(GF(7), frozen).data.tolist() == [[2, 5]]
    assert frozen.tolist() == [[9, -2]]
    assert Mat(GF(7), np.array([[-1.0, 13.0]])).data.tolist() == [[6, 6]]
    assert type(m[0, 0]) is int
    q = Mat(QQ, [[1, "2/3"], [np.int64(-4), Fraction(np.int64(1), np.int64(2))]])
    assert (q.data.tolist(), q.den) == ([[6, 4], [-24, 3]], 6)
    assert all(type(x) is int for x in q.data.flat)
    entries = [q[i, j] for i in range(2) for j in range(2)]
    assert entries == [Fraction(1), Fraction(2, 3), Fraction(-4), Fraction(1, 2)]
    assert all(type(x) is Fraction and type(x.numerator) is type(x.denominator) is int for x in entries)


HUGE = [2**53 - 1, 2**53, 2**53 + 1, 2**62, 2**70]


@pytest.mark.parametrize("p", [2, 3, P_MAX])
def test_public_constructor_reduces_integers_of_any_size(p):
    # entries are reduced as integers before they become float64; a float
    # conversion first would round 2^53 + 1 and overflow at 2^70
    values = HUGE + [-v for v in HUGE]
    want = [v % p for v in values]
    assert [Mat(GF(p), [[v]])[0, 0] for v in values] == want
    assert [Mat.from_entries(GF(p), 1, 1, {(0, 0): v})[0, 0] for v in values] == want
    assert Mat(GF(p), [values]).data.tolist() == [want]
    entries = {(0, j): v for j, v in enumerate(values)}
    assert Mat.from_entries(GF(p), 1, len(values), entries).data.tolist() == [want]


def test_from_entries_does_not_round_past_2_to_the_53():
    assert Mat.from_entries(GF(P_MAX), 1, 1, {(0, 0): 2**53 + 1})[0, 0] == (2**53 + 1) % P_MAX == 73729


def _near_top(rng, p, rows, cols):
    return rng.integers(max(p - 3, 0), p, size=(rows, cols)).tolist()


def test_public_operations_match_python_ints_at_the_largest_prime():
    p, field, rng = P_MAX, GF(P_MAX), np.random.default_rng(17)
    a, b, c = _near_top(rng, p, 5, 7), _near_top(rng, p, 7, 4), _near_top(rng, p, 5, 7)
    ma, mb, mc = Mat(field, a), Mat(field, b), Mat(field, c)
    assert (ma @ mb).data.tolist() == _matmul_reference(a, b, p)
    assert (ma + mc).data.tolist() == [[(x + y) % p for x, y in zip(r, s)] for r, s in zip(a, c)]
    assert (ma - mc).data.tolist() == [[(x - y) % p for x, y in zip(r, s)] for r, s in zip(a, c)]
    for k in (p - 1, -5, 2**70):
        assert ma.scale(k).data.tolist() == [[x * k % p for x in r] for r in a]
    assert ma.kron(mb).data.tolist() == [[x * y % p for x in ra for y in rb] for ra in a for rb in b]
    # a rank-deficient matrix: rref, kernel and solve against Gauss-Jordan on Python ints
    low = _matmul_reference(_near_top(rng, p, 6, 3), _near_top(rng, p, 3, 8), p)
    red, pivots = _rref_reference(low, p)
    assert (Mat(field, low).rref()[0].data.tolist(), Mat(field, low).rref()[1]) == (red, pivots)
    free = [j for j in range(8) if j not in pivots]
    ker = [[int(i == fc) for fc in free] for i in range(8)]
    for i, pc in enumerate(pivots):
        ker[pc] = [-red[i][fc] % p for fc in free]
    assert Mat(field, low).kernel().data.tolist() == ker
    rhs = _matmul_reference(low, _near_top(rng, p, 8, 2), p)
    red_aug, piv_aug = _rref_reference([r + s for r, s in zip(low, rhs)], p)
    x = [[0, 0] for _ in range(8)]
    for i, pc in enumerate(piv_aug):
        x[pc] = red_aug[i][8:]
    assert Mat(field, low).solve(Mat(field, rhs)).data.tolist() == x
    # an invertible matrix near p-1
    sq = _near_top(rng, p, 6, 6)
    while _rref_reference(sq, p)[1] != list(range(6)):
        sq = _near_top(rng, p, 6, 6)
    inv = Mat(field, sq).inv().data.tolist()
    assert _matmul_reference(sq, inv, p) == [[int(i == j) for j in range(6)] for i in range(6)]
    assert inv == [row[6:] for row in _rref_reference([r + [int(i == j) for j in range(6)] for i, r in enumerate(sq)], p)[0]]


def test_public_constructor_rejects_malformed_data():
    with pytest.raises(ValueError, match="2-dimensional"):
        Mat(F3, np.ones((2, 2, 2), dtype=np.int64))
    for ragged in ([[1, 2], [3]], [[1], [2, 3]], [[], [Fraction(1, 2)]]):
        with pytest.raises(ValueError, match="ragged"):
            Mat(QQ, ragged)


def _operation_results(field, unit=1):
    """One result of every Mat-building operation of linalg; over QQ the
    random inputs are integers times ``unit``."""
    rng = np.random.default_rng(3)
    a = Mat(field, rng.integers(-3, 4, size=(3, 4))).scale(unit)
    b = Mat(field, rng.integers(-3, 4, size=(4, 3))).scale(unit)
    sq = Mat(field, [[1, 2, 0], [0, 1, 0], [1, 0, 1]])
    # the span of 1 and a nilpotent, with coordinates the entries (0, 0) and (0, 1)
    pair = Mat.vstack([Mat.identity(field, 2), Mat(field, [[0, 1], [0, 0]])])
    return [
        Mat.zeros(field, 2, 3),
        Mat.identity(field, 3),
        a @ b,
        a + a,
        a - a.scale(2),
        a.scale(-1),
        -a,
        a.reshape(6, 2),
        a.kron(b),
        a.transpose(),
        a.take_rows([2, 0]),
        a.take_rows([]),
        a.take_cols([3, 1]),
        a.take_cols([]),
        Mat.hstack([a, a]),
        Mat.vstack([a, a]),
        Mat.block_diag(field, [a, b]),
        a.rref()[0],
        a.kernel(),
        sq.solve(a.take_cols([0, 1])),
        sq.inv(),
        Subspace(field, 4, a).basis,
        Subspace(field, 4, a).quotient_coords(b.transpose()),
        frame_products(pair, pair, [0, 0], [0, 1]).to_mat(field, 2),
    ]


def test_gfp_operation_results_are_read_only_and_reduced():
    p = 7
    for m in _operation_results(GF(p)):
        assert m.data.dtype == np.float64 and m.data.shape == (m.rows, m.cols)
        assert not m.data.flags.writeable
        assert (m.data == np.floor(m.data)).all() and not np.signbit(m.data).any()
        assert m.data.size == 0 or (int(m.data.min()) >= 0 and int(m.data.max()) < p)


def _assert_canonical(m):
    """QQ storage: read-only Python-int numerators over a positive int den
    that shares no factor with all of them."""
    assert m.data.dtype == object and m.data.shape == (m.rows, m.cols)
    assert not m.data.flags.writeable
    assert all(type(x) is int for x in m.data.flat)
    assert type(m.den) is int and m.den > 0 and math.gcd(m.den, *m.data.flat) == 1


@pytest.mark.parametrize("unit", [1, Fraction(2, 3), Fraction(-5, 12)], ids=["integers", "thirds", "twelfths"])
def test_qq_operation_results_are_canonical(unit):
    for m in _operation_results(QQ, unit):
        _assert_canonical(m)


def test_storage_stays_behind_linalg():
    # Matrix storage is private to linalg; algebra alone keeps its GF(p)
    # sparse structure constants and radical chain on it.  Everywhere else a
    # Mat is used through its operations only: no ``.data`` and no
    # ``matmul_mod``.
    import qhcover

    package = Path(qhcover.__file__).parent
    offences = []
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package)
        if rel.parts[0] == "linalg" or rel.name == "algebra.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("data", "matmul_mod"):
                offences.append(f"{rel}:{node.lineno} .{node.attr}")
            if isinstance(node, ast.ImportFrom) and any(a.name == "matmul_mod" for a in node.names):
                offences.append(f"{rel}:{node.lineno} imports matmul_mod")
    assert offences == []


def test_src_never_reads_the_per_matrix_action():
    # a module stores its action as one flat Mat; ``Module.action`` builds
    # the list of matrices on every access, for tests and users, so the
    # package itself never reads it
    found = _attributes_by_function(("action",))
    assert [f"{rel}:{line} .action in {func}" for rel, line, _, func in found] == []


def _attributes_by_function(names):
    """(file, line, attribute, top-level function) for each use of an
    attribute in ``names`` in the package source."""
    import qhcover

    package = Path(qhcover.__file__).parent
    found = []

    def visit(node, func, rel):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name if func is None else func
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append((rel, node.lineno, node.attr, func))
        for child in ast.iter_child_nodes(node):
            visit(child, func, rel)

    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()
        visit(ast.parse(path.read_text(), filename=str(path)), None, rel)
    return found


# Conversions and the fmod reduction belong to a few named places: the exact
# reduction, the public constructor's integer reduction, and the product's
# int64 and Python-int bands for wide moduli.  Anywhere else they would mean
# an int64 <-> float64 round trip or a second reduction path.
CONVERSION_SITES = {
    "linalg/__init__.py": {"_reduce", "_reduce_outside", "matmul_mod"},
}


def test_conversions_stay_in_their_named_places():
    found = _attributes_by_function(("int64", "fmod", "astype"))
    offences = [f"{rel}:{line} .{attr} in {func}" for rel, line, attr, func in found if func not in CONVERSION_SITES.get(rel, set())]
    assert offences == []


def test_products_stay_in_one_function_per_field():
    # every exact product of stored arrays is formed by matmul_mod (any
    # modulus) or _matmul (GF(p) through matmul_mod, QQ numerators), so each
    # overflow bound is stated and enforced in one place
    found = _attributes_by_function(("matmul",))
    assert found and all((rel, func) in {("linalg/__init__.py", "matmul_mod"), ("linalg/__init__.py", "_matmul")} for rel, _, _, func in found), found


# -- QQ storage against Fraction arithmetic ------------------------------------------
#
# The reference below is the Fraction code QQ matrices ran on before they were
# stored as numerators over one denominator: rows of Fractions, a product
# loop, and Gauss-Jordan with the pivot scaled to 1.


def _fractions(m):
    return [[m[i, j] for j in range(m.cols)] for i in range(m.rows)]


def _ref_matmul(a, b, cols):
    out = [[Fraction(0)] * cols for _ in a]
    for i, row in enumerate(a):
        for k, x in enumerate(row):
            if x:
                for j in range(cols):
                    out[i][j] += x * b[k][j]
    return out


def _ref_rref(rows):
    m = [row[:] for row in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots, r = [], 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        if piv != 1:
            m[r] = [x / piv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def _ref_kernel(rows, ncols):
    red, pivots = _ref_rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    ker = [[Fraction(0)] * len(free) for _ in range(ncols)]
    for k, fc in enumerate(free):
        ker[fc][k] = Fraction(1)
        for i, pc in enumerate(pivots):
            ker[pc][k] = -red[i][fc]
    return ker


def _ref_solve(a, b, ncols):
    red, pivots = _ref_rref([ra + rb for ra, rb in zip(a, b)])
    if any(pc >= ncols for pc in pivots):
        return None
    x = [[Fraction(0)] * len(b[0]) for _ in range(ncols)]
    for i, pc in enumerate(pivots):
        x[pc] = red[i][ncols:]
    return x


# Past 2^53 float64 rounds, past 2^63 int64 overflows; Python ints do neither.
_WIDE = [2**53 - 1, 2**53 + 1, 2**63 - 1, 2**63 + 7, 2**70 + 3]


def _random_rationals(rng, rows, cols, kind):
    """integral: entries in [-3, 3]; fractions: denominators up to 8;
    wide: numerators and denominators around 2^53, 2^63 and 2^70."""

    def entry():
        if kind == "integral":
            return Fraction(rng.randint(-3, 3))
        if kind == "fractions":
            return Fraction(rng.randint(-8, 8), rng.randint(1, 8))
        if rng.random() < 0.3:
            return Fraction(0)
        return Fraction(rng.choice(_WIDE) * rng.choice([-1, 1]) + rng.randint(-2, 2), rng.choice([1, 3] + _WIDE))

    return [[entry() for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("kind", ["integral", "fractions", "wide"])
def test_qq_operations_match_the_fraction_reference(kind):
    rng = random.Random(kind)
    for _ in range(15):
        r, k, c = rng.randint(1, 6), rng.randint(1, 4), rng.randint(1, 7)
        a, a2 = _random_rationals(rng, r, c, kind), _random_rationals(rng, r, c, kind)
        b = _random_rationals(rng, c, k, kind)
        ma, ma2, mb = Mat(QQ, a), Mat(QQ, a2), Mat(QQ, b)
        results = [ma @ mb, ma + ma2, ma - ma2, ma.kron(mb), ma.scale(Fraction(-3, 7))]
        assert [_fractions(m) for m in results] == [
            _ref_matmul(a, b, k),
            [[x + y for x, y in zip(u, v)] for u, v in zip(a, a2)],
            [[x - y for x, y in zip(u, v)] for u, v in zip(a, a2)],
            [[x * y for x in u for y in v] for u in a for v in b],
            [[x * Fraction(-3, 7) for x in u] for u in a],
        ]
        # a matrix of rank at most k, so that free columns and zero rows occur
        low = _ref_matmul(_random_rationals(rng, r, k, kind), _random_rationals(rng, k, c, kind), c)
        for rows in (a, low):
            m = Mat(QQ, rows)
            red, pivots = m.rref()
            assert (_fractions(red), pivots) == _ref_rref(rows)
            ker = m.kernel()
            assert _fractions(ker) == _ref_kernel(rows, c)
            rhs = _ref_matmul(rows, _random_rationals(rng, c, 2, kind), 2)
            assert _fractions(m.solve(Mat(QQ, rhs))) == _ref_solve(rows, rhs, c)
            if len(pivots) < r:
                # y != 0 with y^T m = 0 is orthogonal to the column space
                y = [row[:1] for row in _ref_kernel([list(col) for col in zip(*rows)], r)]
                assert m.solve(Mat(QQ, y)) is None and _ref_solve(rows, y, c) is None
            results += [red, ker]
        sq = _random_rationals(rng, r, r, kind)
        if _ref_rref(sq)[1] == list(range(r)):
            ident = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
            inv = Mat(QQ, sq).inv()
            assert _fractions(inv) == _ref_solve(sq, ident, r)
            results.append(inv)
        for m in results:
            _assert_canonical(m)


def test_hecke_products_match_the_fraction_reference():
    # H(3) at u = 1/2: structure constants with denominators 2, 4 and 8
    a = build_hecke(3, "1/2", QQ).algebra
    n = a.dim
    c = [[[a.structure[i * n + j, k] for k in range(n)] for j in range(n)] for i in range(n)]
    assert a.structure.den == 8 and {x.denominator for plane in c for row in plane for x in row} == {1, 2, 4, 8}
    rng = random.Random(5)
    xs, ys = _random_rationals(rng, n, 3, "fractions"), _random_rationals(rng, n, 2, "fractions")
    for col in range(3):
        x = [row[col] for row in xs]
        # the Fraction loops of the products before: (L_x)[k, j] = sum_i x_i c_ijk
        left = [[sum(x[i] * c[i][j][k] for i in range(n)) for j in range(n)] for k in range(n)]
        right = [[sum(x[j] * c[i][j][k] for j in range(n)) for i in range(n)] for k in range(n)]
        xm = Mat(QQ, [[v] for v in x])
        assert _fractions(a.left_mult_matrix(xm)) == left and _fractions(a.right_mult_matrix(xm)) == right
    want = [[sum(xs[i][r] * ys[j][s] * c[i][j][k] for i in range(n) for j in range(n)) for r in range(3) for s in range(2)] for k in range(n)]
    assert _fractions(a.multiply_batches(Mat(QQ, xs), Mat(QQ, ys))) == want
    # the regular representation is multiplicative, by the reference product:
    # L_i L_j = sum_k c_ijk L_k
    regular = [_fractions(m) for m in unstack(a.left_regular_action())]
    for i, j in itertools.product(range(n), repeat=2):
        combo = [[sum(c[i][j][k] * regular[k][r][s] for k in range(n)) for s in range(n)] for r in range(n)]
        assert _ref_matmul(regular[i], regular[j], n) == combo


def test_qq_equal_matrices_are_stored_and_hashed_alike():
    m = Mat(QQ, [[Fraction(1, 6), 2, Fraction(-3, 4)], [0, Fraction(5, 2), 7]])
    zero = Mat.zeros(QQ, 1, 2)
    pairs = [
        (Mat(QQ, [[Fraction(2, 4)]]), Mat(QQ, [[Fraction(1, 2)]])),
        (m.scale(2).scale(Fraction(1, 2)), m),
        (m.scale(Fraction(2, 3)).scale(Fraction(3, 2)), m),
        (Mat(QQ, m.data.tolist()).scale(Fraction(1, m.den)), m),
        (m.kron(Mat.identity(QQ, 1)), m),
        # zero matrices reached from different denominators
        (Mat(QQ, [[Fraction(1, 3), Fraction(1, 5)]]) - Mat(QQ, [[Fraction(1, 3), Fraction(1, 5)]]), zero),
        (Mat(QQ, [[Fraction(1, 7), 0]]).scale(0), zero),
        (m.take_rows([0]).take_cols([0, 2]) @ Mat(QQ, [[0, 0], [0, 0]]), zero),
        # sub-blocks, stacks and products with smaller denominators
        (m.take_cols([1]), Mat(QQ, [[2], [Fraction(5, 2)]])),
        (m.take_rows(range(1, 2)).take_cols([0, 2]), Mat(QQ, [[0, 7]])),
        (Mat.hstack([Mat(QQ, [[Fraction(1, 2)]]), Mat(QQ, [[Fraction(1, 3)]])]), Mat(QQ, [[Fraction(3, 6), Fraction(2, 6)]])),
        (Mat(QQ, [[Fraction(1, 2)]]) @ Mat(QQ, [[2]]), Mat.identity(QQ, 1)),
    ]
    for x, y in pairs:
        _assert_canonical(x)
        assert x == y and hash(x) == hash(y)
        assert (x.data.tolist(), x.den) == (y.data.tolist(), y.den)
    assert Mat(QQ, [[Fraction(1, 2)]]) != Mat(QQ, [[1]]) and Mat(QQ, [[Fraction(1, 2)]]) != Mat(QQ, [[Fraction(1, 4)]])


def test_qq_hash_is_computed_from_values():
    # equal numerators held by different int objects: the bytes of an object
    # array are their addresses, so a hash of tobytes() would tell them apart
    big = 10**30
    x = Mat(QQ, [[big, Fraction(big + 1, 3)]])
    y = Mat(QQ, [[big + 1, Fraction(big + 4, 3)]]) - Mat(QQ, [[1, 1]])
    assert x.data[0, 0] is not y.data[0, 0]
    assert x == y and hash(x) == hash(y) and {x: "found"}[y] == "found"
