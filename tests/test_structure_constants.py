"""An algebra's stored triples against a dense reference built here.

Every product, every constructor of a new algebra and
``linalg.frame_products`` read or write the sparse triples.  These tests
rebuild the dense (n, n, n) constants c_ijk from the triples by plain
indexing (ints mod p over GF(p), Fractions over QQ) and check each operation
against einsum on them.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from qhcover import algebra as algebra_module
from qhcover import gallery
from qhcover.algebra import AlgebraError, centralizer_algebra, corner_algebra, direct_product, opposite, quotient_algebra
from qhcover.fields import GF, QQ
from qhcover.gallery import build_am, build_hecke, build_schur
from qhcover.linalg import Mat, Subspace, frame_products, unstack
from qhcover.modules import endomorphism_algebra
from qhcover.quiver import Arrow, QuiverPresentation, from_quiver
from qhcover.serialize import algebra_to_json, content_hash

from conftest import algebra_of_matrices_naive, frame_products_reference, make_am_algebra, named_modules


def _loop_and_arrow(field):
    """A loop x at vertex 1 with x^3 = 0 and an arrow a: 1 -> 2."""
    q = QuiverPresentation(2, [Arrow("x", 0, 0), Arrow("a", 0, 1)], [[(1, (0, 0, 0))]])
    return from_quiver(q, field)


BUILDS = {
    "A2-QQ": lambda: (build_am(2, QQ).algebra, None),
    "A2-GF3": lambda: (build_am(2, GF(3)).algebra, None),
    "A3-QQ": lambda: (build_am(3, QQ).algebra, None),
    "A3-GF3": lambda: (build_am(3, GF(3)).algebra, None),
    "H3-QQ": lambda: (build_hecke(3, "1/2", QQ).algebra, None),
    "S22-GF2": lambda: (lambda s: (s.algebra, s.frame))(build_schur(2, 2, 1, GF(2))),
    "S23-GF3": lambda: (lambda s: (s.algebra, s.frame))(build_schur(2, 3, 1, GF(3))),
    "S33-GF3": lambda: (lambda s: (s.algebra, s.frame))(build_schur(3, 3, 1, GF(3))),
    "quiver-GF5": lambda: (_loop_and_arrow(GF(5)), None),
}
_built: dict = {}


def _build(name):
    if name not in _built:
        _built[name] = BUILDS[name]()
    return _built[name]


@pytest.fixture(params=list(BUILDS))
def built(request):
    return _build(request.param)


def _prime(field):
    return field.kind == "prime"


def _values(m: Mat) -> np.ndarray:
    """The entries of a Mat: float64 integers over GF(p) (exact in every
    product below), Fractions over QQ."""
    if _prime(m.field):
        return m.data.astype(np.float64)
    return np.array([[Fraction(v, m.den) for v in row] for row in m.data.tolist()], dtype=object).reshape(m.rows, m.cols)


def _dense(a) -> np.ndarray:
    """c[i, j, k] from the stored triples."""
    t, n = a.triples, a.dim
    c = np.zeros((n, n, n), dtype=np.float64 if _prime(a.field) else object)
    c[t.i, t.j, t.k] = t.data if _prime(a.field) else [Fraction(v, t.den) for v in t.data.tolist()]
    return c


def _same(field, got: np.ndarray, want: np.ndarray) -> bool:
    if _prime(field):
        return np.array_equal(got % field.p, want % field.p)
    return got.shape == want.shape and all(x == y for x, y in zip(got.flat, want.flat))


def _random_columns(field, n, cols, seed):
    rng = np.random.default_rng(seed)
    if _prime(field):
        return Mat(field, rng.integers(0, field.p, size=(n, cols)))
    return Mat(field, [[Fraction(int(x), int(d)) for x, d in zip(row, dens)] for row, dens in zip(rng.integers(-3, 4, size=(n, cols)), rng.integers(1, 4, size=(n, cols)))])


def _pair_products(c, x, y):
    """Column (r, s) of x and y multiplied: einsum over the dense constants."""
    return np.einsum("ir,js,ijk->krs", x, y, c, optimize=True)


def test_products_match_dense_einsum(built):
    a, _ = built
    n, c = a.dim, _dense(a)
    xs, ys = _random_columns(a.field, n, 2, 1), _random_columns(a.field, n, 3, 2)
    x, y = _values(xs), _values(ys)
    for col in range(2):
        want = np.einsum("i,ijk->kj", x[:, col], c)
        assert _same(a.field, _values(a.left_mult_matrix(xs.take_cols([col]))), want)
    for col in range(3):
        want = np.einsum("j,ijk->ki", y[:, col], c)
        assert _same(a.field, _values(a.right_mult_matrix(ys.take_cols([col]))), want)
    for left, right, lv, rv in ((xs, ys, x, y), (ys, xs, y, x)):  # both contraction orders
        want = _pair_products(c, lv, rv).reshape(n, left.cols * right.cols)
        assert _same(a.field, _values(a.multiply_batches(left, right)), want)


def test_opposite_swaps_the_stored_indices(built):
    a, _ = built
    opp = opposite(a)
    assert _same(a.field, _dense(opp), _dense(a).transpose(1, 0, 2))
    # the same arrays, not a copy, and read-only
    assert opp.triples.i is a.triples.j and opp.triples.j is a.triples.i and opp.triples.data is a.triples.data
    assert not any(x.flags.writeable for x in a.triples[:4])


def test_corner_algebra_matches_dense_products(built):
    a, _ = built
    idems = a.primitive_idempotents().idempotents
    e = idems[0] if len(idems) == 1 else idems[0] + idems[-1]
    corner, incl = corner_algebra(a, e)
    inc = _values(incl)
    # products of the corner's basis in A, and the corner's constants carried back by incl
    want = _pair_products(_dense(a), inc, inc)
    got = np.einsum("rsm,km->krs", _dense(corner), inc, optimize=True)
    assert corner.dim > 0 and _same(a.field, got, want)


def test_quotient_algebra_matches_dense_products(built):
    a, _ = built
    quot = quotient_algebra(a, a.radical_subspace())
    proj, sect = _values(quot.proj), _values(quot.sect)
    want = np.einsum("krs,qk->rsq", _pair_products(_dense(a), sect, sect), proj, optimize=True)
    assert _same(a.field, _dense(quot.quotient), want)


def test_direct_product_is_block_diagonal(built):
    a, _ = built
    b = make_am_algebra(2, a.field)
    n, m = a.dim, b.dim
    want = np.zeros((n + m,) * 3, dtype=_dense(a).dtype)
    want[:n, :n, :n], want[n:, n:, n:] = _dense(a), _dense(b)
    assert _same(a.field, _dense(direct_product(a, b)), want)


def test_product_coords_give_the_products(built):
    a, frame = built
    if frame is None:
        # the regular representation is faithful, and L_x 1 = x: its frame
        # reads coordinate k of L_x at entry (k, 0) of L_x 1
        mats, frame = unstack(a.left_regular_action()), (a.one, list(range(a.dim)), [0] * a.dim)
    else:
        mats = unstack(a.rep_action())
    n, t, (g, rows, cols) = len(mats), mats[0].rows, frame
    stacked = Mat.vstack(mats)
    triples = frame_products(stacked, stacked @ g, rows, cols)
    assert _same(a.field, _values(triples.to_mat(a.field, n)), _dense(a).reshape(n * n, n))
    if n <= 20:
        assert triples.to_mat(a.field, n) == algebra_of_matrices_naive(mats).structure
    c = _values(triples.to_mat(a.field, n)).reshape(n, n, n)
    mats = np.stack([_values(m) for m in mats])
    flat = mats.reshape(n, t * t)
    # sum_k c_abk M_k = M_a M_b, for every b and a sample of a on S(3,3)
    for i in range(0, n, max(1, n // 24)):
        assert _same(a.field, c[i] @ flat, np.matmul(mats[i], mats).reshape(n, t * t))


def test_certificate_refuses_a_mutated_radical_of_s33():
    a, _ = _build("S33-GF3")
    rad = a.radical_subspace()
    others = rad.basis.take_rows(range(1, rad.dim))
    # one radical basis vector replaced by the unit, or by a basis vector outside J
    for intruder in (a.one.transpose(), a.basis_element(rad.nonpivots[0]).transpose()):
        mutated = Subspace(a.field, a.dim, Mat.vstack([intruder, others]))
        assert mutated.dim == rad.dim and not rad.contains(intruder)
        with pytest.raises(AlgebraError, match="two-sided"):
            algebra_module._assert_nilpotent_ideal(a, mutated)


# content_hash(algebra_to_json(...)) as computed before the triples were stored
PINNED_JSON_HASHES = {"S33-GF3": "51e5492e302d8ec3", "H3-QQ": "ef9f81dc473d8b72", "A3-QQ": "67638b57d759b400"}


@pytest.mark.parametrize("name", list(PINNED_JSON_HASHES))
def test_algebra_json_is_unchanged(name):
    assert content_hash(algebra_to_json(_build(name)[0])) == PINNED_JSON_HASHES[name]


# -- frame_products against the dense table it replaced -----------------------


def _checked_against_the_dense_table(monkeypatch):
    """Make every ``algebra_of_matrices`` compare its ``frame_products``
    with ``frame_products_reference``: the same Triples, i, j, k, data and
    den, in the same order.  Returns the number of terms of each call."""
    sizes = []

    def checked(mats, mats_g, rows, cols):
        got, want = frame_products(mats, mats_g, rows, cols), frame_products_reference(mats, mats_g, rows, cols)
        assert got.den == want.den
        for name, x, y in zip("ijk", got, want):
            assert x.dtype == y.dtype and np.array_equal(x, y), name
        assert got.data.dtype == want.data.dtype and got.data.tolist() == want.data.tolist()
        sizes.append(got.i.size)
        return got

    monkeypatch.setattr(algebra_module, "frame_products", checked)
    return sizes


def _admitted_schur_sizes(max_entries):
    """(n, d) that ``build_schur``'s guards admit with the product-table
    guard lowered to ``max_entries``."""
    sizes = []
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(gallery, "MAX_SCHUR_PRODUCT_ENTRIES", max_entries)
        for n, d in itertools.product(range(1, 33), range(1, 7)):
            try:
                gallery._check_schur_size(n, d)
            except gallery.GalleryError:
                continue
            sizes.append((n, d))
    return sizes


# every u = 1 input the guards admit whose dense table has at most 10M
# entries: S(3, 4) has 9.3M, 144 MiB traced in the reference over GF(p);
# S(26..32, 1), S(6, 2) and S(4, 3) are left out for their 180-530 MiB
_SCHUR_SIZES = _admitted_schur_sizes(10**7)
_FIELDS = [QQ, GF(2), GF(3), GF(5)]
_FIELD_IDS = ["QQ", "GF2", "GF3", "GF5"]


@pytest.mark.parametrize("field", _FIELDS, ids=_FIELD_IDS)
@pytest.mark.parametrize("n, d", _SCHUR_SIZES, ids=[f"S({n},{d})" for n, d in _SCHUR_SIZES])
def test_frame_products_match_the_dense_table_on_orbit_sums(monkeypatch, n, d, field):
    terms = _checked_against_the_dense_table(monkeypatch)
    build_schur(n, d, 1, field)
    assert len(terms) == 1 and terms[0] > 0


@pytest.mark.parametrize("field", _FIELDS, ids=_FIELD_IDS)
def test_frame_products_match_the_dense_table_on_centralizers(monkeypatch, field):
    # S(n, d) at u = 2 (none over GF(2), where 2 = 0), and the centralizers of
    # a random matrix and of one with a repeated block
    terms = _checked_against_the_dense_table(monkeypatch)
    schur_sizes = [] if field == GF(2) else [(2, 2), (2, 3), (3, 2)]
    for n, d in schur_sizes:
        build_schur(n, d, 2, field)
    rng = np.random.default_rng(7)
    for t in (5, 6):
        r = Mat(field, rng.integers(0, 3, size=(2, 2)))
        centralizer_algebra([Mat(field, rng.integers(0, 3, size=(t, t)))])
        centralizer_algebra([Mat.block_diag(field, [r, r, Mat(field, rng.integers(0, 3, size=(t - 4, t - 4)))])])
    assert len(terms) == len(schur_sizes) + 4


@pytest.mark.parametrize(
    "build",
    [lambda: build_am(2, GF(3)), lambda: build_am(3, GF(3)), lambda: build_am(2, QQ), lambda: build_am(3, QQ), lambda: build_schur(2, 3, 1, GF(3))],
    ids=["A2-GF3", "A3-GF3", "A2-QQ", "A3-QQ", "S23-GF3"],
)
def test_frame_products_match_the_dense_table_on_end_algebras(monkeypatch, build):
    terms = _checked_against_the_dense_table(monkeypatch)
    modules = [m for m in named_modules(build()) if m.dim > 0]
    before = len(terms)
    for m in modules:
        endomorphism_algebra(m)
    assert len(terms) > before


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)], ids=["QQ", "GF3", "GF5"])
def test_frame_products_match_the_dense_table_on_small_spans(field):
    half = field.inv(field.normalize(2))
    two = Mat.identity(field, 2).scale(field.normalize(2))
    # E12 alone: X X has no term at all, so there is no constant
    e12 = Mat.from_entries(field, 2, 2, {(0, 1): 1})
    # E11 / 2 and E12 / 2 over the frame G = 2 I, read at (0, 0) and (0, 1):
    # over QQ the constants c_000 = c_011 = 1/2 need a denominator
    halves = Mat.vstack([Mat.from_entries(field, 2, 2, {(0, c): half}) for c in (0, 1)])
    cases = [(e12, e12, [0], [1]), (halves, halves @ two, [0, 0], [0, 1])]
    got = [frame_products(*case) for case in cases]
    for triples, case in zip(got, cases):
        want = frame_products_reference(*case)
        assert [x.tolist() for x in triples[:4]] == [x.tolist() for x in want[:4]] and triples.den == want.den
    assert got[0].i.size == 0 and got[0].den == 1
    assert got[1].entries(field) == [(0, 0, 0, half), (0, 1, 1, half)]
