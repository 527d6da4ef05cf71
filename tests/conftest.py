"""Shared constructors for the test suite."""

import numpy as np
import pytest

from qhcover.algebra import from_structure_constants
from qhcover.fields import GF, QQ
from qhcover.gallery import build_schur
from qhcover.linalg import Mat, MatrixBasis, Subspace
from qhcover.modules import Module, ModuleError, ModuleMap, regular_module
from qhcover.quiver import Arrow, QuiverPresentation, from_quiver


def make_am_algebra(m, field):
    """The bound quiver algebra with arrows i <-> i+1 and the zigzag relations."""
    if m == 1:
        return from_quiver(QuiverPresentation(1, [], []), field)
    arrows = []
    for i in range(m - 1):
        arrows.append(Arrow(f"a{i + 1}", i, i + 1))
    for i in range(m - 1):
        arrows.append(Arrow(f"b{i + 1}", i + 1, i))
    a_idx = lambda i: i - 1
    b_idx = lambda i: (m - 1) + i - 1
    relations = []
    for i in range(2, m):
        relations.append([(1, (a_idx(i), a_idx(i - 1)))])  # a_i a_{i-1} = 0
        relations.append([(1, (b_idx(i - 1), b_idx(i)))])  # b_{i-1} b_i = 0
    relations.append([(1, (b_idx(1), a_idx(1)))])  # b_1 a_1 = 0
    for i in range(2, m):
        # b_i a_i = a_{i-1} b_{i-1}
        relations.append([(1, (b_idx(i), a_idx(i))), (-1, (a_idx(i - 1), b_idx(i - 1)))])
    return from_quiver(QuiverPresentation(m, arrows, relations), field)


def broken_truncated_polynomial_module():
    """GF(2)[x]/(x^4) on 1, x, x^2, x^3 and its regular action with rho(x^3)
    replaced by 0: multiplicative on every pair of generators (x is the only
    one), but rho(x * x^2) != rho(x) rho(x^2)."""
    n = 4
    mult = [[[int(i + j == k) for k in range(n)] for j in range(n)] for i in range(n)]
    a = from_structure_constants(GF(2), n, mult, [1, 0, 0, 0])
    action = regular_module(a).action[:3] + [Mat.zeros(a.field, n, n)]
    return a, Module(a, action)


def hom_space_naive(m, n):
    """Oracle for ``modules.hom_space``: one intertwiner solve over the
    algebra generators, F rho_M(g) = rho_N(g) F, as a list of matrices."""
    a = m.algebra
    t, s = n.dim, m.dim
    if t == 0 or s == 0:
        return []
    id_t, id_s = Mat.identity(a.field, t), Mat.identity(a.field, s)
    # rows: entries of F rho_M(g) - rho_N(g) F, unknowns vec(F) row-major
    rows = [id_t.kron(m.act(g).transpose()) - n.act(g).kron(id_s) for g in a.generator_elements()]
    ker = Mat.vstack(rows).kernel()
    return [ker.take_cols([c]).reshape(t, s) for c in range(ker.cols)]


def submodule_naive(m, span):
    """Oracle for ``modules.submodule``: each action matrix on its own, the
    images g W of the span's basis W in coordinates of the span."""
    w = span.basis.transpose()  # columns = basis
    action = []
    for g in m.action:
        img = (g @ w).transpose()
        coords = span.coords(img)
        if coords is None:
            raise ModuleError("subspace is not invariant under the action")
        action.append(coords.transpose())
    sub = Module(m.algebra, action)
    return sub, ModuleMap(sub, m, w)


def quotient_module_naive(m, span):
    """Oracle for ``modules.quotient_module``: proj g sect for each action
    matrix g, with the quotient coordinates and the non-pivot section."""
    ident = Mat.identity(m.algebra.field, m.dim)
    proj = span.quotient_coords(ident).transpose()  # (q x t)
    sect = ident.take_cols(span.nonpivots)
    quot = Module(m.algebra, [proj @ (g @ sect) for g in m.action])
    return quot, ModuleMap(m, quot, proj)


def combine_rep_naive(a, x):
    """rep(x) = sum_i x_i rep(b_i), one scaled matrix per nonzero coordinate."""
    mats = a.rep_matrices()
    acc = Mat.zeros(a.field, mats[0].rows, mats[0].cols)
    for i in range(a.dim):
        if x[i, 0] != 0:
            acc = acc + mats[i].scale(x[i, 0])
    return acc


def corner_rep_naive(a, e, incl):
    """Oracle for the rep of ``algebra.corner_algebra(a, e)``: rep(incl_c)
    on the image of rep(e), in the basis of its reduced rows, or None."""
    img = Subspace.from_columns(combine_rep_naive(a, e))
    if img.dim == 0:
        return None
    w = img.basis.transpose()  # columns: basis of e.V
    wb = MatrixBasis([w.take_cols([j]) for j in range(w.cols)])
    return [wb.flat_coords(combine_rep_naive(a, incl.take_cols([c])) @ w) for c in range(incl.cols)]


def stored_arrays(a):
    """The arrays an algebra holds in its attributes, inside tuples and Mats
    too, apart from its faithful representation ``_rep`` (a list of Mats)."""
    found = []

    def walk(x):
        if isinstance(x, np.ndarray):
            found.append(x)
        elif isinstance(x, Mat):
            found.append(x.data)
        elif isinstance(x, tuple):
            for y in x:
                walk(y)

    for key, value in vars(a).items():
        if key != "_rep":
            walk(value)
    return found


@pytest.fixture(scope="session")
def a2_gf3():
    return make_am_algebra(2, GF(3))


@pytest.fixture(scope="session")
def a3_gf3():
    return make_am_algebra(3, GF(3))


@pytest.fixture(scope="session")
def a2_qq():
    return make_am_algebra(2, QQ)


@pytest.fixture(scope="session")
def schur33_gf3():
    return build_schur(3, 3, 1, GF(3))


@pytest.fixture(scope="session")
def schur33_gf2():
    return build_schur(3, 3, 1, GF(2))
