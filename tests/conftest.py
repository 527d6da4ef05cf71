"""Shared constructors for the test suite."""

import pytest

from qhcover.algebra import from_structure_constants
from qhcover.fields import GF, QQ
from qhcover.linalg import Mat
from qhcover.modules import Module, regular_module
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


@pytest.fixture(scope="session")
def a2_gf3():
    return make_am_algebra(2, GF(3))


@pytest.fixture(scope="session")
def a3_gf3():
    return make_am_algebra(3, GF(3))


@pytest.fixture(scope="session")
def a2_qq():
    return make_am_algebra(2, QQ)
