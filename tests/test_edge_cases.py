"""Adversarial instances for the delicate algorithms."""

import numpy as np
import pytest

from qhcover.algebra import AlgebraError, from_structure_constants
from qhcover.fields import GF
from qhcover.modules import regular_module, top
from qhcover.qh import WeightPoset, verify_split_qh
from qhcover.reldim import classical_domdim, relative_codomdim, codomdim_chain

F2, F3 = GF(2), GF(3)


def cyclic_group_algebra(field, k):
    """field[C_k] on the group basis."""
    mult = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        for j in range(k):
            mult[i][j][(i + j) % k] = 1
    one = [1] + [0] * (k - 1)
    return from_structure_constants(field, k, mult, one)


def klein_four_group_algebra(field):
    mult = np.zeros((4, 4, 4), dtype=np.int64)
    for i in range(4):
        for j in range(4):
            mult[i][j][i ^ j] = 1
    return from_structure_constants(field, 4, mult, [1, 0, 0, 0])


def test_radical_gf2_c4_needs_deep_layers():
    # GF(2)[C_4] = GF(2)[y]/(y^4): radical dim 3, invisible to the trace form
    a = cyclic_group_algebra(F2, 4)
    assert a.radical_subspace().dim == 3
    from test_algebra import brute_force_radical_dim

    assert brute_force_radical_dim(a) == 3


def test_radical_gf2_klein_four():
    a = klein_four_group_algebra(F2)
    assert a.radical_subspace().dim == 3
    from test_algebra import brute_force_radical_dim

    assert brute_force_radical_dim(a) == 3


def test_radical_gf3_c9():
    # GF(3)[C_9] = GF(3)[y]/(y^9): radical dim 8, several p-power layers
    a = cyclic_group_algebra(F3, 9)
    assert a.radical_subspace().dim == 8


def test_non_split_field_extension_rejected():
    # GF(2)[x]/(x^2 + x + 1) = GF(4): semisimple but not split over GF(2)
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0][0][0] = mult[0][1][1] = mult[1][0][1] = 1
    mult[1][1][0] = 1  # x^2 = x + 1
    mult[1][1][1] = 1
    a = from_structure_constants(F2, 2, mult, [1, 0])
    assert a.radical_subspace().dim == 0
    with pytest.raises(AlgebraError, match="split"):
        a.primitive_idempotents()


def test_matrix_algebra_gf2_size3():
    from test_algebra import matrix_algebra

    a = matrix_algebra(F2, 3)
    prim = a.primitive_idempotents()
    assert len(prim) == 3 and prim.n_blocks == 1


def test_self_injective_group_algebra_domdim_infinite():
    # GF(2)[C_2] is self-injective: the regular module is projective-injective
    a = cyclic_group_algebra(F2, 2)
    v, p_dim = classical_domdim(a, 6)
    assert p_dim == 2
    assert v.value.is_infinite()


def test_local_non_qh_algebra_fails_verification():
    # GF(3)[y]/(y^2): End(Delta(1)) = A has dimension 2, so axiom (iii) fails
    mult = np.zeros((2, 2, 2), dtype=np.int64)
    mult[0][0][0] = mult[0][1][1] = mult[1][0][1] = 1
    a = from_structure_constants(F3, 2, mult, [1, 0])
    prim = a.primitive_idempotents()
    poset = WeightPoset(["1"], [], [prim.idempotents[0]])
    report, _ = verify_split_qh(a, poset)
    assert not report.passed
    assert "End(Delta" in report.first_failure()


def test_cap_censoring_is_consistent():
    # a value-2 instance computed at cap 2 reports AtLeast(2), never a wrong Exact
    from qhcover.gallery import build_am
    from qhcover.modules import dual
    from qhcover.algebra import opposite

    g = build_am(2, F3)
    p2 = g.qh.projectives[1]
    da = dual(regular_module(opposite(g.algebra)))
    full = relative_codomdim(p2, da, 6).value
    assert str(full) == "Exact(2)"
    capped = relative_codomdim(p2, da, 2).value
    assert capped.kind in ("exact", "at_least")
    if capped.kind == "at_least":
        assert capped.n <= 2
    else:
        assert capped.n == 2
    cv, _ = codomdim_chain(p2, da, 2)
    assert cv.kind == "at_least" and cv.n == 2


def test_nonterminating_chain_capped():
    # GF(2)[C_2]: the simple module has a periodic resolution; with q the
    # regular module the chain keeps finding nonzero kernels up to the cap
    a = cyclic_group_algebra(F2, 2)
    reg = regular_module(a)
    s = top(reg)[0]
    v, chain = codomdim_chain(reg, s, 5)
    assert v.is_infinite() or v.kind in ("exact", "at_least")
    mv = relative_codomdim(reg, s, 5).value
    assert str(mv) == str(v)
