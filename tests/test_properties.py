"""Cross-cutting laws from the theory, asserted on constructed instances:
long-exact-sequence additivity, the chain-continuation bound, the cokernel
criterion, direct-sum rule, duality exactness, and hom-dimension slices."""

import numpy as np
import pytest

from qhcover.fields import GF
from qhcover.gallery import build_am
from qhcover.homology import ext_dim
from qhcover.linalg import Mat, Subspace
from qhcover.modules import (
    direct_sum,
    dual,
    dual_map,
    hom_space,
    regular_module,
    submodule,
    top,
)
from qhcover.reldim import (
    codomdim_chain,
    find_projective_injectives,
    relative_codomdim,
    relative_domdim,
)

F3 = GF(3)


@pytest.fixture(scope="module")
def am3():
    return build_am(3, F3)


@pytest.fixture(scope="module")
def am4():
    return build_am(4, F3)


def test_hom_dim_equals_idempotent_slice(am3):
    # dim Hom(P(i), M) = dim e_i M on quiver-provenance algebras
    g = am3
    named = g.named_modules()
    for i in range(3):
        e = g.algebra.basis_element(i)
        p = g.qh.projectives[i]
        for m in named.values():
            slice_dim = m.act(e).rank()
            assert hom_space(p, m).dim == slice_dim


def test_dual_exactness(am3):
    # dual of a surjection is an injection with matching ranks
    g = am3
    p2 = g.qh.projectives[1]
    s2 = top(p2)[0]
    cover_map = hom_space(p2, s2).maps[0]
    assert cover_map.is_surjective()
    d = dual_map(cover_map)
    assert d.is_injective()
    assert d.matrix.rank() == cover_map.matrix.rank()


def test_direct_sum_rule(am3):
    # value on a direct sum is the minimum of the values
    g = am3
    q = find_projective_injectives(g.algebra)
    named = list(g.named_modules().values())
    rng = np.random.default_rng(9)
    for _ in range(8):
        i, j = rng.integers(0, len(named), size=2)
        m1, m2 = named[int(i)], named[int(j)]
        both = direct_sum([m1, m2])[0]
        v = relative_codomdim(q, both, 7).value
        v1 = relative_codomdim(q, m1, 7).value
        v2 = relative_codomdim(q, m2, 7).value
        expected = min(v1.at_least_value(), v2.at_least_value())
        assert v.at_least_value() == min(expected, v.at_least_value())
        if v1.kind == v2.kind == "exact":
            assert v.kind == "exact" and v.n == min(v1.n, v2.n)


def _domdim_chain_witness(q, m, cap):
    """Coresolution 0 -> m -> X_1 -> ... from the dual-side chain witness."""
    value, chain = codomdim_chain(dual(q), dual(m), cap)
    return value, chain


def _step_kernel(q, step):
    """The kernel of a chain step q^h -> K, as a submodule of q^h."""
    source = direct_sum([q] * (step.source_dim // q.dim))[0]
    return submodule(source, Subspace(q.algebra.field, source.dim, step.matrix.kernel().transpose()))[0]


def test_chain_continuation_bound(am4):
    # a chain of length n-1 that continues exactly by one more add(Q) term
    # certifies value >= n+1: check on prefixes of a long witness chain
    g = am4
    q = find_projective_injectives(g.algebra)
    reg = regular_module(g.algebra)
    value = relative_domdim(q, reg, 10).value
    assert str(value) == "Exact(6)"  # domdim A_4 = 6
    chain_value, chain = _domdim_chain_witness(q, reg, 10)
    assert str(chain_value) == "Exact(6)"
    # every surjective prefix of length k with one more term certifies >= k+1,
    # consistent with the final value
    completed = sum(1 for s in chain.steps if s.surjective)
    for k in range(1, completed):
        assert value.at_least_value() >= k + 1


def test_cokernel_criterion(am3):
    # for q with no self-extensions, an exact add(q)-coresolution of length n
    # with cokernel in perp(q) certifies value >= n (and conversely)
    g = am3
    q = find_projective_injectives(g.algebra)
    for i in range(1, 4):
        assert ext_dim(q, q, i) == 0
    reg = regular_module(g.algebra)
    n_val = relative_domdim(q, reg, 10).value
    assert str(n_val) == "Exact(4)"
    # build the dual-side chain and inspect the final cokernel
    value, chain = codomdim_chain(dual(q), dual(reg), 10)
    # kernels on the dual side correspond to cokernels of the coresolution;
    # after 4 surjective steps the running kernel K satisfies Ext^{>0}(D K, q) = 0
    current = dual(reg)
    for step, f in enumerate(chain.steps):
        if not f.surjective:
            break
        ker = _step_kernel(dual(q), f)
        current = ker
        if step + 1 == 4:
            cok = dual(ker) if ker.dim else None
            if cok is not None:
                for i in range(1, 4):
                    assert ext_dim(cok, q, i) == 0
            break


def test_long_exact_sequence_additivity(am3, am4):
    # 0 -> M -> Q_1 -> ... -> Q_t -> X -> 0 exact with Ext^i(X, Q) = 0 for
    # i <= t gives Q-domdim M = t + Q-domdim X
    for g in (am3, am4):
        q = find_projective_injectives(g.algebra)
        reg = regular_module(g.algebra)
        full = relative_domdim(q, reg, 12).value
        assert full.kind == "exact"
        value, chain = codomdim_chain(dual(q), dual(reg), 12)
        # cut the dual chain after t surjective steps: X = dual of the kernel
        kers = []
        for f in chain.steps:
            if not f.surjective:
                break
            kers.append(_step_kernel(dual(q), f))
        for t in range(1, len(kers)):
            x = dual(kers[t - 1])
            if any(ext_dim(x, q, i) != 0 for i in range(1, t + 1)):
                continue
            rest = relative_domdim(q, x, 12).value
            if rest.kind == "exact":
                assert full.n == t + rest.n, (g.m, t, full.n, rest.n)


def test_socle_top_duality(am3):
    # top and socle swap under duality, with matching dimensions
    from qhcover.modules import socle

    g = am3
    for p in g.qh.projectives:
        t_dim = top(p)[0].dim
        s_dim = socle(p)[0].dim
        dp = dual(p)
        assert top(dp)[0].dim == s_dim
        assert socle(dp)[0].dim == t_dim


def test_resolution_minimality(am3):
    from qhcover.homology import minimal_projective_resolution

    g = am3
    for s in g.simples:
        res = minimal_projective_resolution(s, 4)
        assert res.is_minimal()
