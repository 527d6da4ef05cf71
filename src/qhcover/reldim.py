"""Relative dominant and codominant dimension with respect to a module.

Two independent algorithms are provided and cross-checked in the tests:

* the default method computes B = End(Q)^op, the evaluation map
  Q tensor_B Hom(Q, M) -> M and a ladder of Tor groups over B
  (cohomological characterization);
* the chain method iterates surjective right add(Q)-approximations on
  successive kernels and reports the witness chain.  Its steps are
  memoised per pair of contents and cap, as plain records that hold
  neither module, so twins of (Q, M) walk the chain once.

Infinity is only claimed when the minimal resolution over B terminates;
otherwise the result is capped as AtLeast(cap).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import NamedTuple, Optional

from .algebra import Algebra, basic_algebra, opposite
from .homology import DimValue, minimal_projective_resolution, tor_dim
from .linalg import Mat, Subspace
from .memo import memo_pair
from .modules import (
    Module,
    ModuleMap,
    _indec_projective,
    counit_analysis,
    direct_sum,
    dual,
    dual_map,
    end_algebra_with_bimodule,
    hom_into_q_as_right_module,
    hom_space,
    indecomposable_summands,
    indecomposables_isomorphic,
    induced_map_on_hom_into_q,
    quotient_module,
    regular_module,
    summand_matches,
    zero_module,
)

__all__ = [
    "DimValue",
    "ApproximationChain",
    "ChainStep",
    "RelDimReport",
    "right_add_approximation",
    "left_add_approximation",
    "relative_codomdim",
    "relative_domdim",
    "codomdim_chain",
    "domdim_chain",
    "find_projective_injectives",
    "classical_domdim",
    "classical_domdim_of_module",
    "classical_codomdim_of_module",
    "reduced_cograde",
]


class ChainStep(NamedTuple):
    """One approximation step q^h -> K, K the current kernel: its matrix,
    the two dimensions and whether it is onto."""

    matrix: Mat
    source_dim: int
    target_dim: int
    surjective: bool


@dataclass
class ApproximationChain:
    """Witness chain of approximation steps on successive kernels of ``base``.

    The steps are shared by every chain on a pair with the same contents
    and cap; ``base`` is the module asked for.
    """

    base: Module
    steps: list[ChainStep] = dc_field(default_factory=list)

    def to_json(self) -> dict:
        steps = []
        for f in self.steps:
            field = f.matrix.field
            matrix = [[field.to_str(f.matrix[i, j]) for j in range(f.matrix.cols)] for i in range(f.matrix.rows)]
            steps.append({"source_dim": f.source_dim, "target_dim": f.target_dim, "surjective": f.surjective, "matrix": matrix})
        return {"steps": steps}


@dataclass
class RelDimReport:
    value: DimValue
    method: str
    b_dim: Optional[int] = None
    tor_dims: list[int] = dc_field(default_factory=list)
    witness: Optional[ApproximationChain] = None

    def to_json(self) -> dict:
        out = {"value": self.value.to_json(), "method": self.method}
        if self.b_dim is not None:
            out["B_dim"] = self.b_dim
        if self.tor_dims:
            out["tor_dims"] = self.tor_dims
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        return out


def right_add_approximation(q: Module, m: Module) -> ModuleMap:
    """Evaluation map q^h -> m assembled from a Hom basis (h = dim Hom(q, m)).

    Any map from add(q) factors through it, so it is a right add(q)-
    approximation; surjectivity is what the chain method branches on.
    """
    hs = hom_space(q, m)
    if hs.dim == 0:
        z = zero_module(m.algebra)
        return ModuleMap(z, m, Mat.zeros(m.algebra.field, m.dim, 0))
    if hs.dim == 1:
        return hs.maps[0]
    source, _, _ = direct_sum([q] * hs.dim)
    return ModuleMap(source, m, hs.side_by_side())


def left_add_approximation(q: Module, m: Module) -> ModuleMap:
    """Dual of the right approximation of the duals; kernel 0 iff injective."""
    rap = right_add_approximation(dual(q), dual(m))
    if rap.source.dim == 0:
        z = zero_module(m.algebra)
        return ModuleMap(m, z, Mat.zeros(m.algebra.field, 0, m.dim))
    return dual_map(rap)


def _split_off_add_q(m: Module, q: Module) -> Module:
    """Complement of the add(q)-part in a decomposition of m.

    Kernels of canonical approximations carry split add(q) summands; by the
    direct-sum rule those contribute value infinity, so dropping them keeps
    the computed value and lets the chain terminate.
    """
    if m.dim == 0:
        return m
    keep = [s for s, j in summand_matches(m, [t for t, _, _ in indecomposable_summands(q)]) if j is None]
    if not keep:
        return zero_module(m.algebra)
    if len(keep) == 1:
        return keep[0]
    return direct_sum(keep)[0]


def codomdim_chain(q: Module, m: Module, cap: int) -> tuple[DimValue, ApproximationChain]:
    """Chain oracle: iterate right approximations on successive kernels.

    After each surjective step the split add(q)-part of the kernel is
    dropped (it has infinite value, and value of a direct sum is the min).
    The value and the steps are memoised per pair of contents and cap.
    """
    if cap < 2:
        raise ValueError("relative dimension cap must be at least 2")
    value, steps = memo_pair(q, m, f"_chain{cap}", lambda: _chain_steps(q, m, cap))
    return value, ApproximationChain(base=m, steps=list(steps))


def _chain_steps(q: Module, m: Module, cap: int) -> tuple[DimValue, tuple[ChainStep, ...]]:
    steps: list[ChainStep] = []
    current = _split_off_add_q(m, q)
    for step in range(cap):
        if current.dim == 0:
            return DimValue.infinite(), tuple(steps)
        f = right_add_approximation(q, current)
        surj = f.is_surjective()
        steps.append(ChainStep(f.matrix, f.source.dim, f.target.dim, surj))
        if not surj:
            return DimValue.exact(step), tuple(steps)
        current = _split_off_add_q(f.kernel_submodule()[0], q)
    return DimValue.at_least(cap), tuple(steps)


def domdim_chain(q: Module, m: Module, cap: int) -> tuple[DimValue, ApproximationChain]:
    """Chain oracle on the dual side."""
    return codomdim_chain(dual(q), dual(m), cap)


def relative_codomdim(q: Module, m: Module, cap: int = 20) -> RelDimReport:
    """Codominant dimension of m with respect to q (cohomological method).

    Value 0: no surjective right approximation (evaluation not surjective).
    Value 1: evaluation surjective but not bijective.  Value >= 2: 1 plus
    the first degree with nonvanishing Tor^B(q, Hom(q, m)); infinite when
    the minimal resolution of Hom(q, m) over B terminates with all the Tor
    groups zero.
    """
    if cap < 2:
        raise ValueError("relative dimension cap must be at least 2")
    if m.dim == 0:
        return RelDimReport(DimValue.infinite(), "mueller", b_dim=None)
    cd = counit_analysis(q, m)
    b_dim = cd.b.dim
    if not cd.surjective:
        return RelDimReport(DimValue.exact(0), "mueller", b_dim=b_dim)
    if not cd.bijective:
        return RelDimReport(DimValue.exact(1), "mueller", b_dim=b_dim)
    x = end_algebra_with_bimodule(q)[1].right  # q as module over opposite(B)
    value, tor_dims = _tor_ladder(x, cd.hom_module, cap - 2, cap)
    if value.kind == "exact":
        value = DimValue.exact(value.n + 1)
    return RelDimReport(value, "mueller", b_dim=b_dim, tor_dims=tor_dims)


def _tor_ladder(x: Module, y: Module, last: int, cap: int) -> tuple[DimValue, list[int]]:
    """The first degree i >= 1 with Tor_i(x, y) != 0, and the Tor dimensions read.

    Infinite when the minimal resolution of y terminates before a nonzero
    Tor; AtLeast(cap) when degree ``last`` is passed on a resolution that
    has not terminated within ``cap`` steps.
    """
    tor_dims: list[int] = []
    i = 1
    while True:
        res = minimal_projective_resolution(y, min(i + 1, cap))
        if res.terminated and i > res.length():
            return DimValue.infinite(), tor_dims
        if not res.terminated and i > last:
            return DimValue.at_least(cap), tor_dims
        t = tor_dim(x, y, i, cap=max(cap, i + 1))
        tor_dims.append(t)
        if t != 0:
            return DimValue.exact(i), tor_dims
        i += 1


def relative_domdim(q: Module, m: Module, cap: int = 20) -> RelDimReport:
    """Dominant dimension via duality: Q-domdim M = DQ-codomdim DM over A^op."""
    report = relative_codomdim(dual(q), dual(m), cap)
    return RelDimReport(report.value, "mueller-dual", b_dim=report.b_dim, tor_dims=report.tor_dims)


def _proj_inj_classes(x: Algebra) -> list[int]:
    """The classes of x whose indecomposable projective is also injective.

    P_i = x e_i and I_j = D(e_j x) are indecomposable by construction, so
    the certified test ``indecomposables_isomorphic`` decides each pair of
    equal dimension.
    """
    xop = opposite(x)
    injectives = [dual(_indec_projective(xop, ci)[0]) for ci in range(xop.primitive_idempotents().n_blocks)]
    projectives = (_indec_projective(x, ci)[0] for ci in range(x.primitive_idempotents().n_blocks))
    return [ci for ci, p in enumerate(projectives) if any(i.dim == p.dim and indecomposables_isomorphic(p, i) is not None for i in injectives)]


def _proj_inj_module(x: Algebra, classes: list[int]) -> Module:
    keep = [_indec_projective(x, ci)[0] for ci in classes]
    if not keep:
        return zero_module(x)
    if len(keep) == 1:
        return keep[0]
    return direct_sum(keep, name="proj-inj")[0]


def find_projective_injectives(a: Algebra) -> Module:
    """Multiplicity-free direct sum of the projective-injective indecomposables.

    The classes are found on the basic algebra B = eAe: A e_i is injective
    exactly when its image B e_i under the Morita equivalence is.
    """
    return _proj_inj_module(a, _proj_inj_classes(basic_algebra(a)[0]))


def classical_domdim(a: Algebra, cap: int = 20) -> tuple[RelDimReport, int]:
    """Dominant dimension of the algebra, relative to its projective-injective
    part P, and dim P.

    Dominant dimension depends only on add(P) and add(A), so it is computed
    on the basic algebra B = eAe, relative to the projective-injective part
    eP of B.  The value and ``b_dim`` are A's: End_B(eP) = End_A(P), and
    add(eA) = add(B).  ``tor_dims`` are read over B, so they differ from A's
    by the multiplicities of A's indecomposable projectives.

    dim P is read on B too, and no module over A is built.  P is the sum of
    the A e_i over the projective-injective classes i, and
    dim A e_i = sum over classes c of s_c dim e_c B e_i, s_c the number of
    A's primitive idempotents in class c and e_c B's class-c idempotent.
    A's primitive idempotents f are orthogonal and sum to 1, so A e_i is the
    sum of the f A e_i.  An f in class c is equivalent to e_c, so
    dim f A e_i = dim Hom_A(A f, A e_i) = dim e_c A e_i.  And
    e_c A e_i = e_c (eAe) e_i, as e e_c = e_c and e_i e = e_i.  B's class c
    is A's class c (``basic_algebra`` seeds it so), and dim e_c B e_i is the
    rank of e_c acting on B e_i.
    """
    b = basic_algebra(a)[0]
    classes = _proj_inj_classes(b)
    if not classes:
        return RelDimReport(DimValue.exact(0), "mueller-dual", b_dim=0), 0
    block_of = a.primitive_idempotents().block_of
    prim = b.primitive_idempotents()
    p_dim = sum(
        block_of.count(c) * _indec_projective(b, i)[0].act(prim.idempotents[r]).rank()
        for i in classes
        for c, r in enumerate(prim.class_reps)
    )
    return relative_domdim(_proj_inj_module(b, classes), regular_module(b), cap), p_dim


def classical_domdim_of_module(a: Algebra, m: Module, cap: int = 20) -> RelDimReport:
    p = find_projective_injectives(a)
    if p.dim == 0:
        return RelDimReport(DimValue.exact(0), "mueller-dual", b_dim=0)
    return relative_domdim(p, m, cap)


def classical_codomdim_of_module(a: Algebra, m: Module, cap: int = 20) -> RelDimReport:
    p = find_projective_injectives(a)
    if p.dim == 0:
        return RelDimReport(DimValue.exact(0), "mueller", b_dim=0)
    return relative_codomdim(p, m, cap)


def reduced_cograde(x: Module, m: Module, cap: int = 20) -> DimValue:
    """First positive degree with Tor_i^A(x, m) != 0.

    ``x`` is a right A-module encoded over opposite(A); ``m`` is a left
    A-module.  Infinite when the resolution of m terminates with all Tor
    vanishing; AtLeast(cap) when the ladder is exhausted.
    """
    if cap < 1:
        raise ValueError("cograde cap must be at least 1")
    return _tor_ladder(x, m, cap - 1, cap)[0]


def cograde_cross_check(q: Module, y: Module, cap: int = 8):
    """Both sides of the reduced-cograde reformulation of Q-domdim.

    Builds an add(q)-presentation Q1 -> Q0 -> y -> 0 from two chain steps
    (requires them to be surjective), forms X = coker Hom(f, q) as a right
    End(q)^op-module, and returns (Q-domdim y, cograde_{DQ} X).  The theorem
    asserts domdim >= n iff cograde >= n + 1.
    """
    f1 = right_add_approximation(q, y)
    if not f1.is_surjective():
        return None
    k, kincl = f1.kernel_submodule()
    if k.dim == 0:
        q1 = zero_module(y.algebra)
        f = ModuleMap(q1, f1.source, Mat.zeros(y.algebra.field, f1.source.dim, 0))
    else:
        f2 = right_add_approximation(q, k)
        if not f2.is_surjective():
            return None
        f = ModuleMap(f2.source, f1.source, kincl.matrix @ f2.matrix)
    # X = coker(Hom(Q0, q) -> Hom(Q1, q)), with Q0 = f1.source the target of f
    x_total, hom_q1 = hom_into_q_as_right_module(q, f.source)
    induced = induced_map_on_hom_into_q(f, hom_space(f1.source, q), hom_q1)
    span = Subspace.from_columns(induced)
    xmod, _ = quotient_module(x_total, span)
    b, bim, _ = end_algebra_with_bimodule(q)
    dq = dual(bim.right)  # DQ as a left B-module
    domdim = relative_domdim(q, y, cap).value
    cograde = reduced_cograde(xmod, dq, cap + 1)
    return domdim, cograde
