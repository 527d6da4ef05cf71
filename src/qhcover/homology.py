"""Minimal projective resolutions, Ext and Tor, projective dimension.

Resolutions iterate projective covers of successive kernels, so they are
minimal by construction; "terminated" is then equivalent to finite
projective dimension, which the relative-dimension logic relies on.  A
resolution is the chain of memoised presentations of M and its syzygies.

Ext is Hom on syzygies: by the dimension shift (proof in ``ext_space``)
dim Ext^i(M, N) is an alternating sum of the dimensions of the memoised
Hom(Omega^i M, N), Hom(P_{i-1}, N) and Hom(Omega^{i-1} M, N).  Tor is the
k-dual of Ext: over a field D Tor_i^B(X, Y) is Ext^i_B(Y, DX) (Cartan and
Eilenberg, Homological Algebra, VI.5), so consecutive degrees of a Tor
ladder share one Hom space.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import opposite
from .memo import memo
from .modules import (
    HomSpace,
    Module,
    ModuleError,
    ModuleMap,
    Presentation,
    ProjSum,
    _slice_spans,
    dual,
    hom_space,
    projective_cover_data,
    radical_span,
)


class CapExceeded(RuntimeError):
    """A homological computation needed more resolution steps than the cap."""


@dataclass(frozen=True)
class DimValue:
    """Exact(n), AtLeast(n) or Infinite; the standard result of capped
    computations.  Frozen, as memoised results share one."""

    kind: str  # "exact" | "at_least" | "infinite"
    n: int = 0

    @staticmethod
    def exact(n: int) -> "DimValue":
        return DimValue("exact", n)

    @staticmethod
    def at_least(n: int) -> "DimValue":
        return DimValue("at_least", n)

    @staticmethod
    def infinite() -> "DimValue":
        return DimValue("infinite")

    def __str__(self) -> str:
        if self.kind == "exact":
            return f"Exact({self.n})"
        if self.kind == "at_least":
            return f"AtLeast({self.n})"
        return "Infinite"

    def is_infinite(self) -> bool:
        return self.kind == "infinite"

    def at_least_value(self) -> int:
        """A lower bound valid in all three cases (large for infinite)."""
        if self.kind == "infinite":
            return 10**9
        return self.n

    def to_json(self) -> dict:
        if self.kind == "infinite":
            return {"kind": "Infinite"}
        return {"kind": "Exact" if self.kind == "exact" else "AtLeast", "n": self.n}


class Resolution:
    """Minimal projective resolution, extendable on demand, read off the
    chain of presentations of M = Omega^0 M, Omega^1 M, Omega^2 M, ...

    ``presentations[i]`` is projective_cover_data(Omega^i M): its p0 is
    P_i, its syzygy Omega^{i+1} M with the inclusion into P_i, and its d1
    the differential P_{i+1} -> P_i.  ``terminated`` means the last
    syzygy is zero, i.e. the resolution is finite and complete.
    """

    def __init__(self, module: Module):
        self.presentations: list[Presentation] = [projective_cover_data(module)]

    @property
    def steps(self) -> list[ProjSum]:
        """P_0, ..., P_length."""
        return [pres.p0 for pres in self.presentations]

    @property
    def kernels(self) -> list[tuple[Module, ModuleMap]]:
        """Omega^{i+1} M as (kernel module, inclusion into P_i), i = 0..length."""
        return [pres.syzygy for pres in self.presentations]

    @property
    def terminated(self) -> bool:
        return self.presentations[-1].syzygy[0].dim == 0

    def length(self) -> int:
        return len(self.presentations) - 1

    def extend_to(self, length: int) -> None:
        """Ensure P_i exists for i <= length (or the resolution terminates)."""
        while not self.terminated and self.length() < length:
            self.presentations.append(projective_cover_data(self.presentations[-1].syzygy[0]))

    def is_minimal(self) -> bool:
        """Verify im(d_{i+1}) lies inside rad(P_i)."""
        return all(radical_span(pres.p0.module).contains(pres.d1.transpose()) for pres in self.presentations[:-1])


def minimal_projective_resolution(m: Module, cap: int) -> Resolution:
    """Iterated projective covers, cached on the module and extended as needed."""
    if cap < 0:
        raise ValueError("resolution cap must be nonnegative")
    res = memo(m, "_resolution", lambda: Resolution(m))
    res.extend_to(cap)
    return res


def projective_dimension(m: Module, cap: int = 20) -> DimValue:
    res = minimal_projective_resolution(m, cap)
    if res.terminated:
        # each P_i with i >= 1 covers a nonzero kernel, so P_length is the last nonzero step
        return DimValue.exact(res.length())
    return DimValue.at_least(cap + 1)


# ---------------------------------------------------------------------------
# Ext by dimension shift
# ---------------------------------------------------------------------------


def ext_space(m: Module, n: Module, degree: int, cap: int = 20) -> tuple[int, HomSpace]:
    """dim Ext^i(M, N), and Hom(Omega^i M, N), which maps onto Ext^i: its
    maps are the cocycles, as maps from the i-th syzygy (Omega^0 M = M).

    As Ext^j(P, N) = 0 for projective P and j >= 1, Hom(-, N) turns
    0 -> Omega^i M -> P_{i-1} -> Omega^{i-1} M -> 0 into the exact sequence
    0 -> Hom(Omega^{i-1} M, N) -> Hom(P_{i-1}, N) -> Hom(Omega^i M, N)
    -> Ext^1(Omega^{i-1} M, N) -> 0, and Ext^i(M, N) = Ext^1(Omega^{i-1} M, N)
    (Cartan and Eilenberg, Homological Algebra, V-VI).  So for i >= 1
    dim Ext^i(M, N) = dim Hom(Omega^i M, N) - dim Hom(P_{i-1}, N)
    + dim Hom(Omega^{i-1} M, N), Hom(P_{i-1}, N) being the product of the
    slices e_j N.  Past a terminated resolution Omega^i M = 0 and Ext^i = 0.
    """
    if degree < 0:
        raise ValueError("ext degree must be nonnegative")
    if degree + 1 > cap:
        res = minimal_projective_resolution(m, cap)
        if not res.terminated:
            raise CapExceeded(f"Ext^{degree} needs resolution degree {degree + 1} > cap {cap}")
    if degree == 0:
        hs = hom_space(m, n)
        return hs.dim, hs
    res = minimal_projective_resolution(m, degree - 1)
    if degree - 1 > res.length():
        return 0, hom_space(res.presentations[-1].syzygy[0], n)  # from the zero syzygy
    pres = res.presentations[degree - 1]  # P_{i-1} -> Omega^{i-1} M, syzygy Omega^i M
    hs = hom_space(pres.syzygy[0], n)
    p_dim = sum(span.dim for span in _slice_spans(n, pres.p0))
    return hs.dim - p_dim + hom_space(pres.module, n).dim, hs


def ext_dim(m: Module, n: Module, degree: int, cap: int = 20) -> int:
    return ext_space(m, n, degree, cap)[0]


# ---------------------------------------------------------------------------
# Tor as the k-dual of Ext
# ---------------------------------------------------------------------------


def tor_dim(x: Module, y: Module, degree: int, cap: int = 20) -> int:
    """dim Tor_i^B(x, y) where x is a right B-module given over opposite(B).

    Computed as dim Ext^i_B(y, D x), its k-dual, from the same minimal
    resolution of y; the cap applies to that resolution as in ``ext_space``.
    """
    if degree < 0:
        raise ValueError("tor degree must be nonnegative")
    if opposite(y.algebra) is not x.algebra:
        raise ModuleError("tor_dim: x must be a module over opposite of y's algebra")
    return ext_dim(y, dual(x), degree, cap)
