"""Minimal projective resolutions, Ext and Tor, projective dimension.

Resolutions iterate projective covers of successive kernels, so they are
minimal by construction; "terminated" is then equivalent to finite
projective dimension, which the relative-dimension logic relies on.

Ext is computed in slice coordinates, Hom(A e, N) = e N, so cochain
spaces stay small.  Tor is its k-dual: over a field D Tor_i^B(X, Y) is
Ext^i_B(Y, DX) (Cartan and Eilenberg, Homological Algebra, VI.5), so one
slice calculus serves both.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .algebra import opposite
from .linalg import Mat
from .memo import memo
from .modules import (
    Module,
    ModuleError,
    Presentation,
    ProjSum,
    _hom_values,
    _slice_spans,
    dual,
    proj_sum,
    projective_cover_data,
    radical_span,
)


class CapExceeded(RuntimeError):
    """A homological computation needed more resolution steps than the cap."""


@dataclass
class DimValue:
    """Exact(n), AtLeast(n) or Infinite; the standard result of capped computations."""

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
    """Minimal projective resolution, extendable on demand.

    steps[i] is the ProjSum P_i; diffs[0] is the cover P_0 -> M and diffs[i]
    the differential P_i -> P_{i-1}.  ``terminated`` means some kernel was
    zero, i.e. the resolution is finite and complete.
    """

    def __init__(self, module: Module):
        self.module = module
        self.steps: list[ProjSum] = []
        self.diffs: list[Mat] = []
        self.kernels: list = []  # (kernel module, inclusion into P_i)
        self.terminated = False
        self.cap = 0  # largest length bound requested so far
        self._append(projective_cover_data(module), None)

    def _append(self, pres: Presentation, incl: Optional[Mat]) -> None:
        """Add P_i = pres.p0, reaching P_{i-1} through ``incl`` (None at i = 0)."""
        self.steps.append(pres.p0)
        self.diffs.append(pres.cover if incl is None else incl @ pres.cover)
        self.kernels.append(pres.syzygy)
        if pres.syzygy[0].dim == 0:
            self.terminated = True

    def length(self) -> int:
        return len(self.steps) - 1

    def extend_to(self, length: int) -> None:
        """Ensure P_i exists for i <= length (or the resolution terminates)."""
        self.cap = max(self.cap, length)
        while not self.terminated and self.length() < length:
            kmod, kincl = self.kernels[-1]
            self._append(projective_cover_data(kmod), kincl.matrix)

    def is_minimal(self) -> bool:
        """Verify im(d_{i+1}) lies inside rad(P_i)."""
        for i in range(1, len(self.steps)):
            rad = radical_span(self.steps[i - 1].module)
            if not rad.contains(self.diffs[i].transpose()):
                return False
        return True


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
        # last nonzero step: strip trailing zero-dimensional projectives
        ell = res.length()
        while ell > 0 and res.steps[ell].dim == 0:
            ell -= 1
        return DimValue.exact(ell)
    return DimValue.at_least(cap + 1)


# ---------------------------------------------------------------------------
# Ext via slice cochains
# ---------------------------------------------------------------------------


def _hom_induced_matrix(d: Mat, p_from: ProjSum, p_to: ProjSum, n: Module, spans_from, spans_to) -> Mat:
    """Matrix of Hom(P_to, N) -> Hom(P_from, N), phi -> phi o d.

    ``d`` maps P_from -> P_to; spans_* are slice spans of the two ends.
    """
    field = n.algebra.field
    rows_total = sum(sp.dim for sp in spans_from)
    cols_total = sum(sp.dim for sp in spans_to)
    if rows_total == 0 or cols_total == 0:
        return Mat.zeros(field, rows_total, cols_total)
    blocks = []
    for val, spank in zip(_hom_values(d, p_from, p_to, n, spans_to), spans_from):
        coords = spank.coords(val.transpose())
        if coords is None:
            raise ModuleError("cochain value escaped its slice (internal error)")
        blocks.append(coords.transpose())
    return Mat.vstack(blocks)


def ext_space(m: Module, n: Module, degree: int, cap: int = 20) -> tuple[int, Mat]:
    """dim Ext^i(M, N) and the cocycles in slice coordinates: a matrix whose
    columns are a basis of them (no columns when C^i is zero)."""
    if degree < 0:
        raise ValueError("ext degree must be nonnegative")
    if degree + 1 > cap:
        res = minimal_projective_resolution(m, cap)
        if not res.terminated:
            raise CapExceeded(f"Ext^{degree} needs resolution degree {degree + 1} > cap {cap}")
    res = minimal_projective_resolution(m, degree + 1)

    def step(i: int) -> ProjSum:
        if i <= res.length():
            return res.steps[i]
        return proj_sum(m.algebra, [])  # zero beyond a terminated resolution

    spans = {i: _slice_spans(n, step(i)) for i in range(max(degree - 1, 0), degree + 2)}
    dim_i = sum(sp.dim for sp in spans[degree])
    if dim_i == 0:
        return 0, Mat.zeros(n.algebra.field, 0, 0)
    # incoming d_{degree}: C^{degree-1} -> C^{degree}
    if degree == 0:
        img_rank = 0
    else:
        d_in = _diff(res, degree)
        mat_in = _hom_induced_matrix(d_in, step(degree), step(degree - 1), n, spans[degree], spans[degree - 1])
        img_rank = mat_in.rank()
    d_out = _diff(res, degree + 1)
    mat_out = _hom_induced_matrix(d_out, step(degree + 1), step(degree), n, spans[degree + 1], spans[degree])
    kermat = mat_out.kernel()
    return kermat.cols - img_rank, kermat


def _diff(res: Resolution, i: int) -> Mat:
    if i <= res.length():
        return res.diffs[i]
    field = res.module.algebra.field
    target_dim = res.steps[i - 1].dim if i - 1 <= res.length() else 0
    return Mat.zeros(field, target_dim, 0)


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
