"""Minimal projective resolutions, Ext and Tor, projective dimension.

Resolutions iterate projective covers of successive kernels, so they are
minimal by construction; "terminated" is then equivalent to finite
projective dimension, which the relative-dimension logic relies on.

A cochain phi in Hom(P_i, N) is its values on the generators of P_i, read
in the slice bases of e_j N = Hom(A e_j, N), so cochain spaces stay small;
each coboundary is one ``modules._slice_values`` call, the routine that
also forms the Hom relations and maps.  Tor is the k-dual of Ext: over a
field D Tor_i^B(X, Y) is Ext^i_B(Y, DX) (Cartan and Eilenberg, Homological
Algebra, VI.5), so one slice calculus serves both.
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
    _slice_spans,
    _slice_values,
    dual,
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
        # each P_i with i >= 1 covers a nonzero kernel, so P_length is the last nonzero step
        return DimValue.exact(res.length())
    return DimValue.at_least(cap + 1)


# ---------------------------------------------------------------------------
# Ext via slice cochains
# ---------------------------------------------------------------------------


def _slice_bases(n: Module, p: ProjSum) -> list[Mat]:
    """The bases of the slices e_j N of P's summands, as columns."""
    return [span.basis.transpose() for span in _slice_spans(n, p)]


def _coboundary(res: Resolution, n: Module, i: int, bases: list[Mat]) -> Mat:
    """phi -> phi o d_{i+1} from C^i = Hom(P_i, N) in the slice ``bases``
    to C^{i+1} read as the values phi(d_{i+1} g_k) in N, g_k the generators
    of P_{i+1} (no rows when P_{i+1} does not exist).

    Same kernel and rank as in slice coordinates of C^{i+1}: g_k = e_k g_k,
    so phi(d_{i+1} g_k) lies in e_k N and is W_k y_k for its slice
    coordinates y_k and slice basis W_k.  The matrix here is thus
    diag(W_k) times the slice-coordinate one, and diag(W_k) is injective.
    """
    p = res.steps[i]
    if i < res.length():
        cols = res.diffs[i + 1] @ res.steps[i + 1].generators
    else:
        cols = Mat.zeros(n.algebra.field, p.dim, 0)
    return _slice_values(n, p, cols, bases)


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
    bases = _slice_bases(n, res.steps[degree]) if degree <= res.length() else []
    if not sum(w.cols for w in bases):
        return 0, Mat.zeros(n.algebra.field, 0, 0)
    img_rank = _coboundary(res, n, degree - 1, _slice_bases(n, res.steps[degree - 1])).rank() if degree else 0
    kermat = _coboundary(res, n, degree, bases).kernel()
    return kermat.cols - img_rank, kermat


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
