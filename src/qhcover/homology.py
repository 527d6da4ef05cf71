"""Minimal projective resolutions, Ext and Tor, projective dimension.

Resolutions iterate projective covers of successive kernels, so they are
minimal by construction; "terminated" is then equivalent to finite
projective dimension, which the relative-dimension logic relies on.

Ext and Tor are computed in slice coordinates: Hom(A e, N) = e N and
(x tensor_B B e) = x e, so cochain/chain spaces stay small.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Mat, Subspace
from .modules import (
    Module,
    ModuleError,
    ProjSum,
    proj_sum,
    projective_cover_data,
    right_slice,
    submodule,
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
        self._build_step_zero()

    def _build_step_zero(self):
        pres = projective_cover_data(self.module)
        self.steps.append(pres.p0)
        self.diffs.append(pres.cover)
        ker = pres.cover.kernel()
        kspan = Subspace(self.module.algebra.field, pres.p0.dim, ker.transpose())
        kmod, kincl = submodule(pres.p0.module, kspan)
        self.kernels.append((kmod, kincl))
        if kmod.dim == 0:
            self.terminated = True

    def length(self) -> int:
        return len(self.steps) - 1

    def extend_to(self, length: int) -> None:
        """Ensure P_i exists for i <= length (or the resolution terminates)."""
        self.cap = max(self.cap, length)
        while not self.terminated and self.length() < length:
            kmod, kincl = self.kernels[-1]
            pres = projective_cover_data(kmod)
            self.steps.append(pres.p0)
            self.diffs.append(kincl.matrix @ pres.cover)
            ker = pres.cover.kernel()
            kspan = Subspace(self.module.algebra.field, pres.p0.dim, ker.transpose())
            knext, kinext = submodule(pres.p0.module, kspan)
            self.kernels.append((knext, kinext))
            if knext.dim == 0:
                self.terminated = True

    def is_minimal(self) -> bool:
        """Verify im(d_{i+1}) lies inside rad(P_i)."""
        from .modules import radical_span

        for i in range(1, len(self.steps)):
            rad = radical_span(self.steps[i - 1].module)
            if not rad.contains(self.diffs[i].transpose()):
                return False
        return True


def minimal_projective_resolution(m: Module, cap: int) -> Resolution:
    """Iterated projective covers, cached on the module and extended as needed."""
    if cap < 0:
        raise ValueError("resolution cap must be nonnegative")
    res = getattr(m, "_resolution", None)
    if res is None:
        res = Resolution(m)
        m._resolution = res
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


def _hom_slice_space(p: ProjSum, n: Module):
    """Per-summand slice bases of Hom(P, N) = prod e_j N."""
    out = []
    for s in p.summands:
        span = Subspace.from_columns(n.act(s.idem))
        out.append(span)
    return out


def _hom_induced_matrix(p_from: ProjSum, p_to: ProjSum, d: Mat, n: Module, spans_from, spans_to) -> Mat:
    """Matrix of Hom(P_to, N) -> Hom(P_from, N), phi -> phi o d.

    ``d`` maps P_from -> P_to; spans_* are slice spans of the two ends.
    """
    field = n.algebra.field
    rows_total = sum(sp.dim for sp in spans_from)
    cols_total = sum(sp.dim for sp in spans_to)
    if rows_total == 0 or cols_total == 0:
        return Mat.zeros(field, rows_total, cols_total)
    gen_cols = p_from.generator_columns()
    blocks = []
    for k, s1 in enumerate(p_from.summands):
        u = d @ gen_cols[k]
        row_blocks = []
        for j, s0 in enumerate(p_to.summands):
            spanj = spans_to[j]
            if spanj.dim == 0:
                row_blocks.append(Mat.zeros(field, n.dim, 0))
                continue
            uj = u.take_rows(range(s0.offset, s0.offset + s0.dim))
            v = s0.incl @ uj
            row_blocks.append(n.act(v) @ spanj.basis.transpose())
        val = Mat.hstack(row_blocks)  # (n.dim x cols_total): phi(d(gen_k)) as fn of phi
        spank = spans_from[k]
        coords = spank.coords(val.transpose())
        if coords is None:
            raise ModuleError("cochain value escaped its slice (internal error)")
        blocks.append(coords.transpose())
    return Mat.vstack(blocks)


def ext_space(m: Module, n: Module, degree: int, cap: int = 20) -> tuple[int, list[Mat]]:
    """dim Ext^i(M, N) and a basis of cocycles in slice coordinates."""
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

    spans = {i: _hom_slice_space(step(i), n) for i in range(max(degree - 1, 0), degree + 2)}
    dim_i = sum(sp.dim for sp in spans[degree])
    if dim_i == 0:
        return 0, []
    # incoming d_{degree}: C^{degree-1} -> C^{degree}
    if degree == 0:
        img_rank = 0
    else:
        d_in = _diff(res, degree)
        mat_in = _hom_induced_matrix(step(degree), step(degree - 1), d_in, n, spans[degree], spans[degree - 1])
        img_rank = mat_in.rank()
    d_out = _diff(res, degree + 1)
    mat_out = _hom_induced_matrix(step(degree + 1), step(degree), d_out, n, spans[degree + 1], spans[degree])
    kermat = mat_out.kernel()
    ext_dim = kermat.cols - img_rank
    return ext_dim, [kermat.take_cols([c]) for c in range(kermat.cols)]


def _diff(res: Resolution, i: int) -> Mat:
    if i <= res.length():
        return res.diffs[i]
    field = res.module.algebra.field
    target_dim = res.steps[i - 1].dim if i - 1 <= res.length() else 0
    return Mat.zeros(field, target_dim, 0)


def ext_dim(m: Module, n: Module, degree: int, cap: int = 20) -> int:
    return ext_space(m, n, degree, cap)[0]


# ---------------------------------------------------------------------------
# Tor via slice chains
# ---------------------------------------------------------------------------


def _tensor_slice_spans(x: Module, p: ProjSum):
    return [right_slice(x, s.idem)[1] for s in p.summands]


def _tensor_induced_matrix(x: Module, p_from: ProjSum, p_to: ProjSum, d: Mat, spans_from, spans_to) -> Mat:
    """Matrix of x tensor P_from -> x tensor P_to induced by d."""
    field = x.algebra.field
    rows_total = sum(sp.dim for sp in spans_to)
    cols_total = sum(sp.dim for sp in spans_from)
    if rows_total == 0 or cols_total == 0:
        return Mat.zeros(field, rows_total, cols_total)
    gen_cols = p_from.generator_columns()
    col_blocks = []
    for k, s1 in enumerate(p_from.summands):
        u = d @ gen_cols[k]
        spank = spans_from[k]
        if spank.dim == 0:
            continue
        wk = spank.basis.transpose()
        blocks = []
        for j, s0 in enumerate(p_to.summands):
            spanj = spans_to[j]
            if spanj.dim == 0:
                blocks.append(Mat.zeros(field, 0, wk.cols))
                continue
            uj = u.take_rows(range(s0.offset, s0.offset + s0.dim))
            v = s0.incl @ uj
            img = x.act(v) @ wk
            coords = spanj.coords(img.transpose())
            if coords is None:
                raise ModuleError("chain value escaped its slice (internal error)")
            blocks.append(coords.transpose())
        col_blocks.append(Mat.vstack(blocks) if blocks else Mat.zeros(field, rows_total, wk.cols))
    if not col_blocks:
        return Mat.zeros(field, rows_total, 0)
    return Mat.hstack(col_blocks)


def tor_dim(x: Module, y: Module, degree: int, cap: int = 20) -> int:
    """dim Tor_i^B(x, y) where x is a right B-module given over opposite(B)."""
    if degree < 0:
        raise ValueError("tor degree must be nonnegative")
    from .algebra import opposite

    if opposite(y.algebra) is not x.algebra:
        raise ModuleError("tor_dim: x must be a module over opposite of y's algebra")
    if degree + 1 > cap:
        res = minimal_projective_resolution(y, cap)
        if not res.terminated:
            raise CapExceeded(f"Tor_{degree} needs resolution degree {degree + 1} > cap {cap}")
    res = minimal_projective_resolution(y, degree + 1)

    def step(i: int) -> ProjSum:
        if i <= res.length():
            return res.steps[i]
        return proj_sum(y.algebra, [])

    spans = {i: _tensor_slice_spans(x, step(i)) for i in range(max(degree - 1, 0), degree + 2)}
    dim_i = sum(sp.dim for sp in spans[degree])
    if dim_i == 0:
        return 0
    if degree == 0:
        ker_dim = dim_i
    else:
        mat_out = _tensor_induced_matrix(x, step(degree), step(degree - 1), _diff(res, degree), spans[degree], spans[degree - 1])
        ker_dim = mat_out.kernel().cols
    mat_in = _tensor_induced_matrix(x, step(degree + 1), step(degree), _diff(res, degree + 1), spans[degree + 1], spans[degree])
    return ker_dim - mat_in.rank()
