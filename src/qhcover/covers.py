"""Covers and their quality: Schur functors, double centralizer properties,
Hemmer-Nakano dimensions, the Ringel-dual cover verifier, truncation.

The quality of a cover (A, P) is probed on the standard modules: the unit
maps eta_Delta and the derived functors Ext^j_B(F_P A, F_P Delta) decide
the i-faithfulness.  The sufficiency of testing on standards (plus a
characteristic tilting module for the 0-faithful case) is recorded in the
report and cross-checked on seeded random Delta-filtered modules rather
than silently assumed.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .algebra import Algebra
from .fields import PrimeField
from .homology import DimValue, ext_dim
from .linalg import Mat, MatrixBasis, Subspace, matmul_mod
from .memo import memo
from .modules import (
    Module,
    ModuleMap,
    direct_sum,
    end_algebra_with_bimodule,
    hom_module_over_endop,
    hom_space,
    indecomposable_summands,
    is_isomorphic,
    quotient_module,
    projective_cover_data,
    regular_module,
)
from .qh import QHStructure, ringel_dual
from .reldim import relative_codomdim, relative_domdim


class CoverError(ValueError):
    """Raised on misuse of the cover operations."""


@dataclass
class CoverReport:
    """Quality data of a pair (A, P) against the endomorphism algebra B."""

    b_dim: int
    double_centralizer: bool
    is_cover: bool
    eta_injective: bool
    eta_isomorphism: bool
    hn: Optional[DimValue]  # None encodes "not even (-1)-faithful" / NotCover
    certified_on: str = "standards"
    random_checks: int = 0
    ext_profile: list[int] = dc_field(default_factory=list)

    def hn_str(self) -> str:
        if not self.is_cover:
            return "NotCover"
        if self.hn is None:
            return "BelowMinusOne"
        return str(self.hn)

    def to_json(self) -> dict:
        return {
            "B_dim": self.b_dim,
            "double_centralizer": self.double_centralizer,
            "is_cover": self.is_cover,
            "eta_injective": self.eta_injective,
            "eta_isomorphism": self.eta_isomorphism,
            "hn": self.hn_str(),
            "certified_on": self.certified_on,
            "random_checks": self.random_checks,
            "ext_profile": self.ext_profile,
        }


# ---------------------------------------------------------------------------
# Schur functor
# ---------------------------------------------------------------------------


def schur_functor_image(p: Module, m: Module) -> Module:
    """F_P(m) = Hom_A(p, m) as a left End_A(p)^op-module."""
    return hom_module_over_endop(p, m)[0]


# ---------------------------------------------------------------------------
# double centralizer
# ---------------------------------------------------------------------------


def double_centralizer_check(q: Module) -> bool:
    """Is the canonical map A -> End_B(q) bijective (B = End_A(q)^op)?"""
    a = q.algebra
    b, bim, _ = end_algebra_with_bimodule(q)
    # the image of A lands in the commutant automatically; bijectivity is
    # injectivity of a -> rho_q(a) plus a dimension match with End_B(q)
    flat = Mat.hstack([g.reshape(q.dim * q.dim, 1) for g in q.action])
    injective = flat.rank() == a.dim
    commutant_dim = hom_space(bim.right, bim.right).dim
    return injective and commutant_dim == a.dim


def _right_a_action_on_hom(p: Module, fa_basis: list[ModuleMap]) -> list[Mat]:
    """Matrices of the right A-action on F_P(A) = Hom(p, A): (g . a) = R_a o g."""
    a = p.algebra
    hom_basis = MatrixBasis([g.matrix for g in fa_basis])
    out = []
    for i in range(a.dim):
        ra = a.right_mult_matrix(a.basis_element(i))
        out.append(hom_basis.coords_many([ra @ g.matrix for g in fa_basis]))
    return out


def cover_check(p: Module) -> tuple[bool, int]:
    """Double centralizer on Hom_A(P, A): A = End_B(F_P A) canonically.

    Returns (is_cover, dim End_B(F_P A)).
    """
    a = p.algebra
    reg = regular_module(a)
    fa, fa_basis = hom_module_over_endop(p, reg)
    if fa.dim == 0:
        return (a.dim == 0, 0)
    end_dim = hom_space(fa, fa).dim
    # canonical map sends a to the right action of a on Hom(p, A)
    acts = _right_a_action_on_hom(p, fa_basis)
    injective = Mat.hstack([m.reshape(m.rows * m.cols, 1) for m in acts]).rank() == a.dim
    return (injective and end_dim == a.dim, end_dim)


# ---------------------------------------------------------------------------
# eta units and Hemmer-Nakano dimension
# ---------------------------------------------------------------------------


def _eta_matrix(p: Module, fa: Module, fa_basis: list[ModuleMap], m: Module):
    """eta_m: m -> Hom_B(F_P A, F_P m) as a matrix, plus dim Hom_B."""
    fm, fm_basis = hom_module_over_endop(p, m)
    homb = hom_space(fa, fm)
    if homb.dim == 0:
        return Mat.zeros(p.algebra.field, 0, m.dim), 0
    homb_basis = MatrixBasis([f.matrix for f in homb.maps])
    fm_hom_basis = MatrixBasis([f.matrix for f in fm_basis])
    # eta(m_c): FA -> FM, g -> (x -> rho_m(g(x)) m_c), as a hom-coordinate matrix (fm.dim x fa.dim)
    etas = [fm_hom_basis.coords_many([_module_elem_action(m, g.matrix, c) for g in fa_basis]) for c in range(m.dim)]
    return homb_basis.coords_many(etas), homb.dim


def _module_elem_action(m: Module, gm: Mat, c: int) -> Mat:
    """Matrix p -> m of x -> rho_m(g(x)) . m_c, g given by its matrix gm."""
    field = m.algebra.field
    if isinstance(field, PrimeField):
        vecs = matmul_mod(m.stack()[:, :, c].T, gm.data, field.p)  # (t, p.dim)
        return Mat(field, vecs, copy=False)
    return Mat.hstack([m.act(gm.take_cols([j])).take_cols([c]) for j in range(gm.cols)])


def hn_dimension(qh: QHStructure, p: Module, cap: int = 10, random_checks: int = 0, seed: int = 11) -> CoverReport:
    """Hemmer-Nakano dimension of F(Delta) with respect to a projective p.

    Tested on the standard modules (plus the characteristic tilting module
    for the 0-faithful threshold); optional seeded random Delta-filtered
    modules provide an extra certification layer.
    """
    a = qh.algebra
    if not _is_projective(p):
        raise CoverError("hn_dimension requires a projective module")
    reg = regular_module(a)
    fa, fa_basis = hom_module_over_endop(p, reg)
    b, _, _ = end_algebra_with_bimodule(p)
    is_cover, end_dim = cover_check(p)
    dc = is_cover  # cover = double centralizer property on Hom_A(P, A)
    targets = list(qh.standards)
    eta_inj = True
    eta_iso = True
    for d in targets:
        eta, homb_dim = _eta_matrix(p, fa, fa_basis, d)
        if eta.rank() != d.dim:
            eta_inj = False
            eta_iso = False
        elif homb_dim != d.dim:
            eta_iso = False
    report = CoverReport(
        b_dim=b.dim,
        double_centralizer=dc,
        is_cover=is_cover,
        eta_injective=eta_inj,
        eta_isomorphism=eta_iso,
        hn=None,
    )
    if not is_cover:
        return report
    if not eta_iso:
        report.hn = DimValue.exact(-1) if eta_inj else None
        return report
    # 0-faithful threshold certified additionally on a characteristic tilting module
    t = qh.characteristic_tilting()
    eta_t, homb_t = _eta_matrix(p, fa, fa_basis, t)
    if eta_t.rank() != t.dim or homb_t != t.dim:
        report.hn = DimValue.exact(-1)
        report.certified_on = "standards+tilting (eta on tilting failed)"
        return report
    report.certified_on = "standards+tilting"
    level = 0
    profile = []
    images = [schur_functor_image(p, d) for d in targets]
    while level < cap:
        j = level + 1
        bad = False
        for fd in images:
            e = ext_dim(fa, fd, j, cap=max(12, j + 2))
            profile.append(e)
            if e:
                bad = True
                break
        if bad:
            break
        level += 1
    report.ext_profile = profile
    report.hn = DimValue.exact(level) if level < cap else DimValue.at_least(cap)
    if random_checks:
        rng = np.random.default_rng(seed)
        ok = _random_delta_filtered_checks(qh, p, fa, fa_basis, report, random_checks, rng)
        report.random_checks = random_checks
        if not ok:
            raise CoverError("random Delta-filtered cross-check contradicts the standards certificate")
    return report


def _is_projective(p: Module) -> bool:
    return projective_cover_data(p).syzygy[0].dim == 0


def random_delta_filtered(qh: QHStructure, rng: np.random.Generator, layers: int = 3) -> Module:
    """A seeded random module with a filtration by standard modules."""
    n = qh.label_count()
    order = list(rng.integers(0, n, size=layers))
    x = qh.standards[int(order[0])]
    for lam in order[1:]:
        lam = int(lam)
        d = qh.standards[lam]
        e = ext_dim(d, x, 1)
        if e == 0:
            x = direct_sum([x, d])[0]
            continue
        x = _random_extension(qh, lam, x, rng)
    return x


def _random_extension(qh: QHStructure, lam: int, x: Module, rng: np.random.Generator) -> Module:
    """A pushout extension 0 -> x -> x' -> Delta(lam) -> 0 along a random cocycle."""
    field = qh.algebra.field
    pres = projective_cover_data(qh.standards[lam])
    p0 = pres.p0.module
    kmod, kincl = pres.syzygy
    homs_k = hom_space(kmod, x)
    if homs_k.dim == 0:
        return direct_sum([x, qh.standards[lam]])[0]
    if isinstance(field, PrimeField):
        coeffs = [int(c) for c in rng.integers(0, field.p, size=homs_k.dim)]
    else:
        coeffs = [int(c) for c in rng.integers(-3, 4, size=homs_k.dim)]
    phi = homs_k.combination([field.normalize(c) for c in coeffs])
    total, injs, projs = direct_sum([x, p0])
    rel = injs[0].matrix @ phi.matrix - injs[1].matrix @ kincl.matrix
    quot, _ = quotient_module(total, Subspace.from_columns(rel))
    return quot


def _random_delta_filtered_checks(qh, p, fa, fa_basis, report: CoverReport, count: int, rng) -> bool:
    hn = report.hn
    upto = 0
    if hn is not None and hn.kind in ("exact", "at_least"):
        upto = max(0, min(hn.n, 3))
    for _ in range(count):
        x = random_delta_filtered(qh, rng)
        eta, homb_dim = _eta_matrix(p, fa, fa_basis, x)
        if eta.rank() != x.dim or homb_dim != x.dim:
            return False
        fx = schur_functor_image(p, x)
        for j in range(1, upto + 1):
            if ext_dim(fa, fx, j, cap=max(12, j + 2)):
                return False
    return True


# ---------------------------------------------------------------------------
# the Ringel-dual cover theorem
# ---------------------------------------------------------------------------


@dataclass
class RingelCoverVerdict:
    n: DimValue
    cover_report: CoverReport
    asserted: bool
    holds: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "codomdim_T_wrt_Q": self.n.to_json(),
            "cover": self.cover_report.to_json(),
            "asserted": self.asserted,
            "holds": self.holds,
            "detail": self.detail,
        }


def verify_ringel_cover_theorem(qh: QHStructure, q: Module, cap: int = 10, random_checks: int = 0) -> RingelCoverVerdict:
    """Check h = n - 2: cover quality of (R(A), Hom(T, q)) vs Q-codomdim T.

    ``n`` is computed by the relative-codominant-dimension engine over A and
    ``h`` independently as a Hemmer-Nakano dimension over the Ringel dual;
    for n >= 2 the two numbers must satisfy h = n - 2 (equivalence over a
    field).  The n <= 1 boundary is reported without assertion.
    """
    _require_partial_tilting(qh, q)
    t = qh.characteristic_tilting()
    n = relative_codomdim(q, t, max(cap + 2, 4)).value
    rd = memo(qh, "_ringel_dual", lambda: ringel_dual(qh))
    pq, _ = hom_module_over_endop(t, q)
    # sanity: End_{R(A)}(Hom(T, q))^op has the dimension of End_A(q)^op
    bq = hom_space(pq, pq).dim
    endq = hom_space(q, q).dim
    if bq != endq:
        raise CoverError("projectivization failed: End(Hom(T,q)) does not match End(q)")
    report = hn_dimension(rd.structure, pq, cap=cap, random_checks=random_checks)
    if n.kind == "exact" and n.n >= 2:
        expected = n.n - 2
        holds = report.is_cover and report.hn is not None and report.hn.kind == "exact" and report.hn.n == expected
        return RingelCoverVerdict(n, report, True, holds, f"expected hn = {expected}")
    if n.is_infinite():
        holds = report.is_cover and report.hn is not None and report.hn.at_least_value() >= cap
        return RingelCoverVerdict(n, report, True, holds, "expected hn >= cap (equivalence)")
    if n.kind == "at_least":
        holds = report.is_cover and report.hn is not None and report.hn.at_least_value() >= n.n - 2
        return RingelCoverVerdict(n, report, True, holds, f"expected hn >= {n.n - 2}")
    return RingelCoverVerdict(n, report, False, True, "n <= 1 boundary: reported, not asserted")


def _require_partial_tilting(qh: QHStructure, q: Module) -> None:
    parts = qh.tiltings()
    for s, _, _ in indecomposable_summands(q):
        if not any(s.dim == t.dim and is_isomorphic(s, t) is not None for t in parts):
            raise CoverError("module is not in add(T): not a partial tilting module")


def wakamatsu_check(qh: QHStructure, q: Module, cap: int = 10) -> tuple[DimValue, bool, bool]:
    """If Q-domdim A is infinite for partial tilting Q, add(Q) = add(T).

    Returns (Q-domdim A, add-equality, vacuous-or-holds).
    """
    _require_partial_tilting(qh, q)
    value = relative_domdim(q, regular_module(qh.algebra), cap).value
    parts = qh.tiltings()
    q_parts = indecomposable_summands(q)
    present = set()
    for s, _, _ in q_parts:
        for i, t in enumerate(parts):
            if s.dim == t.dim and is_isomorphic(s, t) is not None:
                present.add(i)
    add_equal = present == set(range(len(parts)))
    holds = (not value.is_infinite()) or add_equal
    return value, add_equal, holds


# ---------------------------------------------------------------------------
# truncation of covers
# ---------------------------------------------------------------------------


def module_over_quotient(m: Module, quot: Algebra, proj: Mat, sect: Mat) -> Module:
    """Transport a module killed by the ideal to a module over A/I."""
    return Module(quot, [m.act(sect.take_cols([c])) for c in range(quot.dim)])


def truncate_cover_check(qh: QHStructure, p: Module, lam_max: int, cap: int = 8) -> dict:
    """Compare hn of (A, P) with hn of (A/J, P/JP) along a heredity quotient."""
    from .qh import split_heredity_quotient

    base_report = hn_dimension(qh, p, cap=cap)
    quot, proj, sub_qh = split_heredity_quotient(qh, lam_max)
    # P/JP: quotient by J.P, then restrict scalars along A -> A/J
    a = qh.algebra
    jmod_basis = _heredity_ideal_span(qh, lam_max)
    mats = p.act_many(jmod_basis.basis.transpose()) if jmod_basis.dim else []
    field = a.field
    if mats:
        jp = Subspace.from_columns(Mat.hstack(mats))
    else:
        jp = Subspace(field, p.dim)
    pbar_over_a, _ = quotient_module(p, jp)
    sect = _section_from(proj, a, quot)
    pbar = module_over_quotient(pbar_over_a, quot, proj, sect)
    trunc_report = hn_dimension(sub_qh, pbar, cap=cap)
    ok = True
    if base_report.is_cover and base_report.hn is not None and base_report.hn.kind in ("exact", "at_least") and base_report.hn.n >= 0:
        if not trunc_report.is_cover or trunc_report.hn is None:
            ok = False
        else:
            ok = trunc_report.hn.at_least_value() >= base_report.hn.n
    return {
        "base": base_report,
        "truncated": trunc_report,
        "monotone": ok,
        "sub_qh": sub_qh,
        "p_truncated": pbar,
    }


def _heredity_ideal_span(qh: QHStructure, lam: int) -> Subspace:
    from .modules import trace_submodule

    reg = regular_module(qh.algebra)
    jmod, jincl = trace_submodule(qh.projectives[lam], reg)
    return Subspace(qh.algebra.field, qh.algebra.dim, jincl.matrix.transpose())


def _section_from(proj: Mat, a: Algebra, quot: Algebra) -> Mat:
    # a right inverse of the projection A -> A/J
    sol = proj.solve(Mat.identity(a.field, quot.dim))
    if sol is None:
        raise CoverError("quotient projection admits no section")
    return sol
