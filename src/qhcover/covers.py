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
from .linalg import Mat
from .modules import (
    HomSpace,
    Module,
    direct_sum,
    end_algebra_with_bimodule,
    hom_module_over_endop,
    hom_space,
    ideal_span,
    quotient_module,
    projective_cover_data,
    regular_module,
    summand_matches,
)
from .qh import QHStructure, _heredity_quotient, pushout_extension, ringel_dual
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
    injective = q.flat_action().rank() == a.dim
    commutant_dim = hom_space(bim.right, bim.right).dim
    return injective and commutant_dim == a.dim


def cover_check(p: Module) -> tuple[bool, int]:
    """Double centralizer on Hom_A(P, A): A = End_B(F_P A) canonically.

    Returns (is_cover, dim End_B(F_P A)).
    """
    return _cover_check(p, *hom_module_over_endop(p, regular_module(p.algebra)))


def _cover_check(p: Module, fa: Module, fa_hom: HomSpace) -> tuple[bool, int]:
    """``cover_check`` on F_P A = Hom_A(P, A) and its basis, already built."""
    a = p.algebra
    if fa.dim == 0:
        return (a.dim == 0, 0)
    end_dim = hom_space(fa, fa).dim
    # the canonical map sends b_i to g -> R_i o g on Hom(p, A); R_i[k, j] =
    # L_j[k, i], so the transposed flat action of A holds the R_i side by side.
    # Column i*h + t of acts holds the coordinates of R_i o g_t
    acts = fa_hom.coords_of_products(fa_hom.target.flat_action().transpose(), fa_hom.side_by_side())
    injective = acts.transpose().reshape(a.dim, fa.dim * fa.dim).rank() == a.dim
    return (injective and end_dim == a.dim, end_dim)


# ---------------------------------------------------------------------------
# eta units and Hemmer-Nakano dimension
# ---------------------------------------------------------------------------


def _eta_matrix(p: Module, fa: Module, fa_hom: HomSpace, m: Module) -> tuple[Mat, int, Module]:
    """eta_m: m -> Hom_B(F_P A, F_P m) as a matrix, dim Hom_B, and F_P m."""
    fm, fm_hom = hom_module_over_endop(p, m)
    homb = hom_space(fa, fm)
    if homb.dim == 0:
        return Mat.zeros(p.algebra.field, 0, m.dim), 0, fm
    # eta(m_c) sends g to x -> rho_m(g(x)) m_c = E_c g, where column i of E_c
    # is rho_m(b_i) m_c: row n*m.dim + c of the transposed flat action is row
    # n of E_c.  Column c*h + t of etas holds the coordinates of E_c g_t, so
    # etas is the eta(m_c): F_P A -> F_P m side by side
    etas = fm_hom.coords_of_products(m.flat_action().transpose(), fa_hom.side_by_side())
    eta = homb.coords_of_products(etas.reshape(fm.dim * m.dim, fa.dim), Mat.identity(p.algebra.field, fa.dim))
    return eta, homb.dim, fm


def hn_dimension(qh: QHStructure, p: Module, cap: int = 10, random_checks: int = 0, seed: int = 11) -> CoverReport:
    """Hemmer-Nakano dimension of F(Delta) with respect to a projective p.

    Tested on the standard modules (plus the characteristic tilting module
    for the 0-faithful threshold); optional seeded random Delta-filtered
    modules provide an extra certification layer.
    """
    _require_nonnegative(cap, random_checks)
    if not _is_projective(p):
        raise CoverError("hn_dimension requires a projective module")
    fa, fa_hom = hom_module_over_endop(p, regular_module(qh.algebra))
    is_cover, _ = _cover_check(p, fa, fa_hom)
    etas = [(d, *_eta_matrix(p, fa, fa_hom, d)) for d in qh.standards]
    eta_inj = all(eta.rank() == d.dim for d, eta, _, _ in etas)
    eta_iso = eta_inj and all(homb_dim == d.dim for d, _, homb_dim, _ in etas)
    # a cover is the double centralizer property on Hom_A(P, A)
    report = CoverReport(b_dim=end_algebra_with_bimodule(p)[0].dim, double_centralizer=is_cover, is_cover=is_cover,
                         eta_injective=eta_inj, eta_isomorphism=eta_iso, hn=None)
    if not is_cover:
        return report
    if not eta_iso:
        report.hn = DimValue.exact(-1) if eta_inj else None
        return report
    # 0-faithful threshold certified additionally on a characteristic tilting module
    t = qh.characteristic_tilting()
    eta_t, homb_t, _ = _eta_matrix(p, fa, fa_hom, t)
    if eta_t.rank() != t.dim or homb_t != t.dim:
        report.hn = DimValue.exact(-1)
        report.certified_on = "standards+tilting (eta on tilting failed)"
        return report
    report.certified_on = "standards+tilting"
    level = 0
    while level < cap and _ext_vanishes(fa, [fd for *_, fd in etas], level + 1, report.ext_profile):
        level += 1
    report.hn = DimValue.exact(level) if level < cap else DimValue.at_least(cap)
    if random_checks:
        report.random_checks = random_checks
        if not _random_delta_filtered_checks(qh, p, fa, fa_hom, min(report.hn.n, 3), random_checks, np.random.default_rng(seed)):
            raise CoverError("random Delta-filtered cross-check contradicts the standards certificate")
    return report


def _ext_vanishes(fa: Module, images: list[Module], j: int, dims: list[int]) -> bool:
    """Ext^j_B(F_P A, x) = 0 for each x of ``images``; appends each
    dimension to ``dims``, up to the first nonzero one."""
    for fx in images:
        dims.append(ext_dim(fa, fx, j, cap=max(12, j + 2)))
        if dims[-1]:
            return False
    return True


def _require_nonnegative(cap: int, random_checks: int) -> None:
    if cap < 0:
        raise CoverError(f"cap must be nonnegative, not {cap}")
    if random_checks < 0:
        raise CoverError(f"random checks must be nonnegative, not {random_checks}")


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
    return pushout_extension(x, p0, kincl, [phi])[0]


def _random_delta_filtered_checks(qh, p, fa, fa_hom, upto: int, count: int, rng) -> bool:
    """eta is an isomorphism on ``count`` random Delta-filtered x, and
    Ext^j_B(F_P A, F_P x) = 0 for j = 1 .. upto."""
    for _ in range(count):
        x = random_delta_filtered(qh, rng)
        eta, homb_dim, fx = _eta_matrix(p, fa, fa_hom, x)
        if eta.rank() != x.dim or homb_dim != x.dim or not all(_ext_vanishes(fa, [fx], j, []) for j in range(1, upto + 1)):
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


def verify_ringel_cover_theorem(qh: QHStructure, q: Module, cap: int = 10, random_checks: int = 0, seed: int = 11) -> RingelCoverVerdict:
    """Check h = n - 2: cover quality of (R(A), Hom(T, q)) vs Q-codomdim T.

    ``n`` is computed by the relative-codominant-dimension engine over A and
    ``h`` independently as a Hemmer-Nakano dimension over the Ringel dual;
    for n >= 2 the two numbers must satisfy h = n - 2 (equivalence over a
    field).  The n <= 1 boundary is reported without assertion.  ``seed``
    draws the random Delta-filtered checks of ``hn_dimension``.
    """
    _require_nonnegative(cap, random_checks)
    _require_partial_tilting(qh, q)
    t = qh.characteristic_tilting()
    n = relative_codomdim(q, t, max(cap + 2, 4)).value
    rd = ringel_dual(qh)
    pq, _ = hom_module_over_endop(t, q)
    # sanity: End_{R(A)}(Hom(T, q))^op has the dimension of End_A(q)^op
    bq = hom_space(pq, pq).dim
    endq = hom_space(q, q).dim
    if bq != endq:
        raise CoverError("projectivization failed: End(Hom(T,q)) does not match End(q)")
    report = hn_dimension(rd.structure, pq, cap=cap, random_checks=random_checks, seed=seed)
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


def _require_partial_tilting(qh: QHStructure, q: Module) -> set[int]:
    """The labels whose T(l) is a summand of q; raises unless q is in add(T)."""
    matches = [j for _, j in summand_matches(q, qh.tiltings())]
    if None in matches:
        raise CoverError("module is not in add(T): not a partial tilting module")
    return set(matches)


def wakamatsu_check(qh: QHStructure, q: Module, cap: int = 10) -> tuple[DimValue, bool, bool]:
    """If Q-domdim A is infinite for partial tilting Q, add(Q) = add(T).

    Returns (Q-domdim A, add-equality, vacuous-or-holds).
    """
    present = _require_partial_tilting(qh, q)
    value = relative_domdim(q, regular_module(qh.algebra), cap).value
    add_equal = present == set(range(qh.label_count()))
    holds = (not value.is_infinite()) or add_equal
    return value, add_equal, holds


# ---------------------------------------------------------------------------
# truncation of covers
# ---------------------------------------------------------------------------


def module_over_quotient(m: Module, quot: Algebra, sect: Mat) -> Module:
    """Transport a module killed by the ideal to a module over A/I along a
    section of A -> A/I (any section: the ideal acts by zero)."""
    return Module(quot, sect.transpose() @ m.flat_action())


def truncate_cover_check(qh: QHStructure, p: Module, lam_max: int, cap: int = 8) -> dict:
    """Compare hn of (A, P) with hn of (A/J, P/JP) along a heredity quotient."""
    base_report = hn_dimension(qh, p, cap=cap)
    quotient, ideal, sub_qh = _heredity_quotient(qh, lam_max)
    # P/JP: quotient by J.P, then restrict scalars along A -> A/J
    jp = ideal_span(p, ideal)
    pbar_over_a, _ = quotient_module(p, jp)
    pbar = module_over_quotient(pbar_over_a, quotient.quotient, quotient.sect)
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
