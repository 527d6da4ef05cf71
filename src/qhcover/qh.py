"""Split quasi-hereditary structures: standard/costandard modules, axiom
verification, filtration tests, characteristic tilting modules, Ringel
duals and split heredity quotients.

Standard modules are always computed from (algebra, weight poset) by the
trace construction Delta(l) = P(l) / trace of higher projectives; the
costandard modules are duals of the opposite-algebra standards, reusing the
same code path.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

from .algebra import Algebra, QuotientAlgebra, opposite, quotient_algebra
from .homology import ext_dim
from .linalg import Mat, Subspace
from .memo import memo
from .modules import (
    Module,
    ModuleMap,
    direct_sum,
    dual,
    end_algebra_with_bimodule,
    endomorphism_algebra,
    hom_space,
    indecomposable_summands,
    induced_map_on_hom_into_q,
    projective_cover_data,
    projective_module,
    quotient_module,
    regular_module,
    submodule,
    summand_matches,
    trace_submodule,
)


class QHError(ValueError):
    """Raised when a quasi-hereditary verification or construction fails."""


class WeightPoset:
    """Labels with a strict partial order and one primitive idempotent each.

    ``less`` holds strictly-smaller pairs (i, j) meaning label i < label j;
    the transitive closure is taken and antisymmetry checked.
    """

    def __init__(self, labels: list[str], less_pairs: list[tuple[int, int]], idempotents: list[Mat]):
        self.labels = list(labels)
        n = len(labels)
        if len(idempotents) != n:
            raise QHError("need exactly one idempotent per label")
        self.idempotents = idempotents
        less = set(less_pairs)
        changed = True
        while changed:
            changed = False
            for (a, b) in list(less):
                for (c, d) in list(less):
                    if b == c and (a, d) not in less:
                        less.add((a, d))
                        changed = True
        for (a, b) in less:
            if (b, a) in less or a == b:
                raise QHError("order relation is not antisymmetric")
        self.less = less

    def lt(self, i: int, j: int) -> bool:
        return (i, j) in self.less

    def leq(self, i: int, j: int) -> bool:
        return i == j or (i, j) in self.less

    def maximal_indices(self) -> list[int]:
        return [i for i in range(len(self.labels)) if not any(self.lt(i, j) for j in range(len(self.labels)))]

    def higher(self, i: int) -> list[int]:
        return [j for j in range(len(self.labels)) if self.lt(i, j)]

    def lower_desc(self, i: int) -> list[int]:
        """Indices strictly below i, in decreasing poset order (linear extension)."""
        lows = [j for j in range(len(self.labels)) if self.lt(j, i)]
        # sort: j before k when j > k in the poset; fall back to index order
        order: list[int] = []
        remaining = set(lows)
        while remaining:
            maximal = [j for j in remaining if not any(self.lt(j, k) for k in remaining if k != j)]
            for j in sorted(maximal):
                order.append(j)
                remaining.discard(j)
        return order

    def restricted(self, remove: int) -> "WeightPoset":
        keep = [i for i in range(len(self.labels)) if i != remove]
        relabel = {old: new for new, old in enumerate(keep)}
        pairs = [(relabel[a], relabel[b]) for (a, b) in self.less if a != remove and b != remove]
        return WeightPoset([self.labels[i] for i in keep], pairs, [self.idempotents[i] for i in keep])


@dataclass
class VerificationReport:
    passed: bool
    checks: list[tuple[str, bool, str]] = dc_field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, ok, detail))
        if not ok:
            self.passed = False

    def first_failure(self) -> Optional[str]:
        for name, ok, detail in self.checks:
            if not ok:
                return f"{name}: {detail}"
        return None

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in self.checks],
        }


class QHStructure:
    """Weight poset plus labeled projectives, standards, costandards, tiltings."""

    def __init__(self, algebra: Algebra, poset: WeightPoset):
        self.algebra = algebra
        self.poset = poset
        self.projectives: list[Module] = []
        self.proj_incls: list[Mat] = []
        self.standards: list[Module] = []
        self.std_kernels: list[Module] = []
        self.verification: Optional[VerificationReport] = None
        self._build_projectives()
        self._build_standards()

    # -- construction -------------------------------------------------------
    def _build_projectives(self) -> None:
        a = self.algebra
        for e in self.poset.idempotents:
            if a.multiply(e, e) != e:
                raise QHError("poset idempotent is not idempotent")
            proj, incl, _ = projective_module(a, e)
            self.projectives.append(proj)
            self.proj_incls.append(incl)

    def _build_standards(self) -> None:
        n = len(self.poset.labels)
        for lam in range(n):
            p = self.projectives[lam]
            higher = self.poset.higher(lam)
            # trace of the higher projectives = sum of all their hom images
            cols = [hom_space(self.projectives[mu], p).side_by_side() for mu in higher]
            span = Subspace.from_columns(Mat.hstack(cols)) if cols else Subspace(self.algebra.field, p.dim)
            delta, _ = quotient_module(p, span)
            delta.name = f"Delta({self.poset.labels[lam]})"
            self.standards.append(delta)
            ker, _ = submodule(p, span)
            self.std_kernels.append(ker)

    def opposite_structure(self) -> "QHStructure":
        """The same weights over A^op (used for costandards and injectives)."""
        return memo(self, "_opposite", self._build_opposite)

    def _build_opposite(self) -> "QHStructure":
        aop = opposite(self.algebra)
        return QHStructure(aop, WeightPoset(self.poset.labels, list(self.poset.less), self.poset.idempotents))

    def costandard(self, lam: int) -> Module:
        return memo(self, "_costandards", self._build_costandards)[lam]

    def _build_costandards(self) -> list[Module]:
        costandards = [dual(d) for d in self.opposite_structure().standards]
        for label, c in zip(self.poset.labels, costandards):
            c.name = f"Nabla({label})"
        return costandards

    def injective(self, lam: int) -> Module:
        return memo(self, "_injectives", lambda: [dual(p) for p in self.opposite_structure().projectives])[lam]

    def label_count(self) -> int:
        return len(self.poset.labels)

    # -- filtration tests -----------------------------------------------------
    def in_f_delta(self, m: Module) -> bool:
        """Membership in F(Delta): Ext^1 against every costandard vanishes."""
        return all(ext_dim(m, self.costandard(l), 1) == 0 for l in range(self.label_count()))

    def delta_multiplicities(self, m: Module) -> list[int]:
        return [hom_space(m, self.costandard(l)).dim for l in range(self.label_count())]

    def in_f_nabla(self, m: Module) -> bool:
        return all(ext_dim(self.standards[l], m, 1) == 0 for l in range(self.label_count()))

    def nabla_multiplicities(self, m: Module) -> list[int]:
        return [hom_space(self.standards[l], m).dim for l in range(self.label_count())]

    # -- tilting ---------------------------------------------------------------
    def tiltings(self) -> list[Module]:
        return memo(self, "_tiltings", self._build_tiltings)[0]

    def tilting_sequences(self):
        return memo(self, "_tiltings", self._build_tiltings)[1]

    def characteristic_tilting(self) -> Module:
        return self.characteristic_tilting_data()[0]

    def characteristic_tilting_data(self):
        """(T, injections, projections) for the summand decomposition of T."""
        return memo(self, "_char_tilting", self._build_char_tilting)

    def _build_char_tilting(self):
        parts = self.tiltings()
        if len(parts) == 1:
            ident = Mat.identity(self.algebra.field, parts[0].dim)
            return parts[0], [ModuleMap(parts[0], parts[0], ident)], [ModuleMap(parts[0], parts[0], ident)]
        return direct_sum(parts, name="T")

    def _build_tiltings(self) -> tuple[list[Module], list]:
        """T(lambda) by universal extensions of Delta(lambda), in one walk
        over ``lower_desc(lambda)``: at each mu with Ext^1(Delta(mu), x) != 0,
        x becomes the universal extension 0 -> x -> x' -> Delta(mu)^e -> 0.

        The walk leaves Ext^1(Delta(mu'), x) = 0 for every mu' it has passed.
        mu itself: the connecting map Hom(Delta(mu), Delta(mu)^e) ->
        Ext^1(Delta(mu), x) is onto, and Ext^1(Delta(mu), Delta(mu)) = 0, so
        Ext^1(Delta(mu), x') = 0; this is checked.  An earlier mu': the order
        is decreasing, so mu' is not below mu and Ext^1(Delta(mu'),
        Delta(mu)) = 0; the exact Ext^1(Delta(mu'), x) -> Ext^1(Delta(mu'),
        x') -> Ext^1(Delta(mu'), Delta(mu)^e) then keeps it 0.  So a rescan
        from the top after each extension would make the same extensions in
        the same order.
        """
        tilts: list[Module] = []
        seqs = []
        for lam in range(self.label_count()):
            x = self.standards[lam]
            incl = Mat.identity(self.algebra.field, x.dim)
            for mu in self.poset.lower_desc(lam):
                e = ext_dim(self.standards[mu], x, 1)
                if e:
                    x, incl = _universal_extension(self, mu, x, incl, e)
                    if ext_dim(self.standards[mu], x, 1):
                        raise QHError("universal extension left Ext^1 nonzero (structure not quasi-hereditary?)")
            tilt, seq = _extract_tilting_summand(self, lam, x, incl)
            tilt.name = f"T({self.poset.labels[lam]})"
            tilts.append(tilt)
            seqs.append(seq)
        return tilts, seqs

    def partial_tilting_combinations(self):
        """All nonempty summand combinations of the characteristic tilting module."""
        import itertools

        parts = self.tiltings()
        out = []
        for r in range(1, len(parts) + 1):
            for combo in itertools.combinations(range(len(parts)), r):
                mods = [parts[i] for i in combo]
                q = mods[0] if len(mods) == 1 else direct_sum(mods)[0]
                out.append((combo, q))
        return out


def _universal_extension(qh: QHStructure, mu: int, x: Module, incl: Mat, e: int) -> tuple[Module, Mat]:
    """Replace x by the universal extension 0 -> x -> x' -> Delta(mu)^e -> 0.

    ``incl`` tracks the embedding of the original standard module; returns
    the new module and updated embedding matrix.
    """
    pres = projective_cover_data(qh.standards[mu])
    p0 = pres.p0.module
    kmod, kincl = pres.syzygy
    homs_k = hom_space(kmod, x)
    if homs_k.dim == 0:
        raise QHError("universal extension requested with no cocycles")
    # Ext^1 classes = cokernel of the restriction r: Hom(P0, x) -> Hom(K, x);
    # the pivots past r's block in the rref of [r | I] pick, greedily, the
    # basis maps of Hom(K, x) that span a complement of its image
    r = induced_map_on_hom_into_q(kincl, hom_space(p0, x), homs_k)
    pivots = Mat.hstack([r, Mat.identity(r.field, homs_k.dim)]).rref()[1]
    reps_idx = [c - r.cols for c in pivots if c >= r.cols]
    if len(reps_idx) != e:
        raise QHError("cocycle count does not match Ext dimension")
    x_new, embed = pushout_extension(x, p0, kincl, [homs_k.maps[i] for i in reps_idx])
    newincl = embed @ incl
    # sanity: the base stays embedded and dimensions add up
    if newincl.rank() != incl.cols:
        raise QHError("universal extension did not embed the standard module")
    if x_new.dim != x.dim + e * qh.standards[mu].dim:
        raise QHError("universal extension has the wrong dimension")
    return x_new, newincl


def pushout_extension(x: Module, p0: Module, kincl: ModuleMap, phis: list[ModuleMap]) -> tuple[Module, Mat]:
    """The extension 0 -> x -> x' -> (P0/K)^e -> 0 along cocycles phi_i: K -> x,
    x' = (x + P0^e) / {(phi_i(k), -k in slot i)}, and the inclusion of x."""
    total, injs, _ = direct_sum([x] + [p0] * len(phis))
    rel = Mat.hstack([injs[0].matrix @ phi.matrix - injs[1 + i].matrix @ kincl.matrix for i, phi in enumerate(phis)])
    quot, projmap = quotient_module(total, Subspace.from_columns(rel))
    return quot, projmap.matrix @ injs[0].matrix


def _extract_tilting_summand(qh: QHStructure, lam: int, x: Module, incl: Mat):
    """The indecomposable summand of x carrying the Delta(lam) layer."""
    parts = indecomposable_summands(x)
    hits = []
    for idx, (mod, inc, proj) in enumerate(parts):
        mult = hom_space(mod, qh.costandard(lam)).dim
        if mult == 1:
            hits.append(idx)
        elif mult > 1:
            raise QHError("universal extension produced repeated top multiplicity")
    if len(hits) != 1:
        raise QHError(f"expected exactly one summand containing Delta, found {len(hits)}")
    mod, inc, proj = parts[hits[0]]
    if mod is qh.standards[lam]:
        # no extension ran and Delta(lam) is its own summand: T(lam) gets an
        # object of its own, so naming it does not rename Delta(lam)
        mod = Module(x.algebra, x.flat_action())
    # sequence data: Delta(lam) -> T(lam) with cokernel filtered by lower standards
    delta_map = ModuleMap(qh.standards[lam], mod, proj.matrix @ incl)
    if not delta_map.is_injective():
        raise QHError("standard module does not embed into its tilting summand")
    coker, _ = delta_map.cokernel()
    return mod, (delta_map, coker)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify_split_qh(a: Algebra, poset: WeightPoset) -> tuple[VerificationReport, QHStructure]:
    """Check the split quasi-hereditary axioms at field level.

    Checks: Hom direction on standards, scalar endomorphisms, the
    Delta-filtration of the kernels C(l), the progenerator property,
    orthogonality of standards against costandards, and the dimension
    bookkeeping dim A = sum dim Delta dim Nabla.
    """
    report = VerificationReport(passed=True)
    qh = QHStructure(a, poset)
    n = qh.label_count()

    ok = True
    detail = ""
    for i in range(n):
        for j in range(n):
            if hom_space(qh.standards[i], qh.standards[j]).dim and not poset.leq(i, j):
                ok, detail = False, f"Hom(Delta({poset.labels[i]}), Delta({poset.labels[j]})) != 0 without {poset.labels[i]} <= {poset.labels[j]}"
    report.add("hom-direction", ok, detail)

    ok = True
    detail = ""
    for i in range(n):
        d = hom_space(qh.standards[i], qh.standards[i]).dim
        if d != 1:
            ok, detail = False, f"End(Delta({poset.labels[i]})) has dimension {d}"
    report.add("scalar-endomorphisms", ok, detail)

    ok = True
    detail = ""
    for i in range(n):
        c = qh.std_kernels[i]
        for l in range(n):
            if ext_dim(c, qh.costandard(l), 1) != 0:
                ok, detail = False, f"Ext^1(C({poset.labels[i]}), Nabla({poset.labels[l]})) != 0"
        mults = qh.delta_multiplicities(c)
        for mu, mult in enumerate(mults):
            if mult and not poset.lt(i, mu):
                ok, detail = False, f"C({poset.labels[i]}) has a Delta({poset.labels[mu]}) layer but {poset.labels[mu]} is not above"
        if sum(mults[mu] * qh.standards[mu].dim for mu in range(n)) != c.dim:
            ok, detail = False, f"C({poset.labels[i]}) multiplicities do not fill its dimension"
    report.add("kernel-filtration", ok, detail)

    prim = a.primitive_idempotents()
    ok = len(poset.idempotents) == prim.n_blocks
    report.add("progenerator", ok, "" if ok else f"{len(poset.idempotents)} labels vs {prim.n_blocks} projective classes")

    ok = True
    detail = ""
    for i in range(n):
        for l in range(n):
            d = hom_space(qh.standards[i], qh.costandard(l)).dim
            expected = 1 if i == l else 0
            if d != expected:
                ok, detail = False, f"dim Hom(Delta({poset.labels[i]}), Nabla({poset.labels[l]})) = {d}"
            if ext_dim(qh.standards[i], qh.costandard(l), 1) != 0:
                ok, detail = False, f"Ext^1(Delta({poset.labels[i]}), Nabla({poset.labels[l]})) != 0"
    report.add("orthogonality", ok, detail)

    total = sum(qh.standards[i].dim * qh.costandard(i).dim for i in range(n))
    ok = total == a.dim
    report.add("dimension-count", ok, "" if ok else f"sum dim Delta dim Nabla = {total} != dim A = {a.dim}")

    qh.verification = report
    return report, qh


# ---------------------------------------------------------------------------
# Ringel dual
# ---------------------------------------------------------------------------


class RingelDual:
    """End(T)^op with the reversed poset; verified on construction."""

    def __init__(self, qh: QHStructure):
        self.base = qh
        t, injs, projs = qh.characteristic_tilting_data()
        self.tilting = t
        b, _, _ = end_algebra_with_bimodule(t)
        self.algebra = b
        # idempotents of R(A): projections onto the tilting summands, read in
        # the basis of End(T), which is R(A)'s
        projections = Mat.hstack([incl.matrix @ proj.matrix for incl, proj in zip(injs, projs)])
        coords = hom_space(t, t).coords_of_products(projections.reshape(t.dim * len(injs), t.dim), Mat.identity(b.field, t.dim))
        idems = [coords.take_cols([i]) for i in range(coords.cols)]
        reversed_pairs = [(j, i) for (i, j) in qh.poset.less]
        self.poset = WeightPoset(qh.poset.labels, reversed_pairs, idems)
        self.report, self.structure = verify_split_qh(b, self.poset)
        # consistency: standards of R(A) have the dimensions of Hom(T, Nabla(l))
        self.standard_dims_via_hom = [hom_space(t, qh.costandard(l)).dim for l in range(qh.label_count())]


def ringel_dual(qh: QHStructure) -> RingelDual:
    """R(A) = End(T)^op with its split quasi-hereditary structure, verified
    (memoised on qh)."""
    return memo(qh, "_ringel_dual", lambda: RingelDual(qh))


# ---------------------------------------------------------------------------
# split heredity quotients
# ---------------------------------------------------------------------------


def split_heredity_quotient(qh: QHStructure, lam: int):
    """Quotient by the heredity ideal of a maximal weight.

    Validates J^2 = J, J projective as a left module with all summands the
    expected projective, and End(J) a split matrix algebra; returns the
    quotient algebra, the projection and the induced structure.
    """
    quotient, _, sub_qh = _heredity_quotient(qh, lam)
    return quotient.quotient, quotient.proj, sub_qh


def _heredity_quotient(qh: QHStructure, lam: int) -> tuple[QuotientAlgebra, Subspace, QHStructure]:
    """``split_heredity_quotient`` with the whole A -> A/J and J itself."""
    poset = qh.poset
    if any(poset.lt(lam, j) for j in range(qh.label_count())):
        raise QHError("split heredity quotient needs a maximal label")
    a = qh.algebra
    jmod, jincl = trace_submodule(qh.projectives[lam], regular_module(a))
    span = Subspace(a.field, a.dim, jincl.matrix.transpose())
    # two-sided: closed under right multiplication
    cols = span.basis.transpose()
    right_prods = a.multiply_batches(cols, Mat.identity(a.field, a.dim))
    if not span.contains(right_prods.transpose()):
        raise QHError("trace ideal is not two-sided")
    # J^2 = J
    sq = a.multiply_batches(cols, cols)
    if Subspace(a.field, a.dim, sq.transpose()).dim != span.dim:
        raise QHError("heredity ideal is not idempotent (J^2 != J)")
    # J projective with all summands P(lam)
    if any(j is None for _, j in summand_matches(jmod, [qh.projectives[lam]])):
        raise QHError("heredity ideal is not a sum of copies of the expected projective")
    # End(J) is a split matrix algebra
    endj, _ = endomorphism_algebra(jmod)
    mult_count = jmod.dim // qh.projectives[lam].dim
    if endj.radical_subspace().dim != 0 or endj.dim != mult_count * mult_count:
        raise QHError("End(J) is not a split matrix algebra")
    quotient = quotient_algebra(a, span)
    restricted = poset.restricted(lam)
    new_poset = WeightPoset(restricted.labels, list(restricted.less), [quotient.proj @ e for e in restricted.idempotents])
    return quotient, span, QHStructure(quotient.quotient, new_poset)
