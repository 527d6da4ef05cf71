"""Finite-dimensional left modules as tuples of action matrices.

Right modules are uniformly encoded as left modules over the opposite
algebra; the standard duality D sends a left module to the left module over
the opposite algebra acting by transposed matrices.

Hom spaces are computed through projective presentations rather than one
big intertwining solve: Hom(A e, N) is the slice e N, so Hom(M, N) is the
kernel of the induced map between slice spaces of a presentation
P1 -> P0 -> M -> 0.  This keeps the Schur-algebra instances (dimension 165)
inside small eliminations.  A naive intertwiner solve is kept as an
independent oracle for the tests.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .algebra import Algebra, algebra_of_matrices, opposite
from .fields import PrimeField
from .linalg import Mat, MatrixBasis, Subspace, matmul_mod
from .memo import memo


class ModuleError(ValueError):
    """Raised on malformed modules or maps."""


class Module:
    """Left module over an Algebra: one action matrix per basis element."""

    def __init__(self, algebra: Algebra, action: list[Mat], name: str = ""):
        self.algebra = algebra
        self.action = action
        self.dim = action[0].rows if action else 0
        self.name = name
        if len(action) != algebra.dim:
            raise ModuleError("need one action matrix per algebra basis element")
        for m in action:
            if m.rows != self.dim or m.cols != self.dim:
                raise ModuleError("action matrices must be square of the module dimension")

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Module(dim={self.dim}{tag})"

    def stack(self) -> np.ndarray:
        return memo(self, "_stack", lambda: np.stack([m.data for m in self.action]))

    def act(self, x: Mat) -> Mat:
        """Action matrix of an algebra element (column vector of coords)."""
        f = self.algebra.field
        if isinstance(f, PrimeField):
            return self.act_many(x)[0]
        acc = Mat.zeros(f, self.dim, self.dim)
        for i in range(self.algebra.dim):
            xi = x[i, 0]
            if xi != 0:
                acc = acc + self.action[i].scale(xi)
        return acc

    def act_many(self, xs: Mat) -> list[Mat]:
        """Action matrices for several elements (columns of xs)."""
        f = self.algebra.field
        if isinstance(f, PrimeField):
            stack = self.stack()
            out = matmul_mod(xs.data.T, stack.reshape(len(stack), self.dim**2), f.p).reshape(xs.cols, self.dim, self.dim)
            return [Mat(f, out[c], copy=False) for c in range(xs.cols)]
        return [self.act(xs.take_cols([c])) for c in range(xs.cols)]

    def validate(self) -> None:
        """Representation axioms: rho(1) = 1 and rho(g b) = rho(g) rho(b) for
        every algebra generator g and basis element b.  This is complete: the
        x with rho(x y) = rho(x) rho(y) for all y form a unital subalgebra,
        and it contains the generators."""
        a = self.algebra
        ident = Mat.identity(a.field, self.dim)
        if self.act(a.one) != ident:
            raise ModuleError("unit does not act as identity")
        for g in a.generator_elements():
            rho_g = self.act(g)
            # column b of L_g is g b_b
            for b, rho_gb in enumerate(self.act_many(a.left_mult_matrix(g))):
                if rho_gb != rho_g @ self.action[b]:
                    raise ModuleError("action is not multiplicative")

    def is_zero(self) -> bool:
        return self.dim == 0


class ModuleMap:
    """A-linear map stored as a (target.dim x source.dim) matrix."""

    def __init__(self, source: Module, target: Module, matrix: Mat):
        if matrix.rows != target.dim or matrix.cols != source.dim:
            raise ModuleError(f"map shape {matrix.rows}x{matrix.cols} does not match modules")
        self.source = source
        self.target = target
        self.matrix = matrix

    def validate(self) -> None:
        a = self.source.algebra
        for x in a.generator_elements():
            if self.matrix @ self.source.act(x) != self.target.act(x) @ self.matrix:
                raise ModuleError("matrix does not intertwine the actions")

    def compose(self, other: "ModuleMap") -> "ModuleMap":
        """self o other (apply other first)."""
        return ModuleMap(other.source, self.target, self.matrix @ other.matrix)

    def is_surjective(self) -> bool:
        return self.matrix.rank() == self.target.dim

    def is_injective(self) -> bool:
        return self.matrix.kernel().cols == 0

    def is_isomorphism(self) -> bool:
        return self.source.dim == self.target.dim and self.matrix.is_invertible()

    def kernel_submodule(self) -> tuple[Module, "ModuleMap"]:
        ker = self.matrix.kernel()
        return submodule(self.source, Subspace(self.matrix.field, self.source.dim, ker.transpose()))

    def cokernel(self) -> tuple[Module, "ModuleMap"]:
        return quotient_module(self.target, Subspace.from_columns(self.matrix))


class Bimodule:
    """(A, B)-bimodule: commuting left A-action and right B-action.

    The right action is stored as a left action of opposite(B).
    """

    def __init__(self, left: Module, right: Module):
        if left.dim != right.dim:
            raise ModuleError("bimodule actions live on different spaces")
        self.left = left
        self.right = right
        self.dim = left.dim

    def validate(self) -> None:
        self.left.validate()
        self.right.validate()
        for x in self.left.algebra.generator_elements():
            lx = self.left.act(x)
            for y in self.right.algebra.generator_elements():
                ry = self.right.act(y)
                if lx @ ry != ry @ lx:
                    raise ModuleError("left and right actions do not commute")


# ---------------------------------------------------------------------------
# basic constructions
# ---------------------------------------------------------------------------


def zero_module(a: Algebra) -> Module:
    return Module(a, [Mat.zeros(a.field, 0, 0) for _ in range(a.dim)], name="0")


def regular_module(a: Algebra) -> Module:
    return Module(a, a.left_regular_action(), name="A")


def submodule(m: Module, span: Subspace) -> tuple[Module, ModuleMap]:
    """Module on an invariant subspace, with its inclusion map."""
    w = span.basis.transpose()  # columns = basis
    action = []
    for g in m.action:
        img = (g @ w).transpose()
        coords = span.coords(img)
        if coords is None:
            raise ModuleError("subspace is not invariant under the action")
        action.append(coords.transpose())
    sub = Module(m.algebra, action)
    return sub, ModuleMap(sub, m, w)


def quotient_module(m: Module, span: Subspace) -> tuple[Module, ModuleMap]:
    """Quotient by an invariant subspace, with its projection map."""
    ident = Mat.identity(m.algebra.field, m.dim)
    proj = span.quotient_coords(ident).transpose()  # (q x t)
    sect = ident.take_cols(span.nonpivots)
    action = [proj @ (g @ sect) for g in m.action]
    quot = Module(m.algebra, action)
    return quot, ModuleMap(m, quot, proj)


def direct_sum(mods: Sequence[Module], name: str = "") -> tuple[Module, list[ModuleMap], list[ModuleMap]]:
    """Direct sum with injections and projections."""
    mods = list(mods)
    if not mods:
        raise ModuleError("empty direct sum needs an algebra; use zero_module")
    a = mods[0].algebra
    if any(m.algebra is not a for m in mods):
        raise ModuleError("direct sum of modules over different algebras")
    action = [Mat.block_diag(a.field, [m.action[i] for m in mods]) for i in range(a.dim)]
    total = Module(a, action, name=name or "+".join(m.name or "?" for m in mods))
    injections, projections = [], []
    offset = 0
    ident = Mat.identity(a.field, total.dim)
    for m in mods:
        cols = list(range(offset, offset + m.dim))
        injections.append(ModuleMap(m, total, ident.take_cols(cols)))
        projections.append(ModuleMap(total, m, ident.take_rows(cols)))
        offset += m.dim
    return total, injections, projections


def dual(m: Module) -> Module:
    """Standard duality: left module over the opposite algebra, with dual(dual(m)) is m."""
    return memo(m, "_dual", lambda: _dual(m))


def _dual(m: Module) -> Module:
    d = Module(opposite(m.algebra), [g.transpose() for g in m.action], name=f"D({m.name})" if m.name else "")
    d._dual = m
    return d


def dual_map(f: ModuleMap) -> ModuleMap:
    """D is contravariant: the dual of f: M -> N is D(N) -> D(M)."""
    return ModuleMap(dual(f.target), dual(f.source), f.matrix.transpose())


# ---------------------------------------------------------------------------
# radical series, top, socle
# ---------------------------------------------------------------------------


def radical_span(m: Module) -> Subspace:
    """J(A) . M as a subspace."""
    a = m.algebra
    rad = a.radical_subspace()
    if rad.dim == 0 or m.dim == 0:
        return Subspace(a.field, m.dim)
    mats = m.act_many(rad.basis.transpose())
    return Subspace.from_columns(Mat.hstack([g for g in mats]))


def module_radical(m: Module) -> tuple[Module, ModuleMap]:
    return submodule(m, radical_span(m))


def top(m: Module) -> tuple[Module, ModuleMap]:
    """M / rad M with the quotient map."""
    return quotient_module(m, radical_span(m))


def socle(m: Module) -> tuple[Module, ModuleMap]:
    """Annihilator of J(A) in M, with the inclusion."""
    a = m.algebra
    rad = a.radical_subspace()
    if rad.dim == 0 or m.dim == 0:
        ident = Mat.identity(a.field, m.dim)
        return submodule(m, Subspace(a.field, m.dim, ident))
    mats = m.act_many(rad.basis.transpose())
    stacked = Mat.vstack(mats)
    ker = stacked.kernel()
    return submodule(m, Subspace(a.field, m.dim, ker.transpose()))


# ---------------------------------------------------------------------------
# projective modules and presentations
# ---------------------------------------------------------------------------


class ProjSummand:
    """One copy of A e inside an explicit direct sum of such modules."""

    def __init__(self, class_index: int, idem: Mat, incl: Mat, offset: int, dim: int):
        self.class_index = class_index
        self.idem = idem  # idempotent, coordinates in A
        self.incl = incl  # (A.dim x dim): basis of A e as columns
        self.offset = offset
        self.dim = dim


class ProjSum:
    """Explicit realization of a direct sum of projectives A e_i.

    ``generators``: coordinates (in module basis) of the idempotent e of
    each summand; the map f -> (f(gen_j))_j identifies Hom(P, N) with the
    product of slices e_j N.
    """

    def __init__(self, module: Module, summands: list[ProjSummand]):
        self.module = module
        self.summands = summands

    @property
    def dim(self) -> int:
        return self.module.dim

    def generator_columns(self) -> list[Mat]:
        cols = []
        field = self.module.algebra.field
        a_dim = self.module.algebra.dim
        for s in self.summands:
            # incl columns are an echelonized basis of A e, so Subspace
            # reconstruction reproduces exactly that basis
            sub = Subspace(field, a_dim, s.incl.transpose())
            gcoords = sub.coords(s.idem.transpose())
            if gcoords is None:
                raise ModuleError("idempotent not in its own projective summand")
            entries = {(s.offset + i, 0): gcoords[0, i] for i in range(s.dim)}
            cols.append(Mat.from_entries(field, self.module.dim, 1, entries))
        return cols


def _indec_projective(a: Algebra, class_index: int) -> tuple[Module, Mat, Mat]:
    """A e for the class representative idempotent; returns (module, incl, e)."""
    return memo(a, f"_indec_projective{class_index}", lambda: _build_indec_projective(a, class_index))


def _build_indec_projective(a: Algebra, class_index: int) -> tuple[Module, Mat, Mat]:
    prim = a.primitive_idempotents()
    e = prim.idempotents[prim.class_reps[class_index]]
    span = Subspace.from_columns(a.right_mult_matrix(e))  # A e
    w = span.basis.transpose()
    if isinstance(a.field, PrimeField):
        n = a.dim
        imgs = matmul_mod(a._left_regular_stack().reshape(n * n, n), w.data, a.field.p).reshape(n, n, w.cols)
        action = []
        for i in range(a.dim):
            coords = span.coords(Mat(a.field, imgs[i].T, copy=False))
            if coords is None:
                raise ModuleError("projective summand is not invariant")
            action.append(coords.transpose())
    else:
        action = submodule(regular_module(a), span)[0].action
    return Module(a, action, name=f"P[{class_index}]"), w, e


def proj_sum(a: Algebra, class_indices: Sequence[int]) -> ProjSum:
    """Direct sum of indecomposable projectives for the given classes."""
    mods = []
    summands = []
    offset = 0
    for ci in class_indices:
        mod, incl, e = _indec_projective(a, ci)
        mods.append(mod)
        summands.append(ProjSummand(ci, e, incl, offset, mod.dim))
        offset += mod.dim
    if not mods:
        return ProjSum(zero_module(a), [])
    if len(mods) == 1:
        total = mods[0]
    else:
        total, _, _ = direct_sum(mods)
    return ProjSum(total, summands)


class Presentation:
    """Projective presentation P1 -> P0 -> M -> 0 with a linear section of the cover.

    ``syzygy`` is the first syzygy ker(cover) as (module, inclusion into P0).
    """

    def __init__(self, module, p0: ProjSum, cover: Mat, section: Mat, p1: ProjSum, d1: Mat, syzygy: tuple):
        self.module = module
        self.p0 = p0
        self.cover = cover  # (M.dim x P0.dim), surjective
        self.section = section  # (P0.dim x M.dim), cover @ section = id
        self.p1 = p1
        self.d1 = d1  # (P0.dim x P1.dim), image = ker(cover)
        self.syzygy: tuple[Module, ModuleMap] = syzygy


def _top_class_generators(m: Module) -> list[tuple[int, Mat]]:
    """Pairs (class index, generator vector) realizing a basis of top(M)."""
    a = m.algebra
    prim = a.primitive_idempotents()
    rad = radical_span(m)
    out: list[tuple[int, Mat]] = []
    for ci in range(prim.n_blocks):
        e = prim.idempotents[prim.class_reps[ci]]
        cols = m.act(e)  # columns e.(basis of M)
        top_coords = rad.quotient_coords(cols.transpose()).transpose()  # images in top
        # pivot columns index vectors of e.M whose top images are independent
        for j in _independent_columns(top_coords):
            out.append((ci, cols.take_cols([j])))
    return out


def _independent_columns(mat: Mat) -> list[int]:
    # the pivot columns of the rref are a maximal independent column set
    return mat.rref()[1]


def _cover(m: Module) -> tuple[ProjSum, Mat]:
    """The minimal projective cover P0 -> M, one summand per basis vector of top(M) (cached)."""

    def build():
        gens = _top_class_generators(m)
        p0 = proj_sum(m.algebra, [ci for ci, _ in gens])
        cover = _evaluation_matrix(p0, m, [v for _, v in gens])
        if cover.rank() != m.dim:
            raise ModuleError("projective cover is not surjective (top computation broken)")
        return p0, cover

    return memo(m, "_cover", build)


def projective_cover_data(m: Module) -> Presentation:
    """Minimal cover plus first syzygy, cached on the module.

    The syzygy's cover gives P1; its own syzygy waits until it is presented.
    """
    return memo(m, "_presentation", lambda: _presentation(m))


def _presentation(m: Module) -> Presentation:
    field = m.algebra.field
    p0, cover = _cover(m)
    section = cover.solve(Mat.identity(field, m.dim))
    kmod, kincl = submodule(p0.module, Subspace(field, p0.dim, cover.kernel().transpose()))
    p1, kcover = _cover(kmod)
    return Presentation(m, p0, cover, section, p1, kincl.matrix @ kcover, (kmod, kincl))


def _evaluation_matrix(p: ProjSum, n: Module, targets: list[Mat]) -> Mat:
    """Matrix of the map P -> N sending the j-th generator to targets[j].

    On the summand A e_j the map is a e_j -> rho_N(a e_j) targets[j].
    """
    a = p.module.algebra
    field = a.field
    if not p.summands:
        return Mat.zeros(field, n.dim, 0)
    blocks = []
    if isinstance(field, PrimeField):
        stack = n.stack().reshape(a.dim * n.dim, n.dim)
        for s, v in zip(p.summands, targets):
            sv = matmul_mod(stack, v.data, field.p).reshape(a.dim, n.dim)  # sv[a, i] = (rho(b_a) v)_i
            blocks.append(Mat(field, matmul_mod(sv.T, s.incl.data, field.p), copy=False))
    else:
        for s, v in zip(p.summands, targets):
            cols = []
            for c in range(s.incl.cols):
                x = s.incl.take_cols([c])
                cols.append(n.act(x) @ v)
            blocks.append(Mat.hstack(cols))
    return Mat.hstack(blocks)


# ---------------------------------------------------------------------------
# hom spaces
# ---------------------------------------------------------------------------


class HomSpace:
    """Basis of Hom_A(M, N) as explicit ModuleMaps."""

    def __init__(self, source: Module, target: Module, maps: list[ModuleMap]):
        self.source = source
        self.target = target
        self.maps = maps

    @property
    def dim(self) -> int:
        return len(self.maps)

    def combination(self, coeffs: Sequence) -> ModuleMap:
        field = self.source.algebra.field
        acc = Mat.zeros(field, self.target.dim, self.source.dim)
        for c, f in zip(coeffs, self.maps):
            if c != 0:
                acc = acc + f.matrix.scale(c)
        return ModuleMap(self.source, self.target, acc)


def _slice_spans(n: Module, p: ProjSum) -> list[Subspace]:
    """The slices e_j . N of P's summands: Hom(P, N) is their product and,
    for a right module N, N tensor P their sum."""
    return [Subspace.from_columns(n.act(s.idem)) for s in p.summands]


def _component(u: Mat, s: ProjSummand) -> Mat:
    """The block of a column u of P on the summand s, as an element of A."""
    return s.incl @ u.take_rows(range(s.offset, s.offset + s.dim))


def _hom_values(d: Mat, p_from: ProjSum, p_to: ProjSum, n: Module, spans_to: list[Subspace]) -> list[Mat]:
    """For each generator g_k of P_from, the (N.dim x total slice width)
    block phi -> phi(d g_k) for phi in Hom(P_to, N) in slice coordinates.

    ``d`` maps P_from -> P_to; zero-dimensional slices contribute no columns.
    """
    field = n.algebra.field
    bases = [span.basis.transpose() for span in spans_to]
    values = []
    for g in p_from.generator_columns():
        u = d @ g
        blocks = []
        for s, w in zip(p_to.summands, bases):
            blocks.append(n.act(_component(u, s)) @ w if w.cols else Mat.zeros(field, n.dim, 0))
        values.append(Mat.hstack(blocks))
    return values


def hom_space(m: Module, n: Module) -> HomSpace:
    """Basis of Hom_A(M, N) via a projective presentation of M."""
    if m.algebra is not n.algebra:
        raise ModuleError("hom_space: modules over different algebras")
    if m.dim == 0 or n.dim == 0:
        return HomSpace(m, n, [])
    pres = projective_cover_data(m)
    spans = _slice_spans(n, pres.p0)
    total_w = sum(sp.dim for sp in spans)
    if total_w == 0:
        return HomSpace(m, n, [])
    # phi vanishes on d1(gen) for each generator of P1
    values = _hom_values(pres.d1, pres.p1, pres.p0, n, spans)
    sol = Mat.vstack(values).kernel() if values else Mat.identity(m.algebra.field, total_w)  # (total_w x h)
    maps = _extract_hom_matrices(pres, n, spans, sol)
    return HomSpace(m, n, [ModuleMap(m, n, f) for f in maps])


def _extract_hom_matrices(pres: Presentation, n: Module, spans: list[Subspace], sol: Mat) -> list[Mat]:
    """Convert slice-coordinate solutions into (N.dim x M.dim) matrices."""
    a = pres.module.algebra
    field = a.field
    m_dim = pres.module.dim
    h = sol.cols
    if h == 0:
        return []
    out = [Mat.zeros(field, n.dim, m_dim) for _ in range(h)]
    offset = 0
    for s, span in zip(pres.p0.summands, spans):
        hw = span.dim
        if hw == 0:
            continue
        wsol = span.basis.transpose() @ sol.take_rows(range(offset, offset + hw))  # (n.dim x h): images of gen j
        # lifted section slice: element of A for each basis vector of M
        lift = _component(pres.section, s)  # (A.dim x m_dim)
        if isinstance(field, PrimeField):
            # y[a, i, t] = (rho(b_a) w_t)_i, then f[i, t, c] = sum_a y[a, i, t] lift[a, c]
            y = matmul_mod(n.stack().reshape(a.dim * n.dim, n.dim), wsol.data, field.p)
            f = matmul_mod(y.reshape(a.dim, n.dim * h).T, lift.data, field.p).reshape(n.dim, h, m_dim).transpose(1, 0, 2)
            for t in range(h):
                out[t] = out[t] + Mat(field, f[t], copy=False)
        else:
            for t in range(h):
                cols = []
                wv = wsol.take_cols([t])
                for c in range(m_dim):
                    cols.append(n.act(lift.take_cols([c])) @ wv)
                out[t] = out[t] + Mat.hstack(cols)
        offset += hw
    return out


def hom_space_naive(m: Module, n: Module) -> list[Mat]:
    """Oracle: direct intertwiner solve over the algebra generators."""
    a = m.algebra
    t, s = n.dim, m.dim
    if t == 0 or s == 0:
        return []
    id_t, id_s = Mat.identity(a.field, t), Mat.identity(a.field, s)
    # rows: entries of F rho_M(g) - rho_N(g) F, unknowns vec(F) row-major
    rows = [id_t.kron(m.act(g).transpose()) - n.act(g).kron(id_s) for g in a.generator_elements()]
    ker = Mat.vstack(rows).kernel()
    return [ker.take_cols([c]).reshape(t, s) for c in range(ker.cols)]


# ---------------------------------------------------------------------------
# covers, envelopes, traces, corners
# ---------------------------------------------------------------------------


def projective_cover(m: Module) -> ModuleMap:
    """Surjection from a projective with superfluous kernel."""
    pres = projective_cover_data(m)
    return ModuleMap(pres.p0.module, m, pres.cover)


def injective_envelope(m: Module) -> ModuleMap:
    """Envelope computed as the dual of the projective cover of D(m)."""
    # dual(dual(m)) is m itself, so the dualized cover starts at m
    return dual_map(projective_cover(dual(m)))


def trace_submodule(x: Module, m: Module) -> tuple[Module, ModuleMap]:
    """Sum of images of all maps x -> m, as a submodule inclusion."""
    maps = hom_space(x, m).maps
    if not maps:
        z = zero_module(m.algebra)
        return z, ModuleMap(z, m, Mat.zeros(m.algebra.field, m.dim, 0))
    cols = Mat.hstack([f.matrix for f in maps])
    return submodule(m, Subspace.from_columns(cols))


def corner_module(m: Module, e: Mat, corner: Algebra, corner_incl: Mat) -> Module:
    """e . M as a module over the corner algebra eAe."""
    field = m.algebra.field
    span = Subspace.from_columns(m.act(e))
    w = span.basis.transpose()
    action = []
    for c in range(corner.dim):
        x = corner_incl.take_cols([c])  # corner basis element as element of A
        img = (m.act(x) @ w).transpose()
        coords = span.coords(img)
        if coords is None:
            raise ModuleError("corner action left the corner subspace")
        action.append(coords.transpose())
    return Module(corner, action, name=f"e.{m.name}" if m.name else "")


# ---------------------------------------------------------------------------
# endomorphism algebras, isomorphism testing, decomposition
# ---------------------------------------------------------------------------


def endomorphism_algebra(m: Module) -> tuple[Algebra, list[ModuleMap]]:
    """End_A(M) with multiplication f * g = f o g, plus the basis maps."""
    basis = hom_space(m, m).maps
    if not basis:
        raise ModuleError("endomorphism algebra of the zero module")
    return algebra_of_matrices(MatrixBasis([f.matrix for f in basis]), "endomorphism"), basis


def end_element_matrix(basis: list[ModuleMap], coords: Mat) -> Mat:
    field = basis[0].matrix.field
    acc = Mat.zeros(field, basis[0].matrix.rows, basis[0].matrix.cols)
    for i, f in enumerate(basis):
        c = coords[i, 0]
        if c != 0:
            acc = acc + f.matrix.scale(c)
    return acc


def indecomposable_summands(m: Module) -> list[tuple[Module, ModuleMap, ModuleMap]]:
    """Split into indecomposables via idempotents of End(M).

    Returns (summand, inclusion, projection) triples with
    sum of incl o proj = identity.
    """
    if m.dim == 0:
        return []
    end, basis = endomorphism_algebra(m)
    prim = end.primitive_idempotents()
    out = []
    for e in prim.idempotents:
        mat = end_element_matrix(basis, e)
        span = Subspace.from_columns(mat)
        summand, incl = submodule(m, span)
        proj_mat = span.coords((mat).transpose())
        # projection onto the summand: first apply the idempotent, then coordinates
        proj = proj_mat.transpose()
        out.append((summand, incl, ModuleMap(m, summand, proj)))
    return out


def _local_end_radical(m: Module) -> tuple[Algebra, list[ModuleMap], Subspace]:
    end, basis = endomorphism_algebra(m)
    return end, basis, end.radical_subspace()


def is_isomorphic(m: Module, n: Module, seed: int = 1) -> Optional[ModuleMap]:
    """An explicit isomorphism or None; decomposition-certified on failure."""
    if m.algebra is not n.algebra:
        raise ModuleError("is_isomorphic: modules over different algebras")
    if m.dim != n.dim:
        return None
    if m.dim == 0:
        return ModuleMap(m, n, Mat.zeros(m.algebra.field, 0, 0))
    hs = hom_space(m, n)
    if hs.dim == 0:
        return None
    field = m.algebra.field
    # cheap attempts: basis elements, then seeded random combinations
    for f in hs.maps:
        if f.matrix.is_invertible():
            return f
    rng = np.random.default_rng(seed)
    for _ in range(24):
        if isinstance(field, PrimeField):
            coeffs = [int(c) for c in rng.integers(0, field.p, size=hs.dim)]
        else:
            coeffs = [Fraction(int(c)) for c in rng.integers(-4, 5, size=hs.dim)]
        f = hs.combination(coeffs)
        if f.matrix.is_invertible():
            return f
    # certified path: match indecomposable summands
    return _isomorphism_by_decomposition(m, n)


def _indec_isomorphic(m: Module, n: Module) -> Optional[ModuleMap]:
    """Certified iso test for indecomposable modules of equal dimension.

    m and n (indecomposable) are isomorphic iff some composite g o f with
    f: m -> n, g: n -> m basis elements avoids the radical of End(m); such
    an f is then itself an isomorphism.
    """
    fs = hom_space(m, n).maps
    gs = hom_space(n, m).maps
    if not fs or not gs:
        return None
    end, basis, rad = _local_end_radical(m)
    end_basis = MatrixBasis([f.matrix for f in basis])
    for f in fs:
        for g in gs:
            coords = end_basis.coords(g.matrix @ f.matrix)
            if not rad.contains(coords.transpose()):
                # g o f invertible in the local ring End(m), so f is injective
                # and a dimension count makes it an isomorphism
                if f.matrix.is_invertible():
                    return f
                raise ModuleError("local-ring certificate disagrees with rank")
    return None


def _isomorphism_by_decomposition(m: Module, n: Module) -> Optional[ModuleMap]:
    msum = indecomposable_summands(m)
    nsum = indecomposable_summands(n)
    if len(msum) != len(nsum):
        return None
    used = [False] * len(nsum)
    total = Mat.zeros(m.algebra.field, n.dim, m.dim)
    for sm, incl_m, proj_m in msum:
        found = False
        for j, (sn, incl_n, proj_n) in enumerate(nsum):
            if used[j] or sn.dim != sm.dim:
                continue
            iso = _indec_isomorphic(sm, sn)
            if iso is not None:
                used[j] = True
                total = total + (incl_n.matrix @ iso.matrix @ proj_m.matrix)
                found = True
                break
        if not found:
            return None
    f = ModuleMap(m, n, total)
    if not f.is_isomorphism():
        raise ModuleError("assembled summand matching is not invertible")
    return f


# ---------------------------------------------------------------------------
# endomorphism algebra with bimodule, tensor products over it
# ---------------------------------------------------------------------------


def end_algebra_with_bimodule(q: Module) -> tuple[Algebra, Bimodule, list[ModuleMap]]:
    """B = End_A(q)^op together with q as an (A, B)-bimodule.

    The right B-action is encoded as a left module over opposite(B), which
    is the plain endomorphism algebra acting by application.
    """
    return memo(q, "_end_algebra", lambda: _end_algebra_with_bimodule(q))


def _end_algebra_with_bimodule(q: Module) -> tuple[Algebra, Bimodule, list[ModuleMap]]:
    end, basis = endomorphism_algebra(q)
    right = Module(end, [f.matrix for f in basis], name=f"{q.name}|B" if q.name else "")
    return opposite(end), Bimodule(left=q, right=right), basis


def hom_module_over_endop(q: Module, m: Module) -> tuple[Module, list[ModuleMap]]:
    """Hom_A(q, m) as a left module over B = End_A(q)^op (action h -> h o b)."""
    b, bim, end_basis = end_algebra_with_bimodule(q)
    hs = hom_space(q, m)
    hdim = hs.dim
    field = q.algebra.field
    if hdim == 0:
        return Module(b, [Mat.zeros(field, 0, 0) for _ in range(b.dim)]), []
    hom_basis = MatrixBasis([h.matrix for h in hs.maps])
    action = [hom_basis.coords_many([h.matrix @ f.matrix for h in hs.maps]) for f in end_basis]  # h o f
    return Module(b, action, name=f"Hom({q.name},{m.name})" if q.name or m.name else ""), hs.maps


def _tensor_induced_matrix(
    x: Module, d: Mat, p_from: ProjSum, p_to: ProjSum, spans_from: list[Subspace], spans_to: list[Subspace]
) -> Mat:
    """Matrix of x tensor P_from -> x tensor P_to induced by d: P_from -> P_to."""
    field = x.algebra.field
    rows_total = sum(sp.dim for sp in spans_to)
    cols_total = sum(sp.dim for sp in spans_from)
    if rows_total == 0 or cols_total == 0:
        return Mat.zeros(field, rows_total, cols_total)
    gen_cols = p_from.generator_columns()
    col_blocks = []
    for k, spank in enumerate(spans_from):
        if spank.dim == 0:
            continue
        u = d @ gen_cols[k]
        wk = spank.basis.transpose()
        blocks = []
        for s0, spanj in zip(p_to.summands, spans_to):
            if spanj.dim == 0:
                blocks.append(Mat.zeros(field, 0, wk.cols))
                continue
            coords = spanj.coords((x.act(_component(u, s0)) @ wk).transpose())
            if coords is None:
                raise ModuleError("chain value escaped its slice (internal error)")
            blocks.append(coords.transpose())
        col_blocks.append(Mat.vstack(blocks))
    return Mat.hstack(col_blocks)


def tensor_over(x: Module, y: Module) -> int:
    """dim of the balanced tensor product of a right B-module with a left B-module.

    ``x`` must be the left opposite(B)-encoding of the right module.  The
    tensor space is the cokernel of x tensor P1 -> x tensor P0 for a
    presentation of y.
    """
    if opposite(y.algebra) is not x.algebra:
        raise ModuleError("tensor_over: algebras do not match (x over opposite(B), y over B)")
    pres = projective_cover_data(y)
    spans = _slice_spans(x, pres.p0)
    relation = _tensor_induced_matrix(x, pres.d1, pres.p1, pres.p0, _slice_spans(x, pres.p1), spans)
    return sum(sp.dim for sp in spans) - relation.rank()


class CounitData:
    """The counit chi_m: q tensor_B Hom_A(q, m) -> m, in presentation form."""

    def __init__(self, surjective: bool, bijective: bool, b: Algebra, hom_module: Module):
        self.surjective = surjective
        self.bijective = bijective
        self.b = b
        self.hom_module = hom_module


def counit_analysis(q: Module, m: Module) -> CounitData:
    """Surjectivity/bijectivity of the evaluation map q tensor_B Hom(q, m) -> m."""
    b, bim, _ = end_algebra_with_bimodule(q)
    hmod, hom_basis = hom_module_over_endop(q, m)
    if hmod.dim == 0:
        return CounitData(m.dim == 0, m.dim == 0, b, hmod)
    pres = projective_cover_data(hmod)
    x = bim.right  # q as left module over opposite(B)
    spans = _slice_spans(x, pres.p0)
    # evaluation on x tensor P0: the slice x.e_j goes to m through the image of generator j
    composite = Mat.hstack(
        [
            end_element_matrix(hom_basis, pres.cover @ g) @ span.basis.transpose()
            for g, span in zip(pres.p0.generator_columns(), spans)
        ]
    )
    relation = _tensor_induced_matrix(x, pres.d1, pres.p1, pres.p0, _slice_spans(x, pres.p1), spans)
    if relation.cols and not (composite @ relation).is_zero():
        raise ModuleError("counit relations do not die under evaluation (internal error)")
    surjective = composite.rank() == m.dim
    bijective = surjective and composite.kernel().cols == relation.rank()
    return CounitData(surjective, bijective, b, hmod)


def hom_into_q_as_right_module(q: Module, m: Module) -> tuple[Module, list[ModuleMap]]:
    """Hom_A(m, q) as a right module over B = End_A(q)^op.

    The right action h . b = (b as endomorphism) o h is encoded, as usual,
    as a left module over opposite(B).
    """
    b, bim, end_basis = end_algebra_with_bimodule(q)
    bop = opposite(b)  # the plain endomorphism algebra, composition order
    hs = hom_space(m, q)
    hdim = hs.dim
    field = q.algebra.field
    if hdim == 0:
        return Module(bop, [Mat.zeros(field, 0, 0) for _ in range(bop.dim)]), []
    hom_basis = MatrixBasis([h.matrix for h in hs.maps])
    action = [hom_basis.coords_many([f.matrix @ h.matrix for h in hs.maps]) for f in end_basis]  # f o h
    return Module(bop, action), hs.maps


def induced_map_on_hom_into_q(q: Module, f: ModuleMap, src_data, tgt_data) -> Mat:
    """Matrix of Hom(f, q): Hom(target(f), q) -> Hom(source(f), q)."""
    tgt_mod, tgt_maps = src_data  # Hom(target, q)
    src_mod, src_maps = tgt_data  # Hom(source, q)
    field = q.algebra.field
    if not tgt_maps or not src_maps:
        return Mat.zeros(field, len(src_maps), len(tgt_maps))
    return MatrixBasis([h.matrix for h in src_maps]).coords_many([h.matrix @ f.matrix for h in tgt_maps])
