"""Finite-dimensional left modules, each action one flat matrix.

Right modules are uniformly encoded as left modules over the opposite
algebra; the standard duality D sends a left module to the left module over
the opposite algebra acting by transposed matrices.

Hom spaces are computed through projective presentations rather than one
big intertwining solve: Hom(A e, N) is the slice e N, so Hom(M, N) is the
kernel of the induced map between slice spaces of a presentation
P1 -> P0 -> M -> 0.  This keeps the Schur-algebra instances (dimension 165)
inside small eliminations.  The test suite checks them against a naive
intertwiner solve over the algebra's generators.

One routine, ``_slice_values``, forms the value phi(c) of every map phi
from a projective sum that sends one generator into a slice and the others
to 0, with one product per summand: the cover, the Hom relations and the
Hom maps are such values.  Ext needs no values of its own: ``homology``
reads it off Hom dimensions by the dimension shift.

A module holds its action as one (A.dim x dim^2) Mat, row a the matrix of
b_a read row-major, and every constructor builds it with one array
operation: sub-, quotient and corner modules restrict it with one kernel,
``linalg.restrict_action`` (one product forms every image and one
coordinate call reads them all), a direct sum writes each summand into one
block array, a dual is one batched transpose, and projective and Hom
modules permute the axes of one coordinate matrix.  The test suite checks
each against per-matrix oracles.

A Hom space reads coordinates at the kernel's free rows (``_hom_frame``),
so every action on one is a single ``HomSpace.coords_of_products`` call,
and End(M) reads its structure constants at the same frame
(``algebra.algebra_of_matrices``).  The test suite checks each action and
each End algebra against a per-pair solve-based oracle.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .algebra import Algebra, Frame, algebra_of_matrices, opposite
from .linalg import Mat, Subspace, block_diag_action, restrict_action, stacked_products, transposed_action, unstack
from .memo import memo, memo_pair


class ModuleError(ValueError):
    """Raised on malformed modules or maps."""


class Module:
    """Left module over an Algebra, its action one (A.dim x dim^2) Mat: row
    a is rho(b_a) read row-major.

    ``Module(algebra, flat, name)`` takes that array as the library builds
    it; ``Module.from_matrices`` checks a list of action matrices from
    outside and stacks it.  Modules over one algebra object with equal
    actions are twins: they share every memo (End(M), cover, presentation,
    resolution, ...) but the ones in ``own_memos``.
    """

    # memo keys kept per object: dual(dual(m)) is m itself, not a twin of
    # it, as the summand triple of an indecomposable m names m itself
    own_memos = frozenset({"_dual", "_whole"})

    def __init__(self, algebra: Algebra, flat: Mat, name: str = ""):
        self.algebra = algebra
        self.dim = math.isqrt(flat.cols)
        self.name = name
        if flat.rows != algebra.dim or self.dim * self.dim != flat.cols:
            raise ModuleError(f"a {flat.rows}x{flat.cols} action is not (algebra dim) x (module dim)^2")
        self._flat = flat

    @staticmethod
    def from_matrices(algebra: Algebra, mats: Sequence[Mat], name: str = "") -> "Module":
        """The module on one action matrix per algebra basis element."""
        mats = list(mats)
        if len(mats) != algebra.dim:
            raise ModuleError("need one action matrix per algebra basis element")
        d = mats[0].rows if mats else 0
        if any(m.rows != d or m.cols != d for m in mats):
            raise ModuleError("action matrices must be square of the module dimension")
        return Module(algebra, Mat.vstack([m.reshape(1, d * d) for m in mats]), name)

    def __repr__(self) -> str:
        tag = f" {self.name!r}" if self.name else ""
        return f"Module(dim={self.dim}{tag})"

    @property
    def action(self) -> list[Mat]:
        """The action matrices rho(b_a), built on every access."""
        return unstack(self._flat)

    def memo_content(self) -> tuple[Algebra, tuple]:
        """What fixes every shared memo of the module (see ``memo``)."""
        return self.algebra, (self.dim, self._flat)

    def stack(self) -> Mat:
        """The action matrices stacked: rows a*dim .. (a+1)*dim hold rho(b_a)."""
        return self._flat.reshape(self.algebra.dim * self.dim, self.dim)

    def flat_action(self) -> Mat:
        """(A.dim x dim^2): row a is rho(b_a) read row-major."""
        return self._flat

    def act(self, x: Mat) -> Mat:
        """Action matrix of an algebra element (column vector of coords)."""
        return (x.transpose() @ self._flat).reshape(self.dim, self.dim)

    def act_many(self, xs: Mat) -> list[Mat]:
        """Action matrices for several elements (columns of xs)."""
        return unstack(xs.transpose() @ self._flat)  # row c: rho(x_c) row-major

    def validate(self) -> None:
        """Representation axioms: rho(1) = 1 and rho(g b) = rho(g) rho(b) for
        every algebra generator g and basis element b.  This is complete: the
        x with rho(x y) = rho(x) rho(y) for all y form a unital subalgebra,
        and it contains the generators."""
        a, d = self.algebra, self.dim
        if self.act(a.one) != Mat.identity(a.field, d):
            raise ModuleError("unit does not act as identity")
        # a flat action read as [rho(b_0) | ... | rho(b_n-1)], side by side
        shape, axes = (a.dim, d, d), (1, 0, 2)
        side = self._flat.permute(shape, axes)
        for g in a.generator_elements():
            # column b of L_g is g b_b, so row b of this is rho(g b_b)
            products = a.left_mult_matrix(g).transpose() @ self._flat
            if products.permute(shape, axes) != self.act(g) @ side:
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
    return Module(a, Mat.zeros(a.field, a.dim, 0), name="0")


def regular_module(a: Algebra) -> Module:
    return Module(a, a.left_regular_action(), name="A")


def submodule(m: Module, span: Subspace) -> tuple[Module, ModuleMap]:
    """Module on an invariant subspace, with its inclusion map."""
    flat = restrict_action(m.flat_action(), span.basis, span.coords)
    if flat is None:
        raise ModuleError("subspace is not invariant under the action")
    sub = Module(m.algebra, flat)
    return sub, ModuleMap(sub, m, span.basis.transpose())


def quotient_module(m: Module, span: Subspace) -> tuple[Module, ModuleMap]:
    """Quotient by an invariant subspace, with its projection map."""
    ident = Mat.identity(m.algebra.field, m.dim)
    sect = ident.take_rows(span.nonpivots)  # rows: the unit vectors off the pivots
    quot = Module(m.algebra, restrict_action(m.flat_action(), sect, span.quotient_coords))
    return quot, ModuleMap(m, quot, span.quotient_coords(ident).transpose())


def direct_sum(mods: Sequence[Module], name: str = "") -> tuple[Module, list[ModuleMap], list[ModuleMap]]:
    """Direct sum with injections and projections."""
    mods = list(mods)
    if not mods:
        raise ModuleError("empty direct sum needs an algebra; use zero_module")
    a = mods[0].algebra
    if any(m.algebra is not a for m in mods):
        raise ModuleError("direct sum of modules over different algebras")
    total = Module(a, block_diag_action([m.flat_action() for m in mods]), name=name or "+".join(m.name or "?" for m in mods))
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
    d = Module(opposite(m.algebra), transposed_action(m.flat_action()), name=f"D({m.name})" if m.name else "")
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
    return ideal_span(m, m.algebra.radical_subspace())


def ideal_span(m: Module, ideal: Subspace) -> Subspace:
    """I . M as a subspace, for a subspace I of the algebra: the columns of
    the actions of I's basis, side by side."""
    if ideal.dim == 0 or m.dim == 0:
        return Subspace(m.algebra.field, m.dim)
    return Subspace.from_columns((ideal.basis @ m.flat_action()).permute((ideal.dim, m.dim, m.dim), (1, 0, 2)))


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
    # the actions of the radical's basis, stacked
    ker = (rad.basis @ m.flat_action()).reshape(rad.dim * m.dim, m.dim).kernel()
    return submodule(m, Subspace(a.field, m.dim, ker.transpose()))


# ---------------------------------------------------------------------------
# projective modules and presentations
# ---------------------------------------------------------------------------


class ProjSummand:
    """One copy of A e inside an explicit direct sum of such modules, e the
    representative idempotent of class ``class_index``."""

    def __init__(self, class_index: int, idem: Mat, incl: Mat, offset: int, dim: int):
        self.class_index = class_index
        self.idem = idem  # idempotent, coordinates in A
        self.incl = incl  # (A.dim x dim): basis of A e as columns
        self.offset = offset
        self.dim = dim


class ProjSum:
    """Explicit realization of a direct sum of projectives A e_j.

    Column j of ``generators`` is the idempotent e_j of summand j in the
    module basis; the map f -> (f(g_j))_j identifies Hom(P, N) with the
    product of slices e_j N.
    """

    def __init__(self, module: Module, summands: list[ProjSummand], generators: Mat):
        self.module = module
        self.summands = summands
        self.generators = generators

    @property
    def dim(self) -> int:
        return self.module.dim


def projective_module(a: Algebra, e: Mat, name: str = "") -> tuple[Module, Mat, Mat]:
    """A e for an idempotent e: (module, w, gen), w the basis of A e as
    columns and gen the coordinates of e in the basis w."""
    span = Subspace.from_columns(a.right_mult_matrix(e))
    w = span.basis.transpose()
    # row t*n + i: coordinates of b_i w_t in the basis w, entry (s, t) of rho(b_i)
    coords = span.coords(a._basis_products(w, 1))
    if coords is None:
        raise ModuleError("projective summand is not invariant")
    gen = span.coords(e.transpose())
    if gen is None:
        raise ModuleError("idempotent not in its own projective summand")
    return Module(a, coords.permute((span.dim, a.dim, span.dim), (1, 2, 0)), name), w, gen


def _indec_projective(a: Algebra, class_index: int) -> tuple[Module, Mat, Mat, Mat]:
    """A e for the class representative idempotent; returns (module, incl, e, gen),
    gen the coordinates of e in the basis incl."""

    def build():
        prim = a.primitive_idempotents()
        e = prim.idempotents[prim.class_reps[class_index]]
        mod, w, gen = projective_module(a, e, f"P[{class_index}]")
        return mod, w, e, gen

    return memo(a, f"_indec_projective{class_index}", build)


def proj_sum(a: Algebra, class_indices: Sequence[int]) -> ProjSum:
    """Direct sum of indecomposable projectives for the given classes."""
    mods = []
    summands = []
    gens = []
    offset = 0
    for ci in class_indices:
        mod, incl, e, gen = _indec_projective(a, ci)
        mods.append(mod)
        summands.append(ProjSummand(ci, e, incl, offset, mod.dim))
        gens.append(gen.transpose())
        offset += mod.dim
    if not mods:
        return ProjSum(zero_module(a), [], Mat.zeros(a.field, 0, 0))
    total = mods[0] if len(mods) == 1 else direct_sum(mods)[0]
    return ProjSum(total, summands, Mat.block_diag(a.field, gens))


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
        # the pivot columns index vectors of e.M whose top images are a
        # maximal independent set
        for j in top_coords.rref()[1]:
            out.append((ci, cols.take_cols([j])))
    return out


def _cover(m: Module) -> tuple[ProjSum, Mat]:
    """The minimal projective cover P0 -> M, one summand per basis vector of top(M) (cached)."""

    def build():
        gens = _top_class_generators(m)
        p0 = proj_sum(m.algebra, [ci for ci, _ in gens])
        field = m.algebra.field
        # the cover sends basis vector c of P0 to the sum over j of phi_j(c),
        # phi_j the map sending generator j to its vector
        values = _slice_values(m, p0, Mat.identity(field, p0.dim), [v for _, v in gens])
        ones = Mat.from_entries(field, len(gens), 1, {(j, 0): 1 for j in range(len(gens))})
        cover = (values @ ones).reshape(p0.dim, m.dim).transpose()
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


def _slice_values(n: Module, p: ProjSum, cols: Mat, ws: list[Mat]) -> Mat:
    """phi(c) for every column c of ``cols``, a vector of P, and every phi
    that sends the generator of summand j to a column w of ws[j] and every
    other generator to 0: entry (c*N.dim + i, column t of summand j's
    block) is entry i of phi(c) for w = column t of ws[j].

    The block of c on summand j is an element x of A e_j, and
    phi(c) = rho_N(x) w.  Row a of (stack @ ws[j]) read as
    (A.dim x N.dim*|ws[j]|) holds the rho(b_a) w side by side, so one
    product per summand forms every phi(c).
    """
    a = n.algebra
    stack = n.stack()
    blocks = []
    for s, w in zip(p.summands, ws):
        x = s.incl @ cols.take_rows(range(s.offset, s.offset + s.dim))  # column c: c's block, in A
        blocks.append((x.transpose() @ (stack @ w).reshape(a.dim, n.dim * w.cols)).reshape(cols.cols * n.dim, w.cols))
    return Mat.hstack(blocks) if blocks else Mat.zeros(a.field, cols.cols * n.dim, 0)


# ---------------------------------------------------------------------------
# hom spaces
# ---------------------------------------------------------------------------


class HomSpace:
    """Basis of Hom_A(M, N) as explicit ModuleMaps, and ``frame`` = (V, rows,
    cols): coordinate k of phi: M -> N is entry (rows[k], cols[k]) of phi V."""

    def __init__(self, source: Module, target: Module, maps: list[ModuleMap], frame: Frame):
        self.source = source
        self.target = target
        self.maps = maps
        self.frame = frame

    @property
    def dim(self) -> int:
        return len(self.maps)

    def side_by_side(self) -> Mat:
        """The basis maps side by side: (N.dim x dim*M.dim)."""
        return Mat.hstack([f.matrix for f in self.maps]) if self.maps else Mat.zeros(self.source.algebra.field, self.target.dim, 0)

    def combination(self, coeffs: Sequence) -> ModuleMap:
        rows, cols = self.target.dim, self.source.dim
        flat = Mat.vstack([f.matrix.reshape(1, rows * cols) for f in self.maps])
        coords = Mat.column(self.source.algebra.field, coeffs)
        return ModuleMap(self.source, self.target, (coords.transpose() @ flat).reshape(rows, cols))

    def coords_of_products(self, left: Mat, right: Mat) -> Mat:
        """Coordinate columns of the maps l_a r_b: M -> N in a nonzero Hom
        space, column a*B + b for l_a r_b.  ``right`` holds the r_b (X x M.dim)
        side by side; ``left`` holds the l_a (N.dim x X) side by side, read as
        (N.dim*A x X).  Coordinate k of l_a r_b is row rows[k] of l_a times
        r_b w_k, for W = V.take_cols(cols): one gather and one stacked product
        over k read them all."""
        v, rows, cols = self.frame
        h, x, m = self.dim, right.rows, self.source.dim
        n_a, n_b = left.rows // self.target.dim, right.cols // m
        # block k: the rows rows[k] of the l_a (row a), and the r_b w_k (column b)
        lr = left.take_rows([r * n_a + a for r in rows for a in range(n_a)])
        rw = (right.reshape(x * n_b, m) @ v.take_cols(cols)).transpose().reshape(h * x, n_b)
        return stacked_products(lr, rw, h).reshape(h, n_a * n_b)


def _slice_spans(n: Module, p: ProjSum) -> list[Subspace]:
    """The slices e_j . N of P's summands: Hom(P, N) is their product.
    Each is memoised on N and the summand's class."""
    return [memo(n, f"_slice{s.class_index}", lambda s=s: Subspace.from_columns(n.act(s.idem))) for s in p.summands]


def hom_space(m: Module, n: Module) -> HomSpace:
    """Basis of Hom_A(M, N) via a projective presentation of M.

    The matrices and the frame are memoised per pair of contents; the maps
    are new, with m and n themselves as source and target.
    """
    if m.algebra is not n.algebra:
        raise ModuleError("hom_space: modules over different algebras")
    if m.dim == 0 or n.dim == 0:
        return HomSpace(m, n, [], (Mat.zeros(m.algebra.field, m.dim, 0), [], []))
    mats, frame = memo_pair(m, n, "_hom", lambda: _hom_matrices(m, n))
    return HomSpace(m, n, [ModuleMap(m, n, f) for f in mats], frame)


def _hom_matrices(m: Module, n: Module) -> tuple[list[Mat], Frame]:
    """phi in Hom(P0, N) is its values on the generators of P0 in the slice
    bases; it factors through M iff it vanishes on d1 of each generator of
    P1, and then it sends basis vector c of M to phi(section c)."""
    pres = projective_cover_data(m)
    spans = _slice_spans(n, pres.p0)
    bases = [span.basis.transpose() for span in spans]
    sol, free = _slice_values(n, pres.p0, pres.d1 @ pres.p1.generators, bases).kernel_with_free()
    # column t: the values of solution t on the columns of the section
    values = _slice_values(n, pres.p0, pres.section, bases) @ sol
    maps = [values.take_cols([t]).reshape(m.dim, n.dim).transpose() for t in range(sol.cols)]
    return maps, _hom_frame(pres, spans, free)


def _hom_frame(pres: Presentation, spans: list[Subspace], free: list[int]) -> Frame:
    """``HomSpace.frame``: solution row (j, r), r a pivot of slice j, is
    entry r of phi(cover(g_j)), g_j the j-th generator of P0, and the kernel
    basis is the identity on its free rows (proof in the README)."""
    slots = [(j, r) for j, span in enumerate(spans) for r in span.pivots]
    return pres.cover @ pres.p0.generators, [slots[f][1] for f in free], [slots[f][0] for f in free]


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
    hs = hom_space(x, m)
    if not hs.dim:
        z = zero_module(m.algebra)
        return z, ModuleMap(z, m, Mat.zeros(m.algebra.field, m.dim, 0))
    return submodule(m, Subspace.from_columns(hs.side_by_side()))


def corner_module(m: Module, e: Mat, corner: Algebra, corner_incl: Mat) -> Module:
    """e . M as a module over the corner algebra eAe."""
    span = Subspace.from_columns(m.act(e))
    # the corner basis as elements of A, acting on M, restricted to e . M
    flat = restrict_action(corner_incl.transpose() @ m.flat_action(), span.basis, span.coords)
    if flat is None:
        raise ModuleError("corner action left the corner subspace")
    return Module(corner, flat, name=f"e.{m.name}" if m.name else "")


# ---------------------------------------------------------------------------
# endomorphism algebras, isomorphism testing, decomposition
# ---------------------------------------------------------------------------


def endomorphism_algebra(m: Module) -> tuple[Algebra, list[ModuleMap]]:
    """End_A(M) with multiplication f * g = f o g, plus the basis maps.

    Memoised on m and its twins, so every user of End(M) shares one algebra,
    one radical and one set of primitive idempotents.
    """
    return memo(m, "_end", lambda: _endomorphism_algebra(m))


def _endomorphism_algebra(m: Module) -> tuple[Algebra, list[ModuleMap]]:
    hs = hom_space(m, m)
    if not hs.maps:
        raise ModuleError("endomorphism algebra of the zero module")
    flat = Mat.vstack([f.matrix for f in hs.maps]).reshape(hs.dim, m.dim * m.dim)
    return algebra_of_matrices(flat, hs.frame, "endomorphism"), hs.maps


def indecomposable_summands(m: Module) -> list[tuple[Module, ModuleMap, ModuleMap]]:
    """Split into indecomposables via idempotents of End(M).

    Returns (summand, inclusion, projection) triples with
    sum of incl o proj = identity.  An indecomposable m (End(M) local) is
    returned as itself with identity maps, so its cached data is reused.
    The split of a decomposable m is memoised, so m and its twins get the
    same summands; callers must not mutate a returned module or list.
    """
    if m.dim == 0:
        return []
    parts = memo(m, "_summands", lambda: _split(m))
    if parts is None:
        def whole():
            ident = ModuleMap(m, m, Mat.identity(m.algebra.field, m.dim))
            return [(m, ident, ident)]
        return memo(m, "_whole", whole)
    return parts


def _split(m: Module) -> Optional[list[tuple[Module, ModuleMap, ModuleMap]]]:
    """The summand triples of m, or None when End(M) is local."""
    end, _ = endomorphism_algebra(m)
    prim = end.primitive_idempotents()
    if len(prim) == 1:
        return None
    out = []
    # End(M) acts on M through its rep module: each idempotent as a matrix
    for mat in end_algebra_with_bimodule(m)[1].right.act_many(Mat.hstack(prim.idempotents)):
        span = Subspace.from_columns(mat)
        summand, incl = submodule(m, span)
        # projection onto the summand: first apply the idempotent, then coordinates
        proj = span.coords(mat.transpose()).transpose()
        out.append((summand, incl, ModuleMap(m, summand, proj)))
    return out


def is_isomorphic(m: Module, n: Module) -> Optional[ModuleMap]:
    """An explicit isomorphism or None, certified either way.

    By Krull-Schmidt, m and n are isomorphic iff their indecomposable
    summands match up to isomorphism, and ``indecomposables_isomorphic``
    decides each match exactly; nothing is drawn at random.  The answer is memoised per pair of
    contents, as its matrix or None.
    """
    if m.algebra is not n.algebra:
        raise ModuleError("is_isomorphic: modules over different algebras")
    if m.dim != n.dim:
        return None
    if m.dim == 0:
        return ModuleMap(m, n, Mat.zeros(m.algebra.field, 0, 0))
    iso = memo_pair(m, n, "_iso", lambda: _isomorphism_matrix(m, n))
    return None if iso is None else ModuleMap(m, n, iso)


def _isomorphism_matrix(m: Module, n: Module) -> Optional[Mat]:
    """Sum of summand isomorphisms incl_n o iso o proj_m over a matching, or None."""
    msum = indecomposable_summands(m)
    rest = list(indecomposable_summands(n))
    if len(msum) != len(rest):
        return None
    total = Mat.zeros(m.algebra.field, n.dim, m.dim)
    for sm, _, proj_m in msum:
        for j, (sn, incl_n, _) in enumerate(rest):
            iso = indecomposables_isomorphic(sm, sn) if sn.dim == sm.dim else None
            if iso is not None:
                total = total + (incl_n.matrix @ iso.matrix @ proj_m.matrix)
                del rest[j]
                break
        else:
            return None
    if not total.is_invertible():
        raise ModuleError("assembled summand matching is not invertible")
    return total


def indecomposables_isomorphic(m: Module, n: Module) -> Optional[ModuleMap]:
    """Certified iso test for an indecomposable m and an n of equal dimension.

    End(m) is local (Fitting's lemma).  If f0: m -> n is an isomorphism,
    u -> f0 o u maps End(m) onto Hom(m, n), and f0 o u is invertible
    unless u lies in the proper subspace rad End(m).  A basis of Hom(m, n)
    cannot lie in the image of that subspace, so m and n are isomorphic
    iff some basis map is invertible.
    """
    return next((f for f in hom_space(m, n).maps if f.matrix.is_invertible()), None)


def summand_matches(m: Module, parts: Sequence[Module]) -> list[tuple[Module, Optional[int]]]:
    """Each indecomposable summand of m with the index of the first of
    ``parts`` isomorphic to it, or None: m lies in add(parts) iff no index
    is None, when the parts are indecomposable."""
    return [
        (s, next((j for j, t in enumerate(parts) if is_isomorphic(s, t) is not None), None))
        for s, _, _ in indecomposable_summands(m)
    ]


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
    # End(q) acts on q by application: its faithful rep, the basis maps
    right = Module(end, end.rep_action(), name=f"{q.name}|B" if q.name else "")
    return opposite(end), Bimodule(left=q, right=right), basis


def hom_module_over_endop(q: Module, m: Module) -> tuple[Module, HomSpace]:
    """Hom_A(q, m) as a left module over B = End_A(q)^op (action h -> h o b),
    with its basis."""
    b, bim, end_basis = end_algebra_with_bimodule(q)
    hs = hom_space(q, m)
    if hs.dim == 0:
        return Module(b, Mat.zeros(q.algebra.field, b.dim, 0)), hs
    # column t*B + f: the coordinates of h_t o f, entry (s, t) of rho(f)
    coords = hs.coords_of_products(hs.side_by_side().reshape(m.dim * hs.dim, q.dim), Mat.hstack([f.matrix for f in end_basis]))
    flat = coords.permute((hs.dim, hs.dim, b.dim), (2, 0, 1))
    return Module(b, flat, name=f"Hom({q.name},{m.name})" if q.name or m.name else ""), hs


def tensor_over(x: Module, y: Module) -> int:
    """dim of the balanced tensor product of a right B-module with a left B-module.

    ``x`` must be the left opposite(B)-encoding of the right module.  Over a
    field D(x tensor_B y) is Hom_B(y, D x), so this is the dimension of that
    Hom space.
    """
    if opposite(y.algebra) is not x.algebra:
        raise ModuleError("tensor_over: algebras do not match (x over opposite(B), y over B)")
    return hom_space(y, dual(x)).dim


class CounitData:
    """The counit chi_m: q tensor_B Hom_A(q, m) -> m.

    Its image is the sum of the images of the maps q -> m, and its source has
    the dimension ``tensor_over`` gives.  It holds B and the B-module
    Hom_A(q, m), never an A-module, and is shared by every call on a pair
    with the same contents.
    """

    def __init__(self, surjective: bool, bijective: bool, b: Algebra, hom_module: Module):
        self.surjective = surjective
        self.bijective = bijective
        self.b = b
        self.hom_module = hom_module


def counit_analysis(q: Module, m: Module) -> CounitData:
    """Surjectivity/bijectivity of the evaluation map q tensor_B Hom(q, m) -> m (memoised per pair)."""
    return memo_pair(q, m, "_counit", lambda: _counit_analysis(q, m))


def _counit_analysis(q: Module, m: Module) -> CounitData:
    b, bim, _ = end_algebra_with_bimodule(q)
    hmod, hs = hom_module_over_endop(q, m)
    if hmod.dim == 0:
        return CounitData(m.dim == 0, m.dim == 0, b, hmod)
    surjective = hs.side_by_side().rank() == m.dim
    bijective = surjective and tensor_over(bim.right, hmod) == m.dim
    return CounitData(surjective, bijective, b, hmod)


def hom_into_q_as_right_module(q: Module, m: Module) -> tuple[Module, HomSpace]:
    """Hom_A(m, q) as a right module over B = End_A(q)^op, with its basis.

    The right action h . b = (b as endomorphism) o h is encoded, as usual,
    as a left module over opposite(B).
    """
    end, end_basis = endomorphism_algebra(q)  # opposite(B), composing as maps
    hs = hom_space(m, q)
    if hs.dim == 0:
        return Module(end, Mat.zeros(q.algebra.field, end.dim, 0)), hs
    # column f*h + t: the coordinates of f o h_t, entry (s, t) of rho(f)
    ends = Mat.hstack([f.matrix for f in end_basis]).reshape(q.dim * end.dim, q.dim)
    coords = hs.coords_of_products(ends, hs.side_by_side())
    return Module(end, coords.permute((hs.dim, end.dim, hs.dim), (1, 0, 2))), hs


def induced_map_on_hom_into_q(f: ModuleMap, hom_target: HomSpace, hom_source: HomSpace) -> Mat:
    """Matrix of Hom(f, q): h -> h o f, from hom_target = Hom(target f, q) to
    hom_source = Hom(source f, q), in their bases."""
    if not hom_target.dim or not hom_source.dim:
        return Mat.zeros(f.matrix.field, hom_source.dim, hom_target.dim)
    homs = hom_target.side_by_side().reshape(hom_target.target.dim * hom_target.dim, f.target.dim)
    return hom_source.coords_of_products(homs, f.matrix)
