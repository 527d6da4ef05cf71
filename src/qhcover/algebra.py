"""Finite-dimensional associative unital algebras over exact fields.

An algebra is given by structure constants c[i][j][k] (b_i b_j = sum_k
c[i][j][k] b_k) and the coordinates of the unit.  It stores only the nonzero
constants, as COO triples (``linalg.Triples``): S_GF3(3,3) has 3,591 of
165^3 = 4,492,125.  Every product, the radical chain's trace forms and the
radical certificate read the triples.  Structural analysis lives here:
Jacobson radical, Wedderburn decomposition of the semisimple quotient,
complete sets of primitive orthogonal idempotents, corner algebras eAe,
centralizer algebras and direct products.

Radical: one descending chain of ideals for both fields on a faithful matrix
representation, from the trace form (Dickson's criterion) and over GF(p)
p-power trace functionals on integer lifts, correct in small characteristic.
The result is certified: a nilpotent two-sided ideal, and A/J semisimple.
A/J is split into blocks by roots in k of minimal polynomials of central
elements and Lagrange idempotents, on one path for both fields; the centre
is one kernel of a system read off the triples.  Each block is split by a
descent through zero divisors to a minimal left ideal and one solve for
its matrix units E_ii, E_0i and E_i0.  Those units certify the split on
A/J: E_0i E_i0 = E_00 and E_i0 E_0i = E_ii, and the dimension count dim
A/J = sum s_b^2, prove each idempotent primitive, the blocks the
equivalence classes and J = rad A.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .fields import Field, PrimeField
from .linalg import _EXACT, Mat, Subspace, Triples, _matmul, _mod, _negated, _reduce, _slots, block_diag_action, frame_products, matmul_mod, restrict_action, transposed_action
from .memo import memo, share


class AlgebraError(ValueError):
    """Raised when algebra-level validation fails."""


class SplitSearchError(AlgebraError):
    """The search for a zero divisor in a simple block found none.

    The block may well be split: the search is deterministic but tries only
    the elements e x e for x = b_i and b_i +- b_j, and deciding splitness
    over GF(p) deterministically in every case is Ronyai's problem, so this
    is a limit of the engine, not a proof that the input is at fault.
    """


class Algebra:
    """Associative unital algebra given by structure constants.

    ``triples`` (``linalg.Triples``) holds the nonzero constants c_ijk, their
    only stored form; every product reads it through ``_contract``.
    ``Algebra(field, dim, structure, one)`` converts a dense (n^2 x n) Mat
    (row i*n + j: coordinates of b_i b_j), as a small hand-built algebra or
    the products of a corner's basis give it; the other builders pass
    triples to ``Algebra.from_triples``.  ``structure`` and
    ``mult`` are dense forms built on every access for tests and the
    benchmark harness; the library never reads them.  ``one`` is a column
    Mat.  ``rep`` optionally holds a faithful matrix representation smaller
    than the regular one, as an (n x m^2) Mat whose row b is rep(b_b) read
    row-major; the radical chain and its certificate work on it, and the
    certificate refuses a rep that is not faithful on the radical.
    """

    def __init__(
        self,
        field: Field,
        dim: int,
        structure: Mat,
        one: Mat,
        provenance: str = "raw",
        rep: Optional[Mat] = None,
    ):
        if (structure.rows, structure.cols) != (dim * dim, dim):
            raise AlgebraError(f"structure constants are {structure.rows}x{structure.cols}, not {dim * dim}x{dim}")
        self._setup(field, dim, Triples.from_rows(np.arange(dim * dim), structure, dim), one, provenance, rep)

    @classmethod
    def from_triples(
        cls, field: Field, dim: int, triples: Triples, one: Mat, provenance: str = "raw", rep: Optional[Mat] = None
    ) -> "Algebra":
        a = cls.__new__(cls)
        a._setup(field, dim, triples, one, provenance, rep)
        return a

    def _setup(self, field: Field, dim: int, triples: Triples, one: Mat, provenance: str, rep: Optional[Mat]) -> None:
        if one.rows != dim or one.cols != 1:
            raise AlgebraError("unit vector has wrong shape")
        if rep is not None and (rep.rows != dim or math.isqrt(rep.cols) ** 2 != rep.cols):
            raise AlgebraError(f"a {rep.rows}x{rep.cols} rep is not (dim) x (rep dim)^2")
        self.field = field
        self.dim = dim
        # read-only like a Mat's data: the memos and an opposite share them
        for x in triples[:4]:
            x.setflags(write=False)
        self.triples = triples
        self.one = one
        self.provenance = provenance
        self._rep = rep

    @property
    def structure(self) -> Mat:
        """The dense (n^2 x n) structure constants, built on every access."""
        return self.triples.to_mat(self.field, self.dim)

    @property
    def mult(self) -> np.ndarray:
        """The stored entries of ``structure`` as an (n, n, n) array: c_ijk
        over GF(p), its numerator over ``structure.den`` over QQ."""
        n = self.dim
        return self.structure.data.reshape(n, n, n)

    # -- basic element arithmetic -----------------------------------------
    def basis_element(self, i: int) -> Mat:
        return Mat.from_entries(self.field, self.dim, 1, {(i, 0): 1})

    def zero_element(self) -> Mat:
        return Mat.zeros(self.field, self.dim, 1)

    def multiply(self, x: Mat, y: Mat) -> Mat:
        return self.left_mult_matrix(x) @ y

    def left_mult_matrix(self, x: Mat) -> Mat:
        """Matrix of left multiplication by x: (L_x)[k, j] = sum_i x_i c_ijk."""
        return self._basis_products(x, 0).transpose()

    def right_mult_matrix(self, y: Mat) -> Mat:
        """Matrix of right multiplication by y: (R_y)[k, i] = sum_j y_j c_ijk."""
        return self._basis_products(y, 1).transpose()

    def _basis_products(self, xs: Mat, side: int) -> Mat:
        """The products of the columns x_r of xs with the basis, as rows:
        row r*n + j is x_r b_j (side 0) or b_j x_r (side 1)."""
        n, r = self.dim, xs.cols
        t = self._contract(xs.data.T, side)
        return Mat.from_reduced(self.field, t.reshape(r * n, n), xs.den * self.triples.den)

    def multiply_batches(self, xs: Mat, ys: Mat) -> Mat:
        """All pairwise products of column sets: column (r*s) order r-major."""
        n, r, s = self.dim, xs.cols, ys.cols
        # contract the constants with the smaller side, then one product
        if r <= s:
            t = self._contract(xs.data.T, 0)  # t[r, j, k] = (x_r b_j)_k
            prod = _matmul(self.field, ys.data.T, t.transpose(1, 0, 2).reshape(n, r * n)).reshape(s, r, n)
            out = prod.transpose(2, 1, 0)
        else:
            t = self._contract(ys.data.T, 1)  # t[s, i, k] = (b_i y_s)_k
            prod = _matmul(self.field, xs.data.T, t.transpose(1, 0, 2).reshape(n, s * n)).reshape(r, s, n)
            out = prod.transpose(2, 0, 1)
        return Mat.from_reduced(self.field, out.reshape(n, r * s), xs.den * ys.den * self.triples.den)

    def left_regular_action(self) -> Mat:
        """The left multiplication matrices L_{b_i}[k, j] = c_ijk of the
        basis elements, row i holding L_{b_i} read row-major: one n^3 array
        filled at (i, k, j), the only dense form of the constants that the
        library builds."""
        n, t = self.dim, self.triples
        flat = np.zeros((n, n, n), t.data.dtype)
        flat[t.i, t.k, t.j] = t.data
        return Mat.from_reduced(self.field, flat.reshape(n, n * n), t.den)

    def _coo(self, side: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The triples sorted for one contraction.

        Side 0 sums over i and keeps (j, k), side 1 sums over j and keeps
        (i, k), side 2 sums over k and keeps (i, j).  Returns (summed index,
        c_ijk, segment starts, kept index j*n + k, i*n + k or i*n + j of each
        segment); the terms of one kept index are contiguous.
        """

        def build():
            n = self.dim
            # over GF(p) ``_contract`` sums at most n terms below (p-1)^2 per
            # segment, inside _reduce's bound while n (p-1)^2 < 2^51: any n
            # at p = 3, n <= 2048 near PrimeField.MAX_P (n^3 constants of
            # 64 GiB); Python ints over QQ have no bound
            if isinstance(self.field, PrimeField) and n * (self.field.p - 1) ** 2 >= _EXACT:
                raise AlgebraError(f"dimension {n} is too large for exact products over GF({self.field.p})")
            t = self.triples
            summed, outer, inner = [(t.i, t.j, t.k), (t.j, t.i, t.k), (t.k, t.i, t.j)][side]
            target = outer * n + inner
            order = np.argsort(target, kind="stable")
            target = target[order]
            starts = np.flatnonzero(np.diff(target, prepend=-1))
            return summed[order], t.data[order], starts, target[starts]

        return memo(self, f"_coo{side}", build)

    def _contract(self, xs: np.ndarray, side: int) -> np.ndarray:
        """Stored rows xs (r x n) against the stored structure constants, as
        (r, n, n): side 0 gives t[r, j, k] = sum_i xs[r, i] c_ijk, side 1
        t[r, i, k] = sum_j xs[r, j] c_ijk, side 2 t[r, i, j] = sum_k xs[r, k]
        c_ijk; reduced mod p over GF(p), over QQ numerators over the product
        of the two denominators."""
        summed, coeff, starts, target = self._coo(side)
        n, r = self.dim, xs.shape[0]
        out = np.zeros((r, n * n), xs.dtype)
        if starts.size:
            sums = np.add.reduceat(xs[:, summed] * coeff, starts, axis=1)
            # a segment sums at most n terms below (p-1)^2, checked in ``_coo``
            out[:, target] = _mod(self.field, sums)
        return out.reshape(r, n, n)

    def rep_action(self) -> Mat:
        """A faithful representation of the basis, row b holding rep(b_b)
        read row-major (left regular by default)."""
        if self._rep is not None:
            return self._rep
        return self.left_regular_action()

    # -- generators ---------------------------------------------------------
    def generator_indices(self) -> list[int]:
        """Indices of a small basis subset generating A as unital algebra."""
        return memo(self, "_gens", self._generator_indices)

    def _generator_indices(self) -> list[int]:
        # the subalgebra generated by S is the smallest subspace that holds 1
        # and is closed under right multiplication by S, so each closure
        # forms span x generators, not span x span
        n = self.dim
        span = Subspace(self.field, n, self.one.transpose())
        gens: list[int] = []
        while span.dim < n:
            new_idx = next(i for i in range(n) if not span.contains(self.basis_element(i).transpose()))
            gens.append(new_idx)
            gen_cols = Mat.identity(self.field, n).take_cols(gens)
            span = Subspace(self.field, n, Mat.vstack([span.basis, self.basis_element(new_idx).transpose()]))
            while span.dim < n:
                prods = self.multiply_batches(span.basis.transpose(), gen_cols)
                newspan = Subspace(self.field, n, Mat.vstack([span.basis, prods.transpose()]))
                if newspan.dim == span.dim:
                    break
                span = newspan
        return gens

    def generator_elements(self) -> tuple[Mat, ...]:
        return memo(self, "_gen_elements", lambda: tuple(self.basis_element(i) for i in self.generator_indices()))

    # -- validation ----------------------------------------------------------
    def validate_unit(self) -> None:
        ident = Mat.identity(self.field, self.dim)
        if self.left_mult_matrix(self.one) != ident:
            raise AlgebraError("unit axiom fails: one * x != x")
        if self.right_mult_matrix(self.one) != ident:
            raise AlgebraError("unit axiom fails: x * one != x")

    def validate_associativity(self) -> None:
        n = self.dim
        ident = Mat.identity(self.field, n)
        pairs = self.multiply_batches(ident, ident)  # column i*n + j: b_i b_j
        # column i*n^2 + j*n + k of both: (b_i b_j) b_k and b_i (b_j b_k)
        lhs, rhs = self.multiply_batches(pairs, ident), self.multiply_batches(ident, pairs)
        if lhs != rhs:
            bad = next(c for c in range(lhs.cols) if lhs.take_cols([c]) != rhs.take_cols([c]))
            i, j, k = bad // (n * n), bad // n % n, bad % n
            raise AlgebraError(f"associativity fails at basis triple ({i}, {j}, {k})")

    # -- radical ---------------------------------------------------------------
    def radical_subspace(self) -> Subspace:
        """The Jacobson radical as a subspace of coordinate space (cached)."""
        return memo(self, "_radical", lambda: _radical(self))

    # -- primitive idempotents ---------------------------------------------------
    def primitive_idempotents(self) -> "PrimitiveDecomposition":
        return memo(self, "_prim", lambda: _primitive_idempotents(self))


class PrimitiveDecomposition:
    """Complete orthogonal set of primitive idempotents with block labels.

    Two idempotents share a block exactly when their projective covers are
    isomorphic; ``class_reps`` holds one index per block.
    """

    def __init__(self, idempotents: list[Mat], block_of: list[int]):
        self.idempotents = idempotents
        self.block_of = block_of
        self.n_blocks = (max(block_of) + 1) if block_of else 0
        self.class_reps = [block_of.index(b) for b in range(self.n_blocks)]

    def __len__(self) -> int:
        return len(self.idempotents)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def from_structure_constants(field: Field, dim: int, mult, one, provenance: str = "raw") -> Algebra:
    """Build and exhaustively validate an algebra from raw structure data.

    ``mult`` is Triples, the (dim^2 x dim) structure Mat or nested lists
    c[i][j][k].
    """
    one_mat = one if isinstance(one, Mat) else Mat.column(field, one)
    if isinstance(mult, Triples):
        a = Algebra.from_triples(field, dim, mult, one_mat, provenance=provenance)
    else:
        if not isinstance(mult, Mat):
            rows = [row for plane in mult for row in plane]
            if len(mult) != dim or len(rows) != dim * dim:
                raise AlgebraError(f"structure tensor is not {dim}x{dim}x{dim}")
            mult = Mat(field, rows, cols=dim)
        a = Algebra(field, dim, mult, one_mat, provenance=provenance)
    a.validate_unit()
    a.validate_associativity()
    return a


def opposite(a: Algebra) -> Algebra:
    """Opposite algebra: c_op[i][j][k] = c[j][i][k], with opposite(opposite(a)) is a."""
    return memo(a, "_op_link", lambda: _opposite(a))


def _opposite(a: Algebra) -> Algebra:
    t = a.triples
    rep = None if a._rep is None else transposed_action(a._rep)
    opp = Algebra.from_triples(a.field, a.dim, t._replace(i=t.j, j=t.i), a.one, provenance=a.provenance, rep=rep)
    opp._op_link = a
    # A and A^op have one radical and one set of primitive idempotents,
    # computed by whichever side asks first
    share(a, opp, "_radical")
    share(a, opp, "_prim")
    return opp


def direct_product(a: Algebra, b: Algebra) -> Algebra:
    """Block-diagonal product algebra with unit (1, 1)."""
    if a.field != b.field:
        raise AlgebraError("direct product of algebras over different fields")
    n, m = a.dim, b.dim
    field = a.field
    # a's constants, then b's with every index shifted by n; mixed products are 0
    ta, tb = a.triples, b.triples
    den = math.lcm(ta.den, tb.den)
    mult = Triples(
        *(np.concatenate([x, y + n]) for x, y in ((ta.i, tb.i), (ta.j, tb.j), (ta.k, tb.k))),
        np.concatenate([ta.data * (den // ta.den), tb.data * (den // tb.den)]),
        den,
    )
    one = Mat.vstack([a.one, b.one])
    rep = None
    if a._rep is not None and b._rep is not None:
        za, zb = Mat.zeros(field, n, b._rep.cols), Mat.zeros(field, m, a._rep.cols)
        rep = Mat.vstack([block_diag_action([a._rep, za]), block_diag_action([zb, b._rep])])
    return Algebra.from_triples(field, n + m, mult, one, provenance="product", rep=rep)


def corner_algebra(a: Algebra, e: Mat) -> tuple[Algebra, Mat]:
    """Corner algebra eAe with unit e; also returns the inclusion matrix.

    The inclusion matrix (dim A x dim eAe) carries corner coordinates back
    to coordinates in A.
    """
    if a.multiply(e, e) != e:
        raise AlgebraError("corner_algebra: input is not idempotent")
    proj_full = a.left_mult_matrix(e) @ a.right_mult_matrix(e)  # x -> e x e
    sub = Subspace.from_columns(proj_full)
    incl = sub.basis.transpose()  # columns form a basis of eAe
    m = sub.dim
    # products of basis columns (r-major pairs), re-expressed in corner coordinates
    mult = sub.coords(a.multiply_batches(incl, incl).transpose())
    if mult is None:
        raise AlgebraError("corner product left the corner subspace")
    one_coords = sub.coords(e.transpose())
    if one_coords is None:
        raise AlgebraError("corner unit is not in the corner subspace")
    rep = None
    if a._rep is not None:
        flat, size = _rep_stack(a)
        reps = Mat.hstack([e, incl]).transpose() @ flat  # row 0: rep(e), row 1 + c: rep(incl_c)
        img = Subspace.from_columns(reps.take_rows([0]).reshape(size, size))
        if img.dim:
            # x in eAe is e x e, so rep(x) maps e.V = image of rep(e) into itself
            rep = restrict_action(reps.take_rows(range(1, m + 1)), img.basis, img.coords)
            if rep is None:
                raise AlgebraError("corner rep left the image of rep(e)")
    corner = Algebra(a.field, m, mult, one_coords.transpose(), provenance="corner", rep=rep)
    return corner, incl


def basic_algebra(a: Algebra) -> tuple[Algebra, Mat]:
    """The basic algebra B = eAe, Morita equivalent to a, and its inclusion matrix.

    e is the sum of one primitive idempotent per class, so AeA = A and
    M -> eM is an equivalence from A-modules to B-modules that takes A e_i to
    B e_i.  When a is already basic (one idempotent per class), returns
    ``(a, identity)`` and makes no copy.
    """
    return memo(a, "_basic", lambda: _basic_algebra(a))


def _basic_algebra(a: Algebra) -> tuple[Algebra, Mat]:
    prim = a.primitive_idempotents()
    if prim.n_blocks == len(prim):
        return a, Mat.identity(a.field, a.dim)
    reps = [prim.idempotents[r] for r in prim.class_reps]
    b, incl = corner_algebra(a, sum(reps[1:], reps[0]))
    idems = [incl.solve(e) for e in reps]
    # A's certificates carry over to B, so B's decomposition is seeded, with
    # class i of B the class i of A.  The e_i stay orthogonal idempotents
    # (checked again on B below) and sum to e = 1_B.  e e_i = e_i = e_i e
    # gives e_i B e_i = e_i A e_i, local with residue field k, so each e_i is
    # primitive in B.  For i != j, e_i B e_j = e_i A e_j: two e_i that are
    # equivalent in B would be equivalent in A, and A's classes are distinct.
    if not _orthogonal_idempotents(b, idems) or sum(idems[1:], idems[0]) != b.one:
        raise AlgebraError("basic algebra: the class idempotents are not orthogonal idempotents summing to 1 in eAe")
    memo(b, "_prim", lambda: PrimitiveDecomposition(idems, list(range(len(idems)))))
    return b, incl


Frame = tuple[Mat, list[int], list[int]]


def algebra_of_matrices(flat: Mat, frame: Frame, provenance: str) -> Algebra:
    """The algebra spanned by square matrices X_k closed under products, row
    k of ``flat`` holding X_k read row-major, with the identity in the span
    and the X_k as its faithful ``rep``.  Coordinate k of an X in the span
    is entry (rows[k], cols[k]) of X G, for ``frame`` = (G, rows, cols).
    A G = I, as in the orbit-sum and centralizer frames, reads the X themselves."""
    g, rows, cols = frame
    n, m = flat.rows, g.rows
    stacked = flat.reshape(n * m, m)
    one = Mat.column(g.field, [g[r, c] for r, c in zip(rows, cols)])
    stacked_g = stacked if g == Mat.identity(g.field, m) else stacked @ g
    return Algebra.from_triples(g.field, n, frame_products(stacked, stacked_g, rows, cols), one, provenance=provenance, rep=flat)


def centralizer_algebra(generators: Sequence[Mat]) -> tuple[Algebra, Frame]:
    """Algebra of matrices commuting with all generators on a common space,
    and its frame (I, rows, cols).  Its basis and faithful ``rep`` is the
    kernel of the commutation equations in vec(M), the identity on its free
    rows t*rows[k] + cols[k]: coordinate k of M is M[rows[k], cols[k]].
    """
    gens = list(generators)
    if not gens:
        raise AlgebraError("centralizer needs at least one generator (use identity)")
    t = gens[0].rows
    ident = Mat.identity(gens[0].field, t)
    # rows: entries of G M - M G, unknowns vec(M) row-major
    sys = Mat.vstack([g.kron(ident) - ident.kron(g.transpose()) for g in gens])
    kernel, free = sys.kernel_with_free()  # (t^2, dim) columns
    frame = (ident, [f // t for f in free], [f % t for f in free])
    return algebra_of_matrices(kernel.transpose(), frame, "centralizer"), frame


# ---------------------------------------------------------------------------
# radical computations
# ---------------------------------------------------------------------------


def _radical(a: Algebra) -> Subspace:
    rad = _radical_chain(a)
    _assert_nilpotent_ideal(a, rad)
    return rad


def _rep_stack(a: Algebra) -> tuple[Mat, int]:
    """``rep_action`` (row b: vec(rep(b_b)) row-major) and the rep's dimension m."""
    flat = a.rep_action()
    return flat, math.isqrt(flat.cols)


def _radical_chain(a: Algebra) -> Subspace:
    """The radical as the last ideal of a descending chain A = I_-1 >= I_0 >= ...

    I_l = {x in I_(l-1) : gamma_l(x y) = 0 for all y in A}, on a faithful
    representation of dimension m: gamma_0 = tr, Dickson's trace form and the
    only layer over QQ; over GF(p), gamma_l(z) = tr(lift(z)^(p^l)) / p^l mod
    p for l = 1..ceil(log_p m) (Cohen, Ivanyos, Wales, "Finding the radical
    of an algebra of linear transformations", J. Pure Appl. Algebra 117-118,
    1997).  gamma_l is linear on the ideal I_(l-1), so its values on the
    reduced basis z_k fix it: psi(v) = sum_k v[pivot_k] gamma_l(z_k) agrees
    with gamma_l on I_(l-1), and the form psi(b_i b_j) is one product with
    the structure constants.  x b_j stays in I_(l-1), so I_l is the kernel
    of x -> (psi(x b_j))_j on I_(l-1).  The certificate that J = rad A is in
    ``_radical`` and ``_primitive_idempotents``.
    """
    field, n = a.field, a.dim
    stack, m = _rep_stack(a)

    def form(psi: Mat) -> Mat:
        # form[i, j] = psi(b_i b_j), a sum over k for each (i, j) of the triples
        return Mat.from_reduced(field, a._contract(psi.data.T, 2).reshape(n, n), psi.den * a.triples.den)

    # layer 0: psi = tr on all of A, as vec(X) . vec(1_m) = tr X
    traces = stack @ Mat.identity(field, m).reshape(m * m, 1)
    ideal = Subspace(field, n, form(traces).transpose().kernel().transpose())
    level = 0
    while isinstance(field, PrimeField) and field.p**level < m:
        level += 1
    for layer in range(1, level + 1):
        if ideal.dim == 0:
            break
        xs = (ideal.basis @ stack).data.reshape(ideal.dim, m, m)  # X_k = rep(z_k)
        values = Mat.from_reduced(field, _gamma_traces(xs, field.p, layer).reshape(ideal.dim, 1))
        psi = Mat.identity(field, n).take_cols(ideal.pivots) @ values
        ker = (ideal.basis @ form(psi)).transpose().kernel()
        if ker.cols < ideal.dim:
            ideal = Subspace(field, n, ker.transpose() @ ideal.basis)
    return ideal


def _gamma_traces(zs: np.ndarray, p: int, layer: int) -> np.ndarray:
    """gamma_layer (layer >= 1) for a batch of r reduced float64 matrices
    (entries in [0, p)), as float64.

    tr(z^e) is vec(z^(e-1)) . vec(z^T), one batched product of shapes
    (r, 1, m^2) and (r, m^2, 1), so the last power is never formed.
    """
    mod, e = p ** (layer + 1), p**layer
    r, m = zs.shape[0], zs.shape[-1]
    power = _batched_matrix_power_mod(zs, e - 1, mod).reshape(r, 1, m * m)
    traces = matmul_mod(power, zs.transpose(0, 2, 1).reshape(r, m * m, 1), mod).reshape(r)
    if np.any(traces % e):
        raise AlgebraError("p-power trace not divisible; radical layering failed")
    return traces // e  # below mod / e = p


def _batched_matrix_power_mod(zs: np.ndarray, e: int, mod: int) -> np.ndarray:
    """zs[a]^e mod ``mod``, e >= 1, for a batch of m x m float64 matrices
    with entries in [0, mod).

    Square-and-multiply from the highest bit, so no product with the
    identity.
    """
    result = zs
    for bit in bin(e)[3:]:
        result = matmul_mod(result, result, mod)
        if bit == "1":
            result = matmul_mod(result, zs, mod)
    return result


def _assert_nilpotent_ideal(a: Algebra, rad: Subspace) -> None:
    """Certify the computed radical: a nilpotent two-sided ideal.

    J is a two-sided ideal when W(b_i j) = W(j b_i) = 0 for every basis
    vector j of J and every i, where W is the quotient-coordinate map of
    k^n / J.  W(b_i j) = sum_(l,k) j_l c_ilk W(b_k), so for each i it is one
    product of the columns l of J's basis with the rows c_ilk W(b_k) of the
    triples with that i, and no product b_i j is formed.  Nilpotency is read
    on the representation, checked faithful on J (the rep matrices X_k of
    J's basis are independent): J^k lies in J, so J^k = 0 exactly when
    rep(J)^k = 0, that is when the flag of row spaces k^m >= k^m J >= k^m J^2
    >= ... reaches 0, within m steps if at all.
    """
    if rad.dim == 0:
        return
    field, n, r = a.field, a.dim, rad.dim
    w = rad.quotient_coords(Mat.identity(field, n)).data  # row k: W(b_k)
    # side 1 sums over the second index: b_i j; side 0 over the first: j b_i
    for side in (1, 0):
        summed, coeff, starts, target = a._coo(side)
        kept, k = np.divmod(np.repeat(target, np.diff(starts, append=summed.size)), n)
        # a row c W(b_k) is below (p-1)^2 before it is reduced
        rows = _mod(field, coeff[:, None] * w[k])
        bounds = np.searchsorted(kept, np.arange(n + 1))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if lo < hi and _matmul(field, rad.basis.data[:, summed[lo:hi]], rows[lo:hi]).any():
                raise AlgebraError("computed radical is not a two-sided ideal")
    stack, m = _rep_stack(a)
    xs = rad.basis @ stack  # row k: vec(X_k)
    if xs.rank() < r:
        raise AlgebraError("the representation is not faithful on the computed radical")
    # side = [X_1 | ... | X_r], so that row i of flag @ side, read as r rows
    # of length m, holds w_i X_1, ..., w_i X_r; the rows of all X_k span k^m J
    side = Mat.from_reduced(field, xs.data.reshape(r, m, m).transpose(1, 0, 2).reshape(m, r * m), xs.den)
    prods = xs.reshape(r * m, m)
    for _ in range(m):
        red, piv = prods.rref()
        if not piv:
            return
        prods = (red.take_rows(range(len(piv))) @ side).reshape(len(piv) * r, m)
    raise AlgebraError("computed radical is not nilpotent")


# ---------------------------------------------------------------------------
# semisimple quotient and Wedderburn decomposition
# ---------------------------------------------------------------------------


class QuotientAlgebra(NamedTuple):
    """A/J with projection (quotient coords) and a linear section."""

    quotient: Algebra
    proj: Mat  # (s x n)
    sect: Mat  # (n x s)


def quotient_algebra(a: Algebra, ideal: Subspace) -> QuotientAlgebra:
    """A/I for a two-sided ideal I given as a subspace of coordinate space."""
    # projection = quotient coordinates, section = non-pivot coordinate vectors
    field, n = a.field, a.dim
    ident = Mat.identity(field, n)
    proj = ideal.quotient_coords(ident).transpose()
    sect = ident.take_cols(ideal.nonpivots)
    # sect_r sect_c = b_i b_j for the non-pivots i and j: the triples with
    # both there, one row of constants per pair, projected
    s, t = sect.cols, a.triples
    position = np.full(n, -1)
    position[ideal.nonpivots] = np.arange(s)
    r, c = position[t.i], position[t.j]
    keep = (r >= 0) & (c >= 0)
    pairs, row = _slots(r[keep] * s + c[keep], s * s)
    products = np.zeros((pairs.size, n), t.data.dtype)
    products[row, t.k[keep]] = t.data[keep]
    coords = Mat.from_reduced(field, products, t.den) @ proj.transpose()
    quot = Algebra.from_triples(field, s, Triples.from_rows(pairs, coords, s), proj @ a.one, provenance="quotient")
    return QuotientAlgebra(quot, proj, sect)


def semisimple_quotient(a: Algebra) -> QuotientAlgebra:
    return quotient_algebra(a, a.radical_subspace())


def center_basis(a: Algebra) -> Mat:
    """Columns spanning the center {x : xy = yx for all y}, echelon-normalized.

    x = sum_i x_i b_i is central iff x b_j = b_j x for every j, that is iff
    sum_i x_i (c_ijk - c_jik) = 0 for every (j, k).  Each triple c_ijk puts
    +c at row j*n + k, column i and -c at row i*n + k, column j of that
    system; only the rows some triple reaches are built, at most 2 nnz, and
    one kernel is taken.  The echelon kernel depends only on the solution
    space and the column order, so no basis of generators is needed.
    """
    field, n, t = a.field, a.dim, a.triples
    rows, slot = _slots(np.concatenate([t.j * n + t.k, t.i * n + t.k]), n * n)
    plus, minus = slot[: t.data.size], slot[t.data.size :]
    # within each half no cell repeats: a triple (i, j, k) fixes its cell
    system = np.zeros((rows.size, n), t.data.dtype)
    system[plus, t.i] = t.data
    system[minus, t.j] += _negated(field, t.data)
    system = _mod(field, system)
    return Mat.from_reduced(field, system[system.any(axis=1)], t.den).kernel()


_NOT_SPLIT = "field not splitting: simple block has a larger center (extend the base field)"


def central_primitive_idempotents(a: Algebra) -> list[Mat]:
    """Primitive central idempotents of a split semisimple algebra.

    Each element z of a basis of the center splits the blocks eps found so
    far.  z acts on each simple block by a scalar of k, so the minimal
    polynomial of z eps in eps A eps has distinct roots l in k, and the part
    of eps for l is the Lagrange interpolant prod_{m != l} (z eps - m eps) /
    (l - m): no polynomial is factored (Eberly and Giesbrecht, J. Symbolic
    Comput. 37, 2004).  Fewer roots than the degree mean a block with a
    larger center.  The parts come in the order of ``_roots``, and so do the
    primitive idempotents and the ``simple_of`` indices of reports.
    """
    blocks: list[Mat] = [a.one]
    zc = center_basis(a)
    for c in range(zc.cols):
        z = zc.take_cols([c])
        new_blocks: list[Mat] = []
        for eps in blocks:
            zeps = a.multiply(z, eps)
            # minimal polynomial of z*eps in the unital algebra eps*A*eps
            coeffs = _minimal_poly_in_corner(a, zeps, eps)
            if len(coeffs) == 2:
                new_blocks.append(eps)
                continue
            roots = _roots(coeffs, a.field)
            if len(roots) < len(coeffs) - 1:
                raise AlgebraError(_NOT_SPLIT)
            left = a.left_mult_matrix(zeps)
            for lam in roots:
                e, others = eps, [mu for mu in roots if mu != lam]
                for mu in others:
                    e = left @ e - e.scale(mu)
                new_blocks.append(e.scale(a.field.inv(math.prod(lam - mu for mu in others))))
        blocks = new_blocks
    if not _orthogonal_idempotents(a, blocks):
        raise AlgebraError("central idempotents are not orthogonal idempotents")
    if sum(blocks[1:], blocks[0]) != a.one:
        raise AlgebraError("central idempotents do not sum to one")
    return blocks


def _orthogonal_idempotents(a: Algebra, idems: list[Mat]) -> bool:
    """e f = e when e is f, and 0 otherwise, for all e, f in idems."""
    r = len(idems)
    if not r:
        return True
    e = Mat.hstack(idems)
    # column i*r + j of the products is e_i e_j: e_i on the diagonal i*r + i
    diagonal = Mat.from_entries(a.field, r, r * r, {(i, i * r + i): 1 for i in range(r)})
    return a.multiply_batches(e, e) == e @ diagonal


def _roots(coeffs: list, field: Field) -> list:
    """The distinct roots in k of a monic polynomial (coefficients lowest
    first).  They come in the order in which sympy's factor list, used here
    before, gave the factors x - l, so that reports keep their order: over
    GF(p) by (-l) mod p, over QQ by (b, -a) for l = a/b in lowest terms.
    Each root is confirmed by evaluating the polynomial at it."""
    if isinstance(field, PrimeField):
        # Horner on all of GF(p) at once: a value below p times x below p,
        # plus a coefficient, stays below p^2 + p < 2^51 (p <= 2^20)
        p = field.p
        xs, vals = np.arange(p, dtype=np.float64), np.ones(p)
        for c in reversed(coeffs[:-1]):
            vals *= xs
            vals += c
            _reduce(vals, p)
        return sorted((int(r) for r in np.flatnonzero(vals == 0)), key=lambda lam: -lam % p)
    # over QQ y = den x makes the polynomial a monic g with integer
    # coefficients, whose rational roots are integers, and |y| <= bound
    # (Fujiwara).  Sturm's chain g, g', -rem(g, g'), ..., each scaled to
    # integers by a positive factor, counts the distinct real roots in
    # (m + 1/2, m' + 1/2] as the drop in its sign changes, so halving
    # (-bound - 1/2, bound + 1/2] isolates each real root next to an integer
    # m, and g(m) = 0 decides whether it is m
    den, deg = math.lcm(*(c.denominator for c in coeffs)), len(coeffs) - 1
    g = [int(c * den ** (deg - i)) for i, c in enumerate(coeffs)]
    bound = 2 * max(1 << -(-abs(c).bit_length() // (deg - i)) for i, c in enumerate(g[:-1]))
    chain = [g, [i * c for i, c in enumerate(g)][1:]]
    while len(chain[-1]) > 1:
        rem, div = [Fraction(c) for c in chain[-2]], chain[-1]
        while len(rem) >= len(div):  # subtract rem[-1] / div[-1] t^k div
            k, q = len(rem) - len(div), rem[-1] / div[-1]
            rem = rem[:k] + [r - q * c for r, c in zip(rem[k:-1], div)]
        while rem and not rem[-1]:
            rem.pop()
        if not rem:
            break
        scale = math.lcm(*(c.denominator for c in rem))
        chain.append([int(-c * scale) for c in rem])

    def changes(m: int) -> int:  # at m + 1/2, on 2^deg(h) h(m + 1/2)
        signs = [v > 0 for h in chain if (v := sum(c * (2 * m + 1) ** i << len(h) - 1 - i for i, c in enumerate(h)))]
        return sum(x != y for x, y in zip(signs, signs[1:]))

    found, todo = [], [(-bound - 1, bound, changes(-bound - 1), changes(bound))]
    while todo:
        lo, hi, at_lo, at_hi = todo.pop()
        if at_lo == at_hi:
            continue
        if hi > lo + 1:
            mid = (lo + hi) // 2
            at_mid = changes(mid)
            todo += [(lo, mid, at_lo, at_mid), (mid, hi, at_mid, at_hi)]
        elif sum(c * hi**i for i, c in enumerate(g)) == 0:
            found.append(hi)
    return sorted((Fraction(r, den) for r in found), key=lambda lam: (lam.denominator, -lam.numerator))


def _minimal_poly_in_corner(a: Algebra, z: Mat, eps: Mat) -> list:
    """Minimal polynomial of z in the unital algebra (eps A eps, unit eps)."""
    vecs = [eps]
    power = eps
    while True:
        power = a.multiply(z, power)
        span = Mat.hstack(vecs)
        sol = span.solve(power)
        if sol is not None:
            coeffs = [a.field.neg(sol[i, 0]) for i in range(len(vecs))]
            return coeffs + [a.field.one()]
        vecs.append(power)


def _primitive_set_semisimple(a: Algebra) -> tuple[list[Mat], list[int], list[tuple[Mat, Mat]]]:
    """All primitive idempotents of a split semisimple algebra, with block
    ids and links.

    Each block eps A, isomorphic to M_s(k), takes two deterministic steps.  A descent
    shrinks the left ideal A e, from e = eps, to a minimal one, of dimension
    s: a zero divisor z of e A e (``_zero_divisor``) gives the proper left
    ideal A z inside A e, and its idempotent is any f in A z with z f = z,
    for f = a z gives f^2 = a z f = f, and z = z f puts A z inside A f.
    The block then acts faithfully on the simple module L = A e, so the
    s^2 x s^2 matrix phi taking a block element to its action on L (in a
    basis w of L) is invertible, and the solutions of phi c = E_ii are s
    orthogonal primitive idempotents summing to eps: the matrix units.  The
    same solve gives the links (u_i, v_i) = (E_0i, E_i0), which
    ``_primitive_idempotents`` checks; a phi that leaves them unsolved is
    singular, so A/J is not semisimple and the radical certificate fails.
    """
    if a.dim == 0:
        return [], [], []
    idems: list[Mat] = []
    blocks: list[int] = []
    links: list[tuple[Mat, Mat]] = []
    for b_id, eps in enumerate(central_primitive_idempotents(a)):
        # Z(eps A eps) = k eps needs no check.  Every basis element z of
        # Z(A) acts on eps by a scalar l: the block z met had z e = l e
        # (a minimal polynomial of degree 1) or was split into Lagrange
        # parts with (z - l) e_l = 0, and eps is a polynomial in later
        # central elements times that part.  For a central eps, Z(eps A
        # eps) = Z(A) eps, which is then k eps, and eps A is M_s(k) when
        # it splits at all.
        block = Subspace.from_columns(a.left_mult_matrix(eps))
        s = math.isqrt(block.dim)
        e, ideal = eps, block
        while ideal.dim > s:
            z = _zero_divisor(a, e)
            span = a.right_mult_matrix(z)  # columns b_i z, spanning A z
            ideal = Subspace.from_columns(span)
            e = span @ (a.left_mult_matrix(z) @ span).solve(z)
        # row j*s + k of the coordinates is B_j w_k in the basis w, column k
        # of the matrix M_j of B_j on L: column j of phi is M_j read column
        # by column, with M_j[l, k] at k*s + l: E_ii at i*s + i, E_0i at
        # i*s and E_i0 at i, the right-hand sides [E_ii | E_0i | E_i0]
        act = ideal.coords(a.multiply_batches(block.basis.transpose(), ideal.basis.transpose()).transpose())
        targets = {(k, c * s + i): 1 for i in range(s) for c, k in enumerate((i * s + i, i * s, i))}
        units = act.reshape(s * s, s * s).transpose().solve(Mat.from_entries(a.field, s * s, 3 * s, targets))
        if units is None:
            raise AlgebraError("radical certificate failed: a block of A/J does not act faithfully on its minimal left ideal")
        units = block.basis.transpose() @ units
        idems += [units.take_cols([i]) for i in range(s)]
        blocks += [b_id] * s
        links += [(units.take_cols([s + i]), units.take_cols([2 * s + i])) for i in range(s)]
    return idems, blocks, links


def _zero_divisor(a: Algebra, e: Mat) -> Mat:
    """A nonzero zero divisor of the corner e A e, or SplitSearchError.

    y = e x e runs over x = b_i and then b_i + b_j, b_i - b_j (i < j).  A
    root l in k of the minimal polynomial m = (t - l) q of y in e A e, of
    degree >= 2, gives z = y - l e with z q(y) = m(y) = 0 and q(y) != 0
    (Eberly and Giesbrecht, J. Symbolic Comput. 37, 2004).  The search is
    incomplete: finding a zero divisor of every split algebra over GF(p)
    deterministically is Ronyai's problem (J. Symbolic Comput. 9, 1990).
    """
    corner = a.left_mult_matrix(e) @ a.right_mult_matrix(e)  # columns e b_i e
    ys = [corner.take_cols([i]) for i in range(a.dim)]
    sums = (w for n, u in enumerate(ys) for v in ys[n + 1 :] for w in (u + v, u - v))
    for y in itertools.chain(ys, sums):
        coeffs = _minimal_poly_in_corner(a, y, e)
        roots = _roots(coeffs, a.field) if len(coeffs) > 2 else []
        if roots:
            return y - e.scale(roots[0])
    raise SplitSearchError("found no zero divisor in a simple block: no e x e with x = b_i or b_i +- b_j has a minimal polynomial of degree >= 2 with a root in k")


def _primitive_idempotents(a: Algebra) -> PrimitiveDecomposition:
    # Local fast path.  _assert_nilpotent_ideal has certified J subset of rad A
    # for the computed radical J; dim A/J = 1 makes A/J = k a field, so J is
    # maximal and J = rad A.  A is then local, its only idempotents are 0 and
    # 1, and the general path below would return exactly [1] (over either
    # field).
    if a.dim - a.radical_subspace().dim == 1:
        return PrimitiveDecomposition([a.one], [0])
    quot = semisimple_quotient(a)
    bar_idems, blocks, links = _primitive_set_semisimple(quot.quotient)
    lifted: list[Mat] = []
    total = a.zero_element()
    for bar in bar_idems:
        # lift sect(bar), cut down to the corner orthogonal to those lifted so far
        cmpl = a.one - total
        e = _lift_idempotent_element(a, a.multiply(cmpl, a.multiply(quot.sect @ bar, cmpl)), a.dim + 1)
        lifted.append(e)
        total = total + e
    if total != a.one:
        raise AlgebraError("lifted idempotents do not sum to the unit")
    if not _orthogonal_idempotents(a, lifted):
        raise AlgebraError("lifted idempotents are not orthogonal")
    # The certificate, read on A/J: the images e'_i = proj e_i are the split's
    # e'_i, nonzero orthogonal idempotents summing to 1.  u_i v_i = e'_0 and
    # v_i u_i = e'_i, for e'_0 first in e'_i's block b, make e'_i equivalent
    # to e'_0 (e'_0 u_i e'_i and e'_i v_i e'_0 satisfy both too), so dim e'_i
    # (A/J) e'_j = d_b >= 1 for all i, j in b, of s_b idempotents.  So the
    # Peirce decomposition gives dim A/J >= sum_b s_b^2 d_b >= sum_b s_b^2,
    # and equality forces:
    # - d_b = 1: e'_i (A/J) e'_i = k e'_i, and as proj maps e A f onto e'
    #   (A/J) f' with kernel e J f, e_i A e_i = k e_i + e_i J e_i is local
    #   with residue field k: e_i is primitive and its corner split;
    # - no Peirce component between blocks: idempotents are equivalent (mod
    #   J, and so in A) exactly when they share a block;
    # - each block is M_(s_b)(k), on the units v_i u_j: A/J is semisimple,
    #   and J, a nilpotent ideal (``_radical``), is rad A.
    q = quot.quotient
    if any(bar.is_zero() or quot.proj @ e != bar for e, bar in zip(lifted, bar_idems)):
        raise AlgebraError("lifted idempotents do not map to the split of A/J")
    size = sum(blocks.count(b) ** 2 for b in set(blocks))
    if q.dim != size:
        raise AlgebraError(f"radical certificate failed: dim A/J = {q.dim}, but the blocks give {size}")
    for bar, b, (u, v) in zip(bar_idems, blocks, links):
        if q.multiply(u, v) != bar_idems[blocks.index(b)] or q.multiply(v, u) != bar:
            raise AlgebraError("radical certificate failed: idempotents of one block are not equivalent mod J")
    return PrimitiveDecomposition(lifted, blocks)


def _lift_idempotent_element(a: Algebra, e: Mat, nil_bound: int) -> Mat:
    """The idempotent that x -> 3x^2 - 2x^3 reaches from e, for e^2 - e
    nilpotent of index at most nil_bound."""
    for _ in range(2 * max(nil_bound, 1) + 1):
        e2 = a.multiply(e, e)
        if e2 == e:
            return e
        e = e2.scale(3) - a.multiply(e2, e).scale(2)
    raise AlgebraError("idempotent lifting did not stabilize")
