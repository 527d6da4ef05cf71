"""Finite-dimensional associative unital algebras over exact fields.

An algebra is given by structure constants c[i][j][k] (b_i b_j = sum_k
c[i][j][k] b_k), passed as a (dim^2 x dim) Mat whose row i*dim + j holds the
coordinates of b_i b_j, together with the coordinates of the unit.  Structural
analysis lives here: Jacobson radical, Wedderburn decomposition of the
semisimple quotient, complete sets of primitive orthogonal idempotents,
corner algebras eAe, centralizer algebras and direct products.

Radical algorithms: over QQ the radical is the kernel of the trace form
tr(L_x L_y) (Dickson's criterion); over GF(p) a descending chain of ideals
is computed from p-power trace functions evaluated on integer lifts of a
faithful matrix representation, layer by layer, which is correct in small
characteristic.  The result is certified nilpotent before being returned.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .fields import Field, PrimeField, QQ, RationalField
from .linalg import Mat, MatrixBasis, Subspace, matmul_mod
from .memo import memo, share


class AlgebraError(ValueError):
    """Raised when algebra-level validation fails."""


class Algebra:
    """Associative unital algebra given by structure constants.

    ``structure`` is the (n^2 x n) Mat of structure constants (row i*n + j:
    coordinates of b_i b_j).  ``mult`` views the same constants as c[i][j][k]:
    an (n, n, n) int64 array over GF(p), nested tuples of Fractions over QQ
    (the QQ product loops read it).  GF(p) products read the sparse form
    ``_coo`` instead.  ``one`` is a column Mat.  ``rep``
    optionally holds a faithful matrix representation (used by the radical
    computation when it is smaller than the regular representation).
    """

    def __init__(
        self,
        field: Field,
        dim: int,
        structure: Mat,
        one: Mat,
        provenance: str = "raw",
        rep: Optional[list[Mat]] = None,
    ):
        self.field = field
        self.dim = dim
        if (structure.rows, structure.cols) != (dim * dim, dim):
            raise AlgebraError(f"structure constants are {structure.rows}x{structure.cols}, not {dim * dim}x{dim}")
        if isinstance(field, PrimeField):
            structure = Mat(field, np.ascontiguousarray(structure.data), copy=False)
            self.mult = structure.data.reshape(dim, dim, dim)
        else:
            self.mult = tuple(structure.data[i * dim : (i + 1) * dim] for i in range(dim))
        self.structure = structure
        if one.rows != dim or one.cols != 1:
            raise AlgebraError("unit vector has wrong shape")
        self.one = one
        self.provenance = provenance
        self._rep = rep

    # -- basic element arithmetic -----------------------------------------
    def basis_element(self, i: int) -> Mat:
        return Mat.from_entries(self.field, self.dim, 1, {(i, 0): 1})

    def zero_element(self) -> Mat:
        return Mat.zeros(self.field, self.dim, 1)

    def multiply(self, x: Mat, y: Mat) -> Mat:
        return self.left_mult_matrix(x) @ y

    def left_mult_matrix(self, x: Mat) -> Mat:
        """Matrix of left multiplication by x: (L_x)[k, j] = sum_i x_i c_ijk."""
        if isinstance(self.field, PrimeField):
            return Mat(self.field, self._contract(x.data.T, 0)[0].T, copy=False)
        n = self.dim
        out = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            xi = x[i, 0]
            if xi == 0:
                continue
            plane = self.mult[i]
            for j in range(n):
                row = plane[j]
                for k in range(n):
                    if row[k]:
                        out[k][j] += xi * row[k]
        return Mat(self.field, out)

    def right_mult_matrix(self, y: Mat) -> Mat:
        """Matrix of right multiplication by y: (R_y)[k, i] = sum_j y_j c_ijk."""
        if isinstance(self.field, PrimeField):
            return Mat(self.field, self._contract(y.data.T, 1)[0].T, copy=False)
        n = self.dim
        out = [[Fraction(0)] * n for _ in range(n)]
        for j in range(n):
            yj = y[j, 0]
            if yj == 0:
                continue
            for i in range(n):
                row = self.mult[i][j]
                for k in range(n):
                    if row[k]:
                        out[k][i] += yj * row[k]
        return Mat(self.field, out)

    def multiply_batches(self, xs: Mat, ys: Mat) -> Mat:
        """All pairwise products of column sets: column (r*s) order r-major."""
        if isinstance(self.field, PrimeField):
            n, r, s, p = self.dim, xs.cols, ys.cols, self.field.p
            # contract the constants with the smaller side, then one product
            if r <= s:
                t = self._contract(xs.data.T, 0)  # t[r, j, k] = (x_r b_j)_k
                prod = matmul_mod(ys.data.T, t.transpose(1, 0, 2).reshape(n, r * n), p).reshape(s, r, n)
                out = prod.transpose(2, 1, 0)
            else:
                t = self._contract(ys.data.T, 1)  # t[s, i, k] = (b_i y_s)_k
                prod = matmul_mod(xs.data.T, t.transpose(1, 0, 2).reshape(n, s * n), p).reshape(r, s, n)
                out = prod.transpose(2, 0, 1)
            return Mat(self.field, out.reshape(n, r * s), copy=False)
        cols = []
        for r in range(xs.cols):
            lx = self.left_mult_matrix(xs.take_cols([r]))
            for s in range(ys.cols):
                cols.append(lx @ ys.take_cols([s]))
        return Mat.hstack(cols) if cols else Mat.zeros(self.field, self.dim, 0)

    def left_regular_action(self) -> list[Mat]:
        """Left multiplication matrices of the basis elements."""
        if isinstance(self.field, PrimeField):
            stack = self._left_regular_stack()
            return [Mat(self.field, stack[i], copy=False) for i in range(self.dim)]
        return [self.left_mult_matrix(self.basis_element(i)) for i in range(self.dim)]

    def _coo(self, side: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """GF(p) structure constants as COO arrays sorted for one contraction.

        Side 0 sums over i and keeps (j, k), side 1 sums over j and keeps
        (i, k).  Returns (summed index, c_ijk, segment starts, kept index
        j*n + k or i*n + k of each segment); the terms of one kept index are
        contiguous.
        """

        def build():
            n = self.dim
            rows, k = np.nonzero(self.structure.data)
            i, j = np.divmod(rows, n)
            summed, kept = (i, j) if side == 0 else (j, i)
            target = kept * n + k
            order = np.argsort(target, kind="stable")
            target = target[order]
            starts = np.flatnonzero(np.diff(target, prepend=-1))
            return summed[order], self.structure.data[rows, k][order], starts, target[starts]

        return memo(self, f"_coo{side}", build)

    def _contract(self, xs: np.ndarray, side: int) -> np.ndarray:
        """Rows xs (r x n) against the structure constants, mod p, as (r, n, n):
        side 0 gives t[r, j, k] = sum_i xs[r, i] c_ijk, side 1
        t[r, i, k] = sum_j xs[r, j] c_ijk."""
        summed, coeff, starts, target = self._coo(side)
        n, r = self.dim, xs.shape[0]
        # a segment sums at most n terms below p^2, exact in int64 while
        # n * (p-1)^2 < 2^63: p <= PrimeField.MAX_P = 2^20 and the dense
        # n^3 view ``mult`` keep n far below the 2^23 this allows
        out = np.zeros((r, n * n), dtype=np.int64)
        if starts.size:
            out[:, target] = np.add.reduceat(xs[:, summed] * coeff, starts, axis=1) % self.field.p
        return out.reshape(r, n, n)

    def _left_regular_stack(self) -> np.ndarray:
        return memo(self, "_left_stack", lambda: np.ascontiguousarray(np.transpose(self.mult, (0, 2, 1))))

    def rep_matrices(self) -> list[Mat]:
        """A faithful representation of the basis (left regular by default)."""
        if self._rep is not None:
            return self._rep
        return self.left_regular_action()

    # -- generators ---------------------------------------------------------
    def generator_indices(self) -> list[int]:
        """Indices of a small basis subset generating A as unital algebra."""
        return memo(self, "_gens", self._generator_indices)

    def _generator_indices(self) -> list[int]:
        n = self.dim
        span = Subspace(self.field, n, self.one.transpose())
        gens: list[int] = []
        while span.dim < n:
            new_idx = next(i for i in range(n) if not span.contains(self.basis_element(i).transpose()))
            gens.append(new_idx)
            rows = Mat.vstack([span.basis, self.basis_element(new_idx).transpose()])
            span = Subspace(self.field, n, rows)
            while span.dim < n:
                cols = span.basis.transpose()
                prods = self.multiply_batches(cols, cols)
                newspan = Subspace(self.field, n, Mat.vstack([span.basis, prods.transpose()]))
                if newspan.dim == span.dim:
                    break
                span = newspan
        return gens

    def generator_elements(self) -> list[Mat]:
        return [self.basis_element(i) for i in self.generator_indices()]

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

    ``mult`` is the (dim^2 x dim) structure Mat or nested lists c[i][j][k].
    """
    if not isinstance(mult, Mat):
        rows = [row for plane in mult for row in plane]
        if len(mult) != dim or len(rows) != dim * dim:
            raise AlgebraError(f"structure tensor is not {dim}x{dim}x{dim}")
        mult = Mat(field, rows, cols=dim)
    one_mat = one if isinstance(one, Mat) else Mat.column(field, one)
    a = Algebra(field, dim, mult, one_mat, provenance=provenance)
    a.validate_unit()
    a.validate_associativity()
    return a


def opposite(a: Algebra) -> Algebra:
    """Opposite algebra: c_op[i][j][k] = c[j][i][k], with opposite(opposite(a)) is a."""
    return memo(a, "_op_link", lambda: _opposite(a))


def _opposite(a: Algebra) -> Algebra:
    n = a.dim
    mult = a.structure.take_rows([j * n + i for i in range(n) for j in range(n)])
    rep = None
    if a._rep is not None:
        rep = [m.transpose() for m in a._rep]
    opp = Algebra(a.field, n, mult, a.one, provenance=a.provenance, rep=rep)
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
    # rows of a's constants, then b's, then one zero row for the mixed products
    blocks = Mat.block_diag(field, [a.structure, b.structure, Mat.zeros(field, 1, 0)])

    def row(i: int, j: int) -> int:
        if i < n and j < n:
            return i * n + j
        if i >= n and j >= n:
            return n * n + (i - n) * m + (j - n)
        return n * n + m * m

    mult = blocks.take_rows([row(i, j) for i in range(n + m) for j in range(n + m)])
    one = Mat.vstack([a.one, b.one])
    rep = None
    if a._rep is not None and b._rep is not None:
        ra0, rb0 = a._rep[0], b._rep[0]
        za, zb = Mat.zeros(field, ra0.rows, ra0.cols), Mat.zeros(field, rb0.rows, rb0.cols)
        rep = [Mat.block_diag(field, [ra, zb]) for ra in a._rep] + [Mat.block_diag(field, [za, rb]) for rb in b._rep]
    return Algebra(field, n + m, mult, one, provenance="product", rep=rep)


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
        rep_e = _combine_rep(a, e)
        img = Subspace.from_columns(rep_e)
        if img.dim:
            w = img.basis.transpose()  # columns: basis of e.V
            wb = MatrixBasis([w.take_cols([j]) for j in range(w.cols)])
            rep = [wb.flat_coords(_combine_rep(a, incl.take_cols([c])) @ w) for c in range(m)]
    corner = Algebra(a.field, m, mult, one_coords.transpose(), provenance="corner", rep=rep)
    return corner, incl


def _combine_rep(a: Algebra, x: Mat) -> Mat:
    mats = a.rep_matrices()
    acc = Mat.zeros(a.field, mats[0].rows, mats[0].cols)
    for i in range(a.dim):
        xi = x[i, 0]
        if xi != 0:
            acc = acc + mats[i].scale(xi)
    return acc


def algebra_of_matrices(basis: MatrixBasis, provenance: str) -> Algebra:
    """The algebra spanned by a basis of square matrices closed under products.

    The identity must lie in the span; the basis is the faithful ``rep``.
    """
    one = basis.coords(Mat.identity(basis.field, basis.shape[0]))
    return Algebra(basis.field, len(basis), basis.product_coords(), one, provenance=provenance, rep=basis.mats)


def centralizer_algebra(generators: Sequence[Mat]) -> tuple[Algebra, MatrixBasis]:
    """Algebra of matrices commuting with all generators on a common space.

    Returns the abstract algebra plus its matrix basis, which is also the
    algebra's faithful ``rep``.
    """
    gens = list(generators)
    if not gens:
        raise AlgebraError("centralizer needs at least one generator (use identity)")
    t = gens[0].rows
    ident = Mat.identity(gens[0].field, t)
    # rows: entries of G M - M G, unknowns vec(M) row-major
    sys = Mat.vstack([g.kron(ident) - ident.kron(g.transpose()) for g in gens])
    kernel = sys.kernel()  # (t^2, dim) columns
    basis = MatrixBasis([kernel.take_cols([c]).reshape(t, t) for c in range(kernel.cols)])
    return algebra_of_matrices(basis, "centralizer"), basis


# ---------------------------------------------------------------------------
# radical computations
# ---------------------------------------------------------------------------


def _radical(a: Algebra) -> Subspace:
    rad = _radical_trace_form(a) if isinstance(a.field, RationalField) else _radical_gfp_layers(a)
    _assert_nilpotent_ideal(a, rad)
    return rad


def _radical_trace_form(a: Algebra) -> Subspace:
    """Characteristic zero: radical of the bilinear form tr(L_x L_y)."""
    n = a.dim
    left = a.left_regular_action()
    gram = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            prod = left[i] @ left[j]
            tr = sum(prod[k, k] for k in range(n))
            gram[i][j] = tr
            gram[j][i] = tr
    ker = Mat(QQ, gram, cols=n).kernel()
    return Subspace(a.field, n, ker.transpose())


def _radical_gfp_layers(a: Algebra) -> Subspace:
    """GF(p): descending ideal chain from p-power trace functions.

    Works on a faithful representation of dimension m; layer i constrains
    with gamma_i(z) = tr(lift(z)^(p^i)) / p^i mod p, for i = 0..ceil(log_p m).
    """
    p = a.field.p
    rep = a.rep_matrices()
    m = rep[0].rows
    stack = np.stack([r.data for r in rep]).reshape(len(rep), m * m)  # row b: vec(rep(b_b))
    n = a.dim
    level = 0
    while p**level < m:
        level += 1
    basis = np.eye(n, dtype=np.int64)  # rows = current ideal basis in A-coords
    for layer in range(level + 1):
        if basis.shape[0] == 0:
            break
        r = basis.shape[0]
        xs = matmul_mod(basis, stack, p).reshape(r, m, m)
        if layer == 0:
            # tr(X_a X_b) = vec(X_a) . vec(X_b^T)
            constraint = matmul_mod(xs.reshape(r, m * m), xs.transpose(0, 2, 1).reshape(r, m * m).T, p)
        else:
            # block (a, b) of the (r*m x r*m) product is X_a X_b.  The form is
            # symmetric: tr(z^(p^l)) mod p^(l+1) depends on z mod p only, and
            # tr((XY)^e) = tr((YX)^e), so only the pairs a <= b are powered
            pairs = matmul_mod(xs.reshape(r * m, m), xs.transpose(1, 0, 2).reshape(m, r * m), p).reshape(r, m, r, m)
            ia, ib = np.triu_indices(r)
            constraint = np.zeros((r, r), dtype=np.int64)
            constraint[ia, ib] = constraint[ib, ia] = _gamma_traces(pairs[ia, :, ib, :], p, layer)
        ker = Mat(a.field, constraint).kernel()
        if ker.cols == r:
            continue
        basis = matmul_mod(ker.data.T, basis, p)
        red, piv = Mat(a.field, basis).rref()
        basis = red.data[: len(piv)]
    return Subspace(a.field, n, Mat(a.field, basis, copy=False, cols=n))


def _gamma_traces(zs: np.ndarray, p: int, layer: int) -> np.ndarray:
    """gamma_layer (layer >= 1) for a batch of reduced matrices (entries in [0, p)).

    tr(z^e) is the sum of the entries of z^(e-1) * z^T, so the last product
    is never formed.
    """
    mod, e = p ** (layer + 1), p**layer
    power = _batched_matrix_power_mod(zs, e - 1, mod)
    # each term is reduced below mod before m^2 of them are summed: exact in
    # int64, since the power's own bound m * (mod-1)^2 < 2^63 implies
    # m^2 * mod < 2^63 for m < 2^20 (beyond it the power holds Python ints)
    traces = (power * zs.transpose(0, 2, 1) % mod).sum(axis=(1, 2)) % mod
    if np.any(traces % e):
        raise AlgebraError("p-power trace not divisible; radical layering failed")
    return (traces // e) % p


def _batched_matrix_power_mod(zs: np.ndarray, e: int, mod: int) -> np.ndarray:
    """zs[a]^e mod ``mod``, e >= 1, for a batch of m x m matrices with
    entries in [0, mod).

    Square-and-multiply from the highest bit, so no product with the
    identity; ``matmul_mod`` keeps every product exact (Python ints beyond
    its int64 bound).
    """
    result = zs
    for bit in bin(e)[3:]:
        result = matmul_mod(result, result, mod)
        if bit == "1":
            result = matmul_mod(result, zs, mod)
    return result


def _assert_nilpotent_ideal(a: Algebra, rad: Subspace) -> None:
    """Certify the computed radical: a nilpotent two-sided ideal."""
    if rad.dim == 0:
        return
    basis_cols = rad.basis.transpose()
    # two-sided ideal: A*J and J*A stay inside J
    all_cols = Mat.identity(a.field, a.dim)
    left_prods = a.multiply_batches(all_cols, basis_cols)
    right_prods = a.multiply_batches(basis_cols, all_cols)
    if not rad.contains(left_prods.transpose()) or not rad.contains(right_prods.transpose()):
        raise AlgebraError("computed radical is not a two-sided ideal")
    current = basis_cols
    for _ in range(a.dim + 1):
        nxt = a.multiply_batches(current, basis_cols)
        sub = Subspace(a.field, a.dim, nxt.transpose())
        if sub.dim == 0:
            return
        current = sub.basis.transpose()
    raise AlgebraError("computed radical is not nilpotent")


# ---------------------------------------------------------------------------
# semisimple quotient and Wedderburn decomposition
# ---------------------------------------------------------------------------


class QuotientAlgebra:
    """A/J with projection (quotient coords) and a linear section."""

    def __init__(self, algebra: Algebra, quotient: Algebra, proj: Mat, sect: Mat):
        self.parent = algebra
        self.quotient = quotient
        self.proj = proj  # (s x n)
        self.sect = sect  # (n x s)


def quotient_algebra(a: Algebra, ideal: Subspace) -> QuotientAlgebra:
    """A/I for a two-sided ideal I given as a subspace of coordinate space."""
    # projection = quotient coordinates, section = non-pivot coordinate vectors
    ident = Mat.identity(a.field, a.dim)
    proj = ideal.quotient_coords(ident).transpose()
    sect = ident.take_cols(ideal.nonpivots)
    mult = (proj @ a.multiply_batches(sect, sect)).transpose()  # row r*s + c: coords of sect_r sect_c
    quot = Algebra(a.field, sect.cols, mult, proj @ a.one, provenance="quotient")
    return QuotientAlgebra(a, quot, proj, sect)


def semisimple_quotient(a: Algebra) -> QuotientAlgebra:
    return quotient_algebra(a, a.radical_subspace())


def center_basis(a: Algebra) -> Mat:
    """Columns spanning the center {x : xy = yx for all y}."""
    rows = []
    for j in a.generator_indices():
        bj = a.basis_element(j)
        rows.append(a.right_mult_matrix(bj) - a.left_mult_matrix(bj))
    if not rows:
        return Mat.identity(a.field, a.dim)
    return Mat.vstack(rows).kernel()


def _poly_to_sympy(coeffs: list, field: Field, x):
    import sympy

    if isinstance(field, PrimeField):
        return sympy.Poly([int(c) for c in reversed(coeffs)], x, modulus=field.p)
    return sympy.Poly([sympy.Rational(c) for c in reversed(coeffs)], x, domain="QQ")


def _poly_coeffs_from_sympy(poly, field: Field) -> list:
    cs = poly.all_coeffs()  # leading first
    if isinstance(field, PrimeField):
        return [int(c) % field.p for c in reversed(cs)]
    return [Fraction(c.p, c.q) for c in reversed(cs)]


def central_primitive_idempotents(a: Algebra) -> list[Mat]:
    """Primitive central idempotents of a (semisimple, split or not) algebra."""
    import sympy  # heavy; imported only here and in the _poly_* helpers

    x = sympy.Symbol("x")
    field = a.field
    blocks: list[Mat] = [a.one]
    zc = center_basis(a)
    for c in range(zc.cols):
        z = zc.take_cols([c])
        new_blocks: list[Mat] = []
        for eps in blocks:
            zeps = a.multiply(z, eps)
            # minimal polynomial of z*eps in the unital algebra eps*A*eps
            coeffs = _minimal_poly_in_corner(a, zeps, eps)
            poly = _poly_to_sympy(coeffs, field, x)
            factors = poly.factor_list()[1]
            if len(factors) == 1 and factors[0][1] == 1:
                new_blocks.append(eps)
                continue
            for fac, mult_ in factors:
                if mult_ != 1:
                    raise AlgebraError("center not semisimple: repeated factor in minimal polynomial")
                cofactor = poly.exquo(fac)
                inv = _poly_invert(cofactor, fac, field, x)
                g = (cofactor * inv).rem(poly)
                e = _evaluate_poly_corner(a, _poly_coeffs_from_sympy(g, field), zeps, eps)
                if e.is_zero():
                    raise AlgebraError("central idempotent construction failed")
                new_blocks.append(e)
        blocks = new_blocks
    total = a.zero_element()
    for i, e in enumerate(blocks):
        if a.multiply(e, e) != e:
            raise AlgebraError("central idempotent is not idempotent")
        for j, f2 in enumerate(blocks):
            if i != j and not a.multiply(e, f2).is_zero():
                raise AlgebraError("central idempotents are not orthogonal")
        total = total + e
    if total != a.one:
        raise AlgebraError("central idempotents do not sum to one")
    return blocks


def _poly_invert(f, g, field: Field, x):
    import sympy

    if isinstance(field, PrimeField):
        return sympy.Poly(sympy.invert(f.as_expr(), g.as_expr(), x, modulus=field.p), x, modulus=field.p)
    return sympy.Poly(sympy.invert(f.as_expr(), g.as_expr(), x), x, domain="QQ")


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


def _evaluate_poly_corner(a: Algebra, coeffs: list, z: Mat, eps: Mat) -> Mat:
    acc = a.zero_element()
    power = eps
    for i, c in enumerate(coeffs):
        if c != 0:
            acc = acc + power.scale(c)
        if i + 1 < len(coeffs):
            power = a.multiply(z, power)
    return acc


def _primitive_idempotent_in_simple_block(a: Algebra, rng: np.random.Generator) -> Mat:
    """One primitive idempotent of a split simple algebra.

    Strategy: locate a minimal left ideal L (dimension sqrt(dim)), then the
    unique e in L with e z = z for suitable z in L is a primitive idempotent.
    """
    d = a.dim
    s = int(round(d**0.5))
    if s * s != d:
        raise AlgebraError("simple block is not split: dimension is not a perfect square")
    if d == 1:
        return a.one
    # find x with dim(Ax) == s (minimal left ideal)
    best_vec, best_dim = None, None
    candidates = [a.basis_element(i) for i in range(d)]
    tries = 0
    while True:
        for x in candidates:
            if x.is_zero():
                continue
            lx = _left_ideal(a, x)
            if lx.dim and (best_dim is None or lx.dim < best_dim):
                best_vec, best_dim = x, lx.dim
                if best_dim == s:
                    break
        if best_dim == s:
            break
        # refine inside the current smallest ideal with seeded random picks
        tries += 1
        if tries > 60:
            raise AlgebraError("failed to locate a minimal left ideal (block not split?)")
        ideal = _left_ideal(a, best_vec)
        if isinstance(a.field, PrimeField):
            coeff = rng.integers(0, a.field.p, size=ideal.dim)
        else:
            coeff = rng.integers(-3, 4, size=ideal.dim)
        vec = Mat.zeros(a.field, d, 1)
        for i in range(ideal.dim):
            c = int(coeff[i])
            if c:
                vec = vec + ideal.basis.take_rows([i]).transpose().scale(c)
        candidates = [vec]
    ideal = _left_ideal(a, best_vec)
    # choose z in L with L z != 0, solve e z = z within L
    basis_cols = ideal.basis.transpose()
    for j in range(ideal.dim):
        z = basis_cols.take_cols([j])
        lz = a.multiply_batches(basis_cols, z)
        if not lz.is_zero():
            rz = a.right_mult_matrix(z)
            sys = rz @ basis_cols  # columns: w_i * z for basis w_i of L
            sol = sys.solve(z)
            if sol is None:
                continue
            e = basis_cols @ sol
            if not a.multiply(e, e) == e or e.is_zero():
                raise AlgebraError("minimal-ideal idempotent construction failed")
            return e
    raise AlgebraError("no usable element in minimal left ideal (L^2 = 0 in semisimple?)")


def _left_ideal(a: Algebra, x: Mat) -> Subspace:
    # columns of R_x are the products b_i * x, so its column space is A x
    return Subspace.from_columns(a.right_mult_matrix(x))


def _primitive_set_semisimple(a: Algebra, rng: np.random.Generator) -> tuple[list[Mat], list[int]]:
    """All primitive idempotents of a split semisimple algebra, with block ids."""
    if a.dim == 0:
        return [], []
    centrals = central_primitive_idempotents(a)
    idems: list[Mat] = []
    blocks: list[int] = []
    for b_id, eps in enumerate(centrals):
        block, incl = corner_algebra(a, eps)
        if _corner_center_dim(block) != 1:
            raise AlgebraError("field not splitting: simple block has a larger center (extend the base field)")
        remaining = block
        rem_incl = incl
        while True:
            dim = remaining.dim
            if dim == 0:
                break
            if dim == 1:
                idems.append(rem_incl @ remaining.one)
                blocks.append(b_id)
                break
            e = _primitive_idempotent_in_simple_block(remaining, rng)
            idems.append(rem_incl @ e)
            blocks.append(b_id)
            f = remaining.one - e
            if f.is_zero():
                break
            sub, sub_incl = corner_algebra(remaining, f)
            rem_incl = rem_incl @ sub_incl
            remaining = sub
    return idems, blocks


def _corner_center_dim(block: Algebra) -> int:
    return center_basis(block).cols


def _primitive_idempotents(a: Algebra) -> PrimitiveDecomposition:
    rng = np.random.default_rng(20240 + a.dim)
    quot = semisimple_quotient(a)
    bar_idems, blocks = _primitive_set_semisimple(quot.quotient, rng)
    lifted: list[Mat] = []
    total = a.zero_element()
    nil_bound = a.dim + 1
    for bar in bar_idems:
        x = quot.sect @ bar
        # project into the corner orthogonal to previously lifted idempotents
        cmpl = a.one - total
        x = a.multiply(cmpl, a.multiply(x, cmpl))
        e = _lift_idempotent_element(a, x, nil_bound)
        lifted.append(e)
        total = total + e
    if lifted and total != a.one:
        raise AlgebraError("lifted idempotents do not sum to the unit")
    if not lifted and a.dim > 0:
        raise AlgebraError("no idempotents found in a nonzero algebra")
    # orthogonality and primitivity certificates
    for i, e in enumerate(lifted):
        for j, f in enumerate(lifted):
            prod = a.multiply(e, f)
            expected = e if i == j else a.zero_element()
            if prod != expected:
                raise AlgebraError("lifted idempotents are not orthogonal")
    rad = a.radical_subspace()
    for e in lifted:
        pe = a.left_mult_matrix(e) @ a.right_mult_matrix(e)
        corner_dim = Subspace.from_columns(pe).dim
        rad_corner = Subspace.from_columns(pe @ rad.basis.transpose()).dim if rad.dim else 0
        if corner_dim - rad_corner != 1:
            raise AlgebraError("field not splitting: corner of idempotent is not local of residue dimension 1")
    return PrimitiveDecomposition(lifted, blocks)


def _lift_idempotent_element(a: Algebra, x: Mat, nil_bound: int) -> Mat:
    e = x
    for _ in range(2 * max(nil_bound, 1)):
        e2 = a.multiply(e, e)
        if e2 == e:
            return e
        e = e2.scale(3) - a.multiply(e2, e).scale(2)
    e2 = a.multiply(e, e)
    if e2 == e:
        return e
    raise AlgebraError("idempotent lifting did not stabilize")
