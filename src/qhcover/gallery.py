"""Constructors for the concrete study objects: the zigzag bound-quiver
algebras, Iwahori-Hecke algebras, tensor space, (q-)Schur algebras with
their weight idempotents, and the Schur-Weyl map.

Conventions: the Hecke parameter is u (invertible), with q = u^(-2); u = 1
gives the group algebra of the symmetric group.  Schur algebra basis labels
are the sorted orbit representatives of I(n,d) x I(n,d) under the diagonal
place permutation action, and the weight poset is the dominance order on
partitions of d with at most n parts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from math import comb
from typing import Optional

from .algebra import Algebra, centralizer_algebra
from .fields import Field
from .linalg import Mat, MatrixBasis, Subspace
from .modules import Module, top
from .qh import QHStructure, WeightPoset, verify_split_qh
from .quiver import Arrow, QuiverPresentation, from_quiver


class GalleryError(ValueError):
    """Raised on invalid gallery parameters."""


MAX_TENSOR_DIM = 4096
MAX_SCHUR_DIM = 4000


# ---------------------------------------------------------------------------
# zigzag algebras A_m
# ---------------------------------------------------------------------------


def zigzag_quiver(m: int) -> QuiverPresentation:
    if m < 1:
        raise GalleryError("m must be at least 1")
    if m == 1:
        return QuiverPresentation(1, [], [])
    arrows = [Arrow(f"a{i + 1}", i, i + 1) for i in range(m - 1)]
    arrows += [Arrow(f"b{i + 1}", i + 1, i) for i in range(m - 1)]
    a_idx = lambda i: i - 1
    b_idx = lambda i: (m - 1) + i - 1
    relations = []
    for i in range(2, m):
        relations.append([(1, (a_idx(i), a_idx(i - 1)))])
        relations.append([(1, (b_idx(i - 1), b_idx(i)))])
    relations.append([(1, (b_idx(1), a_idx(1)))])
    for i in range(2, m):
        relations.append([(1, (b_idx(i), a_idx(i))), (-1, (a_idx(i - 1), b_idx(i - 1)))])
    return QuiverPresentation(m, arrows, relations)


@dataclass
class AmGallery:
    m: int
    algebra: Algebra
    poset: WeightPoset
    qh: QHStructure
    simples: list[Module]

    def named_modules(self) -> dict[str, Module]:
        out = {}
        for i in range(self.m):
            lab = str(i + 1)
            out[f"P({lab})"] = self.qh.projectives[i]
            out[f"I({lab})"] = self.qh.injective(i)
            out[f"Delta({lab})"] = self.qh.standards[i]
            out[f"Nabla({lab})"] = self.qh.costandard(i)
            out[f"T({lab})"] = self.qh.tiltings()[i]
            out[f"S({lab})"] = self.simples[i]
        return out


def build_am(m: int, field: Field) -> AmGallery:
    """The zigzag algebra with its verified highest-weight structure.

    Weights are the vertices ordered 1 > 2 > ... > m; the named projective,
    injective, standard, costandard and tilting modules come from the
    engine's own constructions.
    """
    alg = from_quiver(zigzag_quiver(m), field)
    pairs = [(i, j) for i in range(m) for j in range(m) if i > j]
    poset = WeightPoset([str(i + 1) for i in range(m)], pairs, [alg.basis_element(v) for v in range(m)])
    report, qh = verify_split_qh(alg, poset)
    if not report.passed:
        raise GalleryError(f"zigzag algebra failed verification: {report.first_failure()}")
    simples = [top(p)[0] for p in qh.projectives]
    return AmGallery(m, alg, poset, qh, simples)


# ---------------------------------------------------------------------------
# symmetric group combinatorics
# ---------------------------------------------------------------------------


def permutations_of(d: int) -> list[tuple[int, ...]]:
    return sorted(itertools.permutations(range(d)))


def inversions(sigma: tuple[int, ...]) -> int:
    return sum(1 for i in range(len(sigma)) for j in range(i + 1, len(sigma)) if sigma[i] > sigma[j])


def reduced_word(sigma: tuple[int, ...]) -> list[int]:
    """Adjacent transposition indices t (swapping t, t+1), applied left first."""
    word: list[int] = []
    arr = list(sigma)
    d = len(arr)
    changed = True
    while changed:
        changed = False
        for t in range(d - 1):
            if arr[t] > arr[t + 1]:
                arr[t], arr[t + 1] = arr[t + 1], arr[t]
                word.append(t)
                changed = True
    # arr is now the identity; sigma = s_{w_k} ... s_{w_1} in one-line terms.
    word.reverse()
    return word


def compose_perm(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def adjacent_transposition(d: int, t: int) -> tuple[int, ...]:
    out = list(range(d))
    out[t], out[t + 1] = out[t + 1], out[t]
    return tuple(out)


# ---------------------------------------------------------------------------
# Iwahori-Hecke algebras
# ---------------------------------------------------------------------------


@dataclass
class HeckeGallery:
    d: int
    u: object
    q: object
    algebra: Algebra
    perms: list[tuple[int, ...]]
    index: dict

    def element_of_permutation(self, sigma) -> Mat:
        return self.algebra.basis_element(self.index[tuple(sigma)])


def build_hecke(d: int, u, field: Field) -> HeckeGallery:
    """Hecke algebra on the basis T_sigma with the quadratic/braid relations.

    Multiplication is computed by reduced-word recursion on the defining
    relations; u = 1 recovers the group algebra of the symmetric group.
    """
    u = field.parse(u) if isinstance(u, str) else field.normalize(u)
    if u == field.zero():
        raise GalleryError("Hecke parameter u must be invertible")
    uinv = field.inv(u)
    coeff = field.add(u, field.neg(uinv))  # u - u^{-1}
    perms = permutations_of(d)
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)

    def times_simple(vec: dict, t: int) -> dict:
        """Multiply sum c_sigma T_sigma by T_{s_t} on the right."""
        out: dict = {}
        s = adjacent_transposition(d, t)
        for sigma, c in vec.items():
            sig_s = compose_perm(sigma, s)
            if inversions(sig_s) > inversions(sigma):
                out[sig_s] = field.add(out.get(sig_s, field.zero()), c)
            else:
                out[sigma] = field.add(out.get(sigma, field.zero()), field.mul(coeff, c))
                out[sig_s] = field.add(out.get(sig_s, field.zero()), c)
        return {k: v for k, v in out.items() if v != field.zero()}

    entries = {}
    for j, tau in enumerate(perms):
        word = reduced_word(tau)
        for i, sigma in enumerate(perms):
            vec = {sigma: field.one()}
            for t in word:
                vec = times_simple(vec, t)
            for rho, c in vec.items():
                entries[i * n + j, index[rho]] = c
    ident = tuple(range(d))
    one = [field.one() if p == ident else field.zero() for p in perms]
    mult = Mat.from_entries(field, n * n, n, entries)
    alg = Algebra(field, n, mult, Mat.column(field, one), provenance="hecke")
    alg.validate_unit()
    q = field.mul(uinv, uinv)
    return HeckeGallery(d, u, q, alg, perms, index)


# ---------------------------------------------------------------------------
# tensor space
# ---------------------------------------------------------------------------


@dataclass
class TensorSpaceGallery:
    n: int
    d: int
    hecke: HeckeGallery
    module: Module  # left module over opposite(Hecke) = right Hecke-module
    words: list[tuple[int, ...]]
    simple_action: list[Mat]  # right action of T_{s_t}


def build_tensor_space(n: int, d: int, u, field: Field, hecke: Optional[HeckeGallery] = None, allow_large: bool = False) -> TensorSpaceGallery:
    """V^(tensor d) with the deformed place-permutation right Hecke-action."""
    if n**d > MAX_TENSOR_DIM and not allow_large:
        raise GalleryError(f"tensor space dimension {n**d} exceeds the guard; pass allow_large")
    if hecke is None:
        hecke = build_hecke(d, u, field)
    u = field.parse(u) if isinstance(u, str) else field.normalize(u)
    uinv = field.inv(u)
    coeff = field.add(u, field.neg(uinv))
    words = sorted(itertools.product(range(n), repeat=d))
    index = {w: i for i, w in enumerate(words)}
    t_dim = len(words)
    simple_action = []
    for t in range(d - 1):
        entries = {}
        for col, w in enumerate(words):
            swapped = list(w)
            swapped[t], swapped[t + 1] = swapped[t + 1], swapped[t]
            swapped = tuple(swapped)
            if w[t] < w[t + 1]:
                entries[index[swapped], col] = field.one()
            elif w[t] == w[t + 1]:
                entries[index[w], col] = u
            else:
                entries[index[w], col] = coeff
                entries[index[swapped], col] = field.one()
        simple_action.append(Mat.from_entries(field, t_dim, t_dim, entries))
    # right action matrices for every T_sigma: M_sigma = M_{s_k} ... M_{s_1}
    from .algebra import opposite

    hop = opposite(hecke.algebra)
    action = []
    ident = Mat.identity(field, t_dim)
    for sigma in hecke.perms:
        word = reduced_word(sigma)
        mat = ident
        for t in word:
            mat = simple_action[t] @ mat
        action.append(mat)
    module = Module(hop, action, name=f"V^({d})")
    return TensorSpaceGallery(n, d, hecke, module, words, simple_action)


# ---------------------------------------------------------------------------
# partitions, compositions, dominance
# ---------------------------------------------------------------------------


def compositions(n: int, d: int) -> list[tuple[int, ...]]:
    """Weak compositions of d into exactly n parts, lexicographically."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 1:
            out.append(tuple(prefix + [remaining]))
            return
        for first in range(remaining + 1):
            rec(prefix + [first], remaining - first, slots - 1)

    rec([], d, n)
    return sorted(out)


def partitions_at_most(n: int, d: int) -> list[tuple[int, ...]]:
    """Partitions of d into at most n parts, padded with zeros to length n."""
    return sorted((c for c in compositions(n, d) if all(c[i] >= c[i + 1] for i in range(n - 1))), reverse=True)


def dominates(lam: tuple[int, ...], mu: tuple[int, ...]) -> bool:
    """lam >= mu in the dominance order (partial sums)."""
    s1 = s2 = 0
    for a, b in zip(lam, mu):
        s1 += a
        s2 += b
        if s1 < s2:
            return False
    return True


def weight_of(word: tuple[int, ...], n: int) -> tuple[int, ...]:
    out = [0] * n
    for x in word:
        out[x] += 1
    return tuple(out)


# ---------------------------------------------------------------------------
# Schur algebras
# ---------------------------------------------------------------------------


@dataclass
class SchurGallery:
    n: int
    d: int
    u: object
    field: Field
    hecke: HeckeGallery
    tensor: TensorSpaceGallery
    algebra: Algebra
    tensor_module: Module  # V^(tensor d) as a left Schur-module
    matrix_basis: MatrixBasis  # the algebra basis as tensor-space matrices
    weights: list[tuple[int, ...]]
    partitions: list[tuple[int, ...]]
    _xi: dict = dc_field(default_factory=dict)
    _poset: Optional[WeightPoset] = None
    _qh: Optional[QHStructure] = None

    def weight_idempotent(self, lam: tuple[int, ...]) -> Mat:
        """xi_lambda in algebra coordinates: projection onto the weight space."""
        lam = tuple(lam)
        if lam not in self._xi:
            t_dim = self.tensor_module.dim
            entries = {(i, i): 1 for i, w in enumerate(self.tensor.words) if weight_of(w, self.n) == lam}
            self._xi[lam] = _matrix_to_algebra_coords(self, Mat.from_entries(self.field, t_dim, t_dim, entries))
        return self._xi[lam]

    def poset(self) -> WeightPoset:
        if self._poset is None:
            self._poset = _schur_poset(self)
        return self._poset

    def qh(self) -> QHStructure:
        if self._qh is None:
            report, qh = verify_split_qh(self.algebra, self.poset())
            if not report.passed:
                raise GalleryError(f"Schur algebra failed verification: {report.first_failure()}")
            self._qh = qh
        return self._qh


def _matrix_to_algebra_coords(schur: SchurGallery, mat: Mat) -> Mat:
    coords = schur.matrix_basis.coords(mat)
    # confirm the matrix really lies in the algebra
    if schur.tensor_module.act(coords) != mat:
        raise GalleryError("matrix does not lie in the Schur algebra")
    return coords


def build_schur(n: int, d: int, u, field: Field, allow_large: bool = False) -> SchurGallery:
    """The (q-)Schur algebra as the centralizer of the Hecke action.

    The abstract algebra carries the tensor-space matrices as its faithful
    representation; the basis count is checked against the orbit count
    C(n^2 + d - 1, d).
    """
    u = field.parse(u) if isinstance(u, str) else field.normalize(u)
    hecke = build_hecke(d, u, field)
    tensor = build_tensor_space(n, d, u, field, hecke=hecke, allow_large=allow_large)
    gens = tensor.simple_action if d > 1 else [Mat.identity(field, tensor.module.dim)]
    alg, matrix_basis = centralizer_algebra(gens)
    expected = comb(n * n + d - 1, d)
    if alg.dim != expected:
        raise GalleryError(f"Schur dimension {alg.dim} != orbit count {expected}")
    if alg.dim > MAX_SCHUR_DIM and not allow_large:
        raise GalleryError(f"Schur dimension {alg.dim} exceeds the guard; pass allow_large")
    tensor_module = Module(alg, alg.rep_matrices(), name=f"V^({d})|S({n},{d})")
    weights = compositions(n, d)
    parts = partitions_at_most(n, d)
    return SchurGallery(n, d, u, field, hecke, tensor, alg, tensor_module, matrix_basis, weights, parts)


def _schur_poset(schur: SchurGallery) -> WeightPoset:
    """Dominance-ordered partitions matched to primitive idempotent classes.

    Each simple module is labeled by the dominance-maximal weight lambda
    with xi_lambda . L != 0; the labels must biject onto the partitions.
    """
    from .modules import _indec_projective

    a = schur.algebra
    prim = a.primitive_idempotents()
    label_of_block: dict[int, tuple[int, ...]] = {}
    for ci in range(prim.n_blocks):
        pmod = _indec_projective(a, ci)[0]
        simple = top(pmod)[0]
        present = [lam for lam in schur.weights if not simple.act(schur.weight_idempotent(lam)).is_zero()]
        if not present:
            raise GalleryError("simple module has no weights")
        maxima = [lam for lam in present if all(dominates(lam, mu) for mu in present if mu != lam)]
        if len(maxima) != 1:
            raise GalleryError("simple module has no unique highest weight")
        best = maxima[0]
        if best not in schur.partitions:
            raise GalleryError(f"highest weight {best} of a simple is not a partition")
        label_of_block[ci] = best
    if sorted(label_of_block.values()) != sorted(schur.partitions):
        raise GalleryError("simple labels do not biject with the partitions")
    labels = [str(lam) for lam in schur.partitions]
    idems = []
    for lam in schur.partitions:
        block = next(ci for ci, l in label_of_block.items() if l == lam)
        idems.append(prim.idempotents[prim.class_reps[block]])
    pairs = []
    for i, lam in enumerate(schur.partitions):
        for j, mu in enumerate(schur.partitions):
            if lam != mu and dominates(mu, lam):
                pairs.append((i, j))  # lam < mu when mu dominates lam
    return WeightPoset(labels, pairs, idems)


def truncation_idempotent(schur: SchurGallery, n_small: int) -> Mat:
    """f = sum of xi_beta over weights supported on the first n_small parts."""
    if n_small >= schur.n:
        raise GalleryError("truncation needs n_small < n")
    total = schur.algebra.zero_element()
    for beta in schur.weights:
        if all(b == 0 for b in beta[n_small:]):
            total = total + schur.weight_idempotent(beta)
    return total


# ---------------------------------------------------------------------------
# Schur-Weyl map
# ---------------------------------------------------------------------------


@dataclass
class SchurWeylData:
    surjective: bool
    injective: bool
    image_dim: int
    end_dim: int
    kernel: Mat  # columns: kernel elements in Hecke coordinates

    def to_json(self) -> dict:
        return {
            "surjective": self.surjective,
            "injective": self.injective,
            "image_dim": self.image_dim,
            "end_dim": self.end_dim,
            "kernel_dim": self.kernel.cols,
        }


def schur_weyl_map(schur: SchurGallery) -> SchurWeylData:
    """psi: Hecke -> End_Schur(V^(tensor d))^op with image and kernel data."""
    from .modules import hom_space

    tensor_action = schur.tensor.module.action  # matrices of T_sigma (right action)
    end_dim = hom_space(schur.tensor_module, schur.tensor_module).dim
    flat = Mat.hstack([m.reshape(m.rows * m.cols, 1) for m in tensor_action])
    image_dim = flat.rank()
    kernel = flat.kernel()
    return SchurWeylData(
        surjective=(image_dim == end_dim),
        injective=(kernel.cols == 0),
        image_dim=image_dim,
        end_dim=end_dim,
        kernel=kernel,
    )


def hecke_element_is_in_kernel(schur: SchurGallery, coeffs: dict) -> bool:
    """Does the Hecke element (permutation -> coefficient) act as zero?"""
    field = schur.field
    acc = Mat.zeros(field, schur.tensor_module.dim, schur.tensor_module.dim)
    for sigma, c in coeffs.items():
        idx = schur.hecke.index[tuple(sigma)]
        acc = acc + schur.tensor.module.action[idx].scale(field.normalize(c))
    return acc.is_zero()


# ---------------------------------------------------------------------------
# truncation between Schur algebras
# ---------------------------------------------------------------------------


@dataclass
class TruncationIso:
    """Explicit identification of f S(d,d) f with S(n,d).

    ``corner_to_small`` maps corner coordinates to coordinates of the small
    Schur algebra; the underlying space identification matches the basis
    word e_i of f.V_big with the same word read in the small tensor space.
    """

    f: Mat
    corner: Algebra
    corner_incl: Mat
    corner_to_small: Mat
    word_rows: list[int]

    def is_isomorphism(self) -> bool:
        return self.corner_to_small.is_invertible()


def schur_truncation_iso(big: SchurGallery, small: SchurGallery) -> TruncationIso:
    """Corner identification f S(d,d) f = S(n,d) along the weight idempotent f.

    The image f . V_big^(tensor d) is spanned exactly by the basis words with
    letters < n, which is the word basis of the small tensor space; restricting
    corner elements to those rows/columns must land bijectively on the small
    Schur algebra.
    """
    from .algebra import corner_algebra as _corner

    if big.d != small.d or big.field != small.field or big.u != small.u:
        raise GalleryError("truncation needs the same d, field and parameter")
    if small.n >= big.n:
        raise GalleryError("truncation goes from larger n to smaller n")
    f = truncation_idempotent(big, small.n)
    corner, incl = _corner(big.algebra, f)
    if corner.dim != small.algebra.dim:
        raise GalleryError(f"corner dimension {corner.dim} != {small.algebra.dim}")
    word_rows = [i for i, w in enumerate(big.tensor.words) if all(x < small.n for x in w)]
    if len(word_rows) != small.tensor_module.dim:
        raise GalleryError("truncated word count does not match the small tensor space")
    # verify f.V is exactly the span of those words
    fmat = big.tensor_module.act(f)
    span = Subspace.from_columns(fmat)
    if span.dim != len(word_rows) or any(r not in span.pivots for r in word_rows):
        raise GalleryError("f.V is not the expected word subspace")
    field = big.field
    cols = []
    for c in range(corner.dim):
        elem = incl.take_cols([c])  # corner basis element in big coordinates
        mat = big.tensor_module.act(elem)
        restricted = mat.take_rows(word_rows).take_cols(word_rows)
        cols.append(_matrix_to_algebra_coords(small, restricted))
    corner_to_small = Mat.hstack(cols)
    return TruncationIso(f, corner, incl, corner_to_small, word_rows)
