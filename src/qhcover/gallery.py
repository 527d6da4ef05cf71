"""Constructors for the concrete study objects: the zigzag bound-quiver
algebras, Iwahori-Hecke algebras, tensor space, (q-)Schur algebras with
their weight idempotents, and the Schur-Weyl map.

Conventions: the Hecke parameter is u (invertible), with q = u^(-2); u = 1
gives the group algebra of the symmetric group.  At u = 1 the Schur algebra
basis is the orbit sums of I(n,d) x I(n,d) under the diagonal place
permutation action, ordered by their last pairs, and the weight poset is the
dominance order on partitions of d with at most n parts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb, factorial, isqrt, prod

import numpy as np

from .algebra import Algebra, Frame, algebra_of_matrices, centralizer_algebra, corner_algebra, opposite
from .fields import Field
from .linalg import Mat, Subspace, Triples
from .memo import memo
from .modules import Module, _indec_projective, hom_space, top
from .qh import QHStructure, WeightPoset, verify_split_qh
from .quiver import Arrow, QuiverPresentation, from_quiver


class GalleryError(ValueError):
    """Raised on invalid gallery parameters."""


# size guards, checked before anything is built: H(6) takes about 3 s and
# H(7) would hold 5040^2 products in a dict, and S(n, d) at u != 1 is
# solved over (n^d)^2 unknowns.  The tensor space holds a dense t x t
# matrix, t = n^d, for each of the d! permutations: (4, 6) would need 97 GB
# of them.  The Schur product guard counts dim S(n, d) coordinates for each
# pair of basis elements whose product can be nonzero.  No such table is
# held: the u = 1 build keeps its rep and the nonzero product terms
# (S(4, 3), 30M entries, peaks at 34 MiB traced), so the guard does not
# follow the build's memory.  Of the inputs it refuses, S(8, 2) (260M)
# builds in 0.14 s at 79 MiB and S(3, 5) (121M) in 2.4 s at 1.0 GiB, 583
# MiB of it the rep (one BLAS thread, 2-core VM), and the rep of S(4, 4)
# alone is 2.0 GB.  It stays to keep out the inputs on which domdim and
# qh() have never been run
MAX_HECKE_DIM = 720
MAX_TENSOR_DIM = 4096
MAX_TENSOR_ACTION_ENTRIES = 2**25
MAX_SCHUR_DIM = 4000
MAX_SCHUR_PRODUCT_ENTRIES = 2**25


def _check_size(name: str, value: int) -> None:
    if value < 1:
        raise GalleryError(f"{name} must be at least 1")


def _check_hecke_size(d: int) -> None:
    """d >= 1 and dim H(d) = d! within the guard; counting stops past the guard."""
    _check_size("d", d)
    dim = 1
    for k in range(2, d + 1):
        dim *= k
        if dim > MAX_HECKE_DIM:
            raise GalleryError(f"Hecke algebra dimension {d}! exceeds the guard {MAX_HECKE_DIM}")


def _check_tensor_size(n: int, d: int) -> None:
    """H(d) and V^(tensor d) of dimension n^d within their guards."""
    _check_size("n", n)
    _check_hecke_size(d)
    if n**d > MAX_TENSOR_DIM:
        raise GalleryError(f"tensor space dimension {n**d} exceeds the guard {MAX_TENSOR_DIM}")


# ---------------------------------------------------------------------------
# zigzag algebras A_m
# ---------------------------------------------------------------------------


def zigzag_quiver(m: int) -> QuiverPresentation:
    _check_size("m", m)
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


def _parents(perms: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    """For each sigma != id of the sorted ``perms``, in order: (index of
    sigma s_t, t), t the first descent of sigma (sigma_t > sigma_(t+1)).

    sigma s_t swaps the entries t and t + 1, so it has one inversion fewer
    and T_sigma = T_(sigma s_t) T_(s_t) (Humphreys, *Reflection Groups and
    Coxeter Groups*, 7.1-7.3).  It agrees with sigma before t and is smaller
    at t, so its index is smaller: sorted order reaches every parent before
    its children.
    """
    index = {p: i for i, p in enumerate(perms)}
    out = []
    for sigma in perms[1:]:
        t = next(t for t in range(len(sigma) - 1) if sigma[t] > sigma[t + 1])
        out.append((index[(*sigma[:t], sigma[t + 1], sigma[t], *sigma[t + 2 :])], t))
    return out


def _times_simple(vec: dict, t: int, u, coeff, field: Field) -> dict:
    """A combination of words (word -> coefficient) times T_(s_t) on the
    right: w goes to w s_t, its letters t and t + 1 swapped, if w_t <
    w_(t+1); to u w if they are equal; and to (u - u^-1) w + w s_t
    otherwise, ``coeff`` being u - u^-1.  On V^(tensor d) this is the
    q-permutation action (Dipper and James, *Proc. LMS* 59, 1989); on the
    one-line words of S_d, whose letters never repeat, it is T_w T_(s_t).
    Zero coefficients are left out."""
    zero = field.zero()
    out: dict = {}
    for w, c in vec.items():
        a, b = w[t], w[t + 1]
        if a == b:
            out[w] = field.add(out.get(w, zero), field.mul(u, c))
            continue
        if a > b:
            out[w] = field.add(out.get(w, zero), field.mul(coeff, c))
        swapped = (*w[:t], b, a, *w[t + 2 :])
        out[swapped] = field.add(out.get(swapped, zero), c)
    return {w: c for w, c in out.items() if c != zero}


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

    The products T_sigma T_tau, for all sigma, are one ``_times_simple``
    step from those of tau's parent (``_parents``); a parent's products are
    dropped once its last child is built.  u = 1 recovers the group algebra
    of the symmetric group.
    """
    _check_hecke_size(d)
    u = field.parse(u) if isinstance(u, str) else field.normalize(u)
    if u == field.zero():
        raise GalleryError("Hecke parameter u must be invertible")
    perms = permutations_of(d)
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)
    parents = _parents(perms)
    last_child = {p: j for j, (p, _) in enumerate(parents, 1)}
    # products[j][i] = T_(perms[i]) T_(perms[j]), held while perms[j] has a child to build
    products = {0: [{sigma: field.one()} for sigma in perms]}
    entries = {(i * n, i): field.one() for i in range(n)}
    coeff = field.add(u, field.neg(field.inv(u)))  # u - u^-1
    for j, (p, t) in enumerate(parents, 1):
        row = [_times_simple(vec, t, u, coeff, field) for vec in products[p]]
        if last_child[p] == j:
            del products[p]
        if j in last_child:
            products[j] = row
        for i, vec in enumerate(row):
            for rho, c in vec.items():
                entries[i * n + j, index[rho]] = c
    one = [field.one() if i == 0 else field.zero() for i in range(n)]
    alg = Algebra.from_triples(field, n, Triples.from_entries(field, n, entries), Mat.column(field, one), provenance="hecke")
    alg.validate_unit()
    uinv = field.inv(u)
    return HeckeGallery(d, u, field.mul(uinv, uinv), alg, perms, index)


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


def build_tensor_space(n: int, d: int, u, field: Field) -> TensorSpaceGallery:
    """V^(tensor d) with the deformed place-permutation right Hecke-action:
    the matrix of T_tau is A_t M_(parent), A_t that of T_(s_t) (``_parents``)."""
    _check_tensor_size(n, d)
    if factorial(d) * n ** (2 * d) > MAX_TENSOR_ACTION_ENTRIES:
        raise GalleryError(f"tensor space action size {factorial(d) * n ** (2 * d)} exceeds the guard {MAX_TENSOR_ACTION_ENTRIES}")
    hecke = build_hecke(d, u, field)
    words = sorted(itertools.product(range(n), repeat=d))
    simple_action = _simple_action(words, hecke.u, field)
    action = [Mat.identity(field, len(words))]
    for p, t in _parents(hecke.perms):
        action.append(simple_action[t] @ action[p])
    module = Module.from_matrices(opposite(hecke.algebra), action, name=f"V^({d})")
    return TensorSpaceGallery(n, d, hecke, module, words, simple_action)


def _simple_action(words: list[tuple[int, ...]], u, field: Field) -> list[Mat]:
    """The right action of each T_(s_t) on the sorted word basis of
    V^(tensor d), column w the words of ``_times_simple`` on w: at u = 1 the
    place permutation of positions t and t + 1."""
    index = {w: i for i, w in enumerate(words)}
    t_dim, d = len(words), len(words[0])
    coeff = field.add(u, field.neg(field.inv(u)))  # u - u^-1
    simple_action = []
    for t in range(d - 1):
        entries = {(index[x], col): c for col, w in enumerate(words) for x, c in _times_simple({w: field.one()}, t, u, coeff, field).items()}
        simple_action.append(Mat.from_entries(field, t_dim, t_dim, entries))
    return simple_action


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
    algebra: Algebra
    tensor_module: Module  # V^(tensor d) as a left Schur-module
    frame: Frame  # where the coordinates of a tensor-space matrix are read
    words: list[tuple[int, ...]]  # the tensor-space basis, sorted
    weights: list[tuple[int, ...]]
    partitions: list[tuple[int, ...]]

    @property
    def tensor(self) -> TensorSpaceGallery:
        """V^(tensor d) with its Hecke action, built on the first read."""
        return memo(self, "_tensor", lambda: build_tensor_space(self.n, self.d, self.u, self.field))

    @property
    def hecke(self) -> HeckeGallery:
        return self.tensor.hecke

    def weight_idempotent(self, lam: tuple[int, ...]) -> Mat:
        """xi_lambda in algebra coordinates: projection onto the weight space."""
        lam = tuple(lam)
        return memo(self, f"_xi{lam}", lambda: _weight_idempotent(self, lam))

    def poset(self) -> WeightPoset:
        return memo(self, "_poset", lambda: _schur_poset(self))

    def qh(self) -> QHStructure:
        return memo(self, "_qh", lambda: _verified_qh(self))


def _weight_idempotent(schur: SchurGallery, lam: tuple[int, ...]) -> Mat:
    t_dim = schur.tensor_module.dim
    entries = {(i, i): 1 for i, w in enumerate(schur.words) if weight_of(w, schur.n) == lam}
    return _matrix_to_algebra_coords(schur, Mat.from_entries(schur.field, t_dim, t_dim, entries))


def _verified_qh(schur: SchurGallery) -> QHStructure:
    report, qh = verify_split_qh(schur.algebra, schur.poset())
    if not report.passed:
        raise GalleryError(f"Schur algebra failed verification: {report.first_failure()}")
    return qh


def _matrix_to_algebra_coords(schur: SchurGallery, mat: Mat) -> Mat:
    _, rows, cols = schur.frame
    coords = Mat.column(schur.field, [mat[r, c] for r, c in zip(rows, cols)])
    # the entries are coordinates only for a matrix of the algebra: confirm it
    if schur.tensor_module.act(coords) != mat:
        raise GalleryError("matrix does not lie in the Schur algebra")
    return coords


def _check_schur_size(n: int, d: int) -> int:
    """dim S(n, d) = C(n^2 + d - 1, d), after the tensor-space guards and
    those on the dimension and the product table."""
    _check_tensor_size(n, d)
    expected = comb(n * n + d - 1, d)
    if expected > MAX_SCHUR_DIM:
        raise GalleryError(f"Schur dimension {expected} exceeds the guard {MAX_SCHUR_DIM}")
    # a product of basis elements is 0 unless the column weight of the first
    # is the row weight of the second, and the basis elements of column
    # weight mu, the S_mu-orbits of words, number prod_k C(mu_k + n - 1, mu_k)
    pairs = sum(prod(comb(m + n - 1, m) for m in mu) ** 2 for mu in compositions(n, d))
    if expected * pairs > MAX_SCHUR_PRODUCT_ENTRIES:
        raise GalleryError(f"Schur product table size {expected * pairs} exceeds the guard {MAX_SCHUR_PRODUCT_ENTRIES}")
    return expected


def build_schur(n: int, d: int, u, field: Field) -> SchurGallery:
    """The (q-)Schur algebra as the centralizer of the Hecke action.

    The abstract algebra carries the tensor-space matrices as its faithful
    representation; the basis count is checked against the orbit count
    C(n^2 + d - 1, d).  The guards (``_check_schur_size``) act before
    anything is built.
    At u = 1 the basis is the orbit sums (``_orbit_sum_algebra``); otherwise
    the commutation equations of the T_{s_t} are solved.  Neither builds
    H(d): ``SchurGallery.tensor`` does, when it is first read.
    """
    expected = _check_schur_size(n, d)
    u = field.parse(u) if isinstance(u, str) else field.normalize(u)
    words = sorted(itertools.product(range(n), repeat=d))
    if u == field.one():
        alg, frame = _orbit_sum_algebra(words, field)
    else:
        alg, frame = centralizer_algebra(_simple_action(words, u, field) or [Mat.identity(field, len(words))])
    if alg.dim != expected:
        raise GalleryError(f"Schur dimension {alg.dim} != orbit count {expected}")
    tensor_module = Module(alg, alg.rep_action(), name=f"V^({d})|S({n},{d})")
    return SchurGallery(n, d, u, field, alg, tensor_module, frame, words, compositions(n, d), partitions_at_most(n, d))


def _orbit_sum_algebra(words: list[tuple[int, ...]], field: Field) -> tuple[Algebra, Frame]:
    """S(n, d) at u = 1 on the orbit sums xi: the 0/1 matrices of the
    S_d-orbits on pairs of words (Green, *Polynomial Representations of
    GL_n*, LNM 830, 2.3), a basis over every field.

    Each orbit is labelled by its last row-major position f, the basis is
    ordered by f, and the frame is (I, f // t, f % t).  The xi have disjoint
    supports, so they are the identity on the positions f: they are the
    echelon kernel of the commutation equations, which is unique for its
    free positions, and rep and frame are those ``centralizer_algebra``
    gives.  A certificate checks that every xi commutes with the place
    permutations, so a wrong labelling raises.
    """
    t = len(words)
    labels = _orbit_labels(words)
    _assert_labels_commute(labels, _simple_action(words, field.one(), field))
    lasts = sorted(set(labels))
    rank = {f: k for k, f in enumerate(lasts)}
    flat = Mat.from_entries(field, len(lasts), t * t, {(rank[f], pos): 1 for pos, f in enumerate(labels)})
    frame = (Mat.identity(field, t), [f // t for f in lasts], [f % t for f in lasts])
    return algebra_of_matrices(flat, frame, "centralizer"), frame


def _assert_labels_commute(labels: list[int], gens: list[Mat]) -> None:
    """Raise unless every xi, the 0/1 matrix of one class of ``labels``
    (the t x t positions in row-major order), commutes with every g in
    ``gens``.  Each g must be a permutation matrix, g[i, pi(i)] = 1; then
    (X g)[i, j] = X[i, pi^-1(j)] and (g X)[i, j] = X[pi(i), j], so every xi
    commutes with g exactly when label(pi(i), pi(j)) = label(i, j)."""
    t = isqrt(len(labels))
    grid = np.array(labels).reshape(t, t)
    for g in gens:
        entries = g.nonzero_entries()
        pi = [c for _, c, _ in entries]
        if [(r, v) for r, _, v in entries] != [(r, 1) for r in range(t)] or sorted(pi) != list(range(t)):
            raise GalleryError("a place permutation at u = 1 is not a permutation matrix")
        if not np.array_equal(grid[np.ix_(pi, pi)], grid):
            raise GalleryError("an orbit sum does not commute with the place permutations")


def _orbit_labels(words: list[tuple[int, ...]]) -> list[int]:
    """For each pair (i, j) of words, in row-major order, the row-major
    position t i' + j' of the last pair (i', j') in its S_d-orbit.  Words
    are sorted, so (i', j') is the pair whose letter pairs (i_k, j_k) are
    sorted in decreasing order: i' is the largest rearrangement of i, and
    j' the largest that keeps the letter pairs."""
    t = len(words)
    index = {w: k for k, w in enumerate(words)}
    labels = []
    for i in words:
        for j in words:
            last_i, last_j = zip(*sorted(zip(i, j), reverse=True))
            labels.append(t * index[last_i] + index[last_j])
    return labels


def _schur_poset(schur: SchurGallery) -> WeightPoset:
    """Dominance-ordered partitions matched to primitive idempotent classes.

    Each simple module is labeled by the dominance-maximal weight lambda
    with xi_lambda . L != 0; the labels must biject onto the partitions.
    """
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
    end_dim = hom_space(schur.tensor_module, schur.tensor_module).dim
    # column sigma: T_sigma (right action) read row-major
    flat = schur.tensor.module.flat_action().transpose()
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
    module = schur.tensor.module
    entries = {(schur.hecke.index[tuple(sigma)], 0): c for sigma, c in coeffs.items()}
    return module.act(Mat.from_entries(schur.field, module.algebra.dim, 1, entries)).is_zero()


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
    if big.d != small.d or big.field != small.field or big.u != small.u:
        raise GalleryError("truncation needs the same d, field and parameter")
    if small.n >= big.n:
        raise GalleryError("truncation goes from larger n to smaller n")
    f = truncation_idempotent(big, small.n)
    corner, incl = corner_algebra(big.algebra, f)
    if corner.dim != small.algebra.dim:
        raise GalleryError(f"corner dimension {corner.dim} != {small.algebra.dim}")
    word_rows = [i for i, w in enumerate(big.words) if all(x < small.n for x in w)]
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
