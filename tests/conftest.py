"""Shared constructors for the test suite."""

import itertools

import numpy as np
import pytest

from qhcover import quiver
from qhcover.algebra import Algebra, AlgebraError, centralizer_algebra, from_structure_constants, opposite
from qhcover.fields import GF, QQ
from qhcover.gallery import GalleryError, build_schur, build_tensor_space
from qhcover.homology import minimal_projective_resolution
from qhcover.linalg import Mat, Subspace, Triples, _canonical, _mod, unstack
from qhcover.modules import (
    Module,
    ModuleError,
    ModuleMap,
    _slice_spans,
    _slice_values,
    end_algebra_with_bimodule,
    hom_space,
    projective_cover_data,
    regular_module,
    zero_module,
)
from qhcover.quiver import Arrow, QuiverPresentation, from_quiver


def make_am_algebra(m, field):
    """The bound quiver algebra with arrows i <-> i+1 and the zigzag relations."""
    if m == 1:
        return from_quiver(QuiverPresentation(1, [], []), field)
    arrows = []
    for i in range(m - 1):
        arrows.append(Arrow(f"a{i + 1}", i, i + 1))
    for i in range(m - 1):
        arrows.append(Arrow(f"b{i + 1}", i + 1, i))
    a_idx = lambda i: i - 1
    b_idx = lambda i: (m - 1) + i - 1
    relations = []
    for i in range(2, m):
        relations.append([(1, (a_idx(i), a_idx(i - 1)))])  # a_i a_{i-1} = 0
        relations.append([(1, (b_idx(i - 1), b_idx(i)))])  # b_{i-1} b_i = 0
    relations.append([(1, (b_idx(1), a_idx(1)))])  # b_1 a_1 = 0
    for i in range(2, m):
        # b_i a_i = a_{i-1} b_{i-1}
        relations.append([(1, (b_idx(i), a_idx(i))), (-1, (a_idx(i - 1), b_idx(i - 1)))])
    return from_quiver(QuiverPresentation(m, arrows, relations), field)


def from_quiver_reference(q, field):
    """Oracle for ``quiver.from_quiver``: the quotient of the path algebra by
    the relation ideal, each product of basis paths reduced on its own by
    ``Subspace.reduce`` of the ideal part in its degree.  Reads the caps of
    ``quiver`` when called, so a test may lower them for both builders.
    A relation that lists a path twice keeps its last coefficient only."""
    q.validate()
    degree_cap = quiver.DEGREE_CAP
    # paths per degree, in lexicographic order of arrow index sequences
    paths: list[list[tuple[int, ...]]] = [[("v", v) for v in range(q.n_vertices)]]  # type: ignore
    arrow_paths = [tuple([i]) for i in range(len(q.arrows))]
    reps: list[list] = [paths[0]]
    ideals: list[Subspace] = [Subspace(field, q.n_vertices)]
    rel_by_degree: dict[int, list[list[tuple[object, tuple[int, ...]]]]] = {}
    for rel in q.relations:
        rel_by_degree.setdefault(len(rel[0][1]), []).append(rel)

    if q.arrows:
        paths.append(sorted(arrow_paths))
        ideals.append(Subspace(field, len(q.arrows)))
        reps.append(paths[1])

    degree = 1
    while degree < degree_cap:
        if len(paths) <= degree or not reps[degree]:
            break
        prev = paths[degree]
        nxt = []
        for a in range(len(q.arrows)):
            for p in prev:
                if q.arrows[a].source == q.path_target(p):
                    nxt.append((a,) + p)
        nxt.sort()
        if not nxt:
            break
        if len(nxt) > quiver.MAX_PATHS_PER_DEGREE:
            raise AlgebraError("not finite-dimensional: path count explosion")
        degree += 1
        index = {p: i for i, p in enumerate(nxt)}
        vectors: list[dict[int, object]] = []
        # new-degree consequences: arrow * I(d-1), I(d-1) * arrow, relations of this degree
        prev_ideal = ideals[degree - 1]
        prev_paths = paths[degree - 1]
        for r in range(prev_ideal.dim):
            coeffs = prev_ideal.basis.take_rows([r])
            for a in range(len(q.arrows)):
                vec: dict[int, object] = {}
                for j, p in enumerate(prev_paths):
                    c = coeffs[0, j]
                    if c != 0 and q.arrows[a].source == q.path_target(p):
                        vec[index[(a,) + p]] = c
                if vec:
                    vectors.append(vec)
            for a in range(len(q.arrows)):
                vec = {}
                for j, p in enumerate(prev_paths):
                    c = coeffs[0, j]
                    if c != 0 and q.path_source(p) == q.arrows[a].target:
                        vec[index[p + (a,)]] = c
                if vec:
                    vectors.append(vec)
        for rel in rel_by_degree.get(degree, []):
            vec = {}
            for coeff, p in rel:
                vec[index[p]] = field.parse(str(coeff))
            vectors.append(vec)
        entries = {(i, j): c for i, vec in enumerate(vectors) for j, c in vec.items()}
        ideal = Subspace(field, len(nxt), Mat.from_entries(field, len(vectors), len(nxt), entries))
        alive = [p for j, p in enumerate(nxt) if j not in set(ideal.pivots)]
        paths.append(nxt)
        ideals.append(ideal)
        reps.append(alive)
        if not alive:
            break
    else:
        raise AlgebraError(f"not finite-dimensional: quotient alive at degree cap {degree_cap}")

    # global basis: representatives ordered by degree then lexicographically
    basis: list = []
    basis_degree: list[int] = []
    for d, rlist in enumerate(reps):
        for p in rlist:
            basis.append(p)
            basis_degree.append(d)
    n = len(basis)
    pos = {p: i for i, p in enumerate(basis)}
    max_degree = len(reps) - 1

    def reduce_path(p, d: int) -> dict[int, object]:
        """Canonical form of a degree-d path as a combination of representatives."""
        if d > max_degree or (d <= max_degree and not reps[d]):
            return {}
        plist = paths[d]
        ideal = ideals[d]
        row = Mat.from_entries(field, 1, len(plist), {(0, plist.index(p)): 1})
        residue = ideal.reduce(row)
        out = {}
        for jj, pp in enumerate(plist):
            c = residue[0, jj]
            if c != 0:
                out[pos[pp]] = c
        return out

    # structure constants: row i*n + j holds the coordinates of b_i b_j
    entries: dict[tuple[int, int], object] = {}

    def set_c(i, j, comb: dict[int, object]):
        for k, c in comb.items():
            entries[i * n + j, k] = c

    for i, p in enumerate(basis):
        di = basis_degree[i]
        for j, r in enumerate(basis):
            dj = basis_degree[j]
            if di == 0 and dj == 0:
                if p[1] == r[1]:
                    set_c(i, j, {i: field.one()})
            elif di == 0:
                if q.path_target(r) == p[1]:
                    set_c(i, j, {j: field.one()})
            elif dj == 0:
                if q.path_source(p) == r[1]:
                    set_c(i, j, {i: field.one()})
            else:
                if q.path_source(p) == q.path_target(r):
                    total = di + dj
                    if total <= max_degree:
                        set_c(i, j, reduce_path(p + r, total))

    one = [0] * n
    for v in range(q.n_vertices):
        one[v] = 1
    mult = Triples.from_entries(field, n, entries)
    alg = Algebra.from_triples(field, n, mult, Mat.column(field, [field.normalize(x) for x in one]), provenance="quiver")
    alg.quiver_data = {
        "presentation": q,
        "basis_paths": basis,
        "basis_degrees": basis_degree,
        "vertex_indices": list(range(q.n_vertices)),
        "arrow_indices": [pos[ap] for ap in sorted(arrow_paths)] if q.arrows else [],
    }
    alg.validate_unit()
    return alg


def build_schur_reference(n, d, u, field):
    """Oracle for ``gallery.build_schur``'s algebra and frame at any u: H(d)
    and the tensor space are built, and the centralizer of the T_{s_t} is
    solved from the (d - 1) t^2 x t^2 commutation equations."""
    tensor = build_tensor_space(n, d, u, field)
    gens = tensor.simple_action if d > 1 else [Mat.identity(field, tensor.module.dim)]
    return centralizer_algebra(gens)


def frame_products_reference(mats, mats_g, rows, cols):
    """Oracle for ``linalg.frame_products``, its former dense table: the
    same join of nonzero entries, with the terms added into a row of n
    frame coordinates for every pair (a, b) that has a term."""
    field, m, g = mats.field, mats.cols, mats_g.cols
    n = mats.rows // m
    frame = np.full(m * g, -1)
    frame[np.asarray(rows, dtype=np.intp) * g + np.asarray(cols, dtype=np.intp)] = np.arange(n)
    flat_row, inner = np.nonzero(mats.data)
    value = mats.data[flat_row, inner]
    mat, row = np.divmod(flat_row, m)
    flat_row_g, col_g = np.nonzero(mats_g.data)
    value_g = mats_g.data[flat_row_g, col_g]
    mat_g, inner_g = np.divmod(flat_row_g, m)
    by_inner = np.argsort(inner_g, kind="stable")
    count = np.bincount(inner_g, minlength=m)
    first = np.cumsum(count) - count
    reps = count[inner]
    left = np.repeat(np.arange(inner.size), reps)
    right = by_inner[np.arange(left.size) - np.repeat(np.cumsum(reps) - reps, reps) + first[inner[left]]]
    target = frame[row[left] * g + col_g[right]]
    keep = target >= 0
    left, right, target = left[keep], right[keep], target[keep]
    pairs, slot = np.unique(mat[left] * n + mat_g[right], return_inverse=True)
    entries = np.zeros((pairs.size, n), mats.data.dtype)
    np.add.at(entries, (slot, target), _mod(field, value[left] * value_g[right]))
    return Triples.from_rows(pairs, _canonical(field, _mod(field, entries), mats.den * mats_g.den), n)


def inversions(sigma):
    return sum(1 for i in range(len(sigma)) for j in range(i + 1, len(sigma)) if sigma[i] > sigma[j])


def reduced_word(sigma):
    """Adjacent transposition indices t (swapping t, t+1), applied left first."""
    word = []
    arr = list(sigma)
    changed = True
    while changed:
        changed = False
        for t in range(len(arr) - 1):
            if arr[t] > arr[t + 1]:
                arr[t], arr[t + 1] = arr[t + 1], arr[t]
                word.append(t)
                changed = True
    # arr is now the identity; sigma = s_{w_k} ... s_{w_1} in one-line terms.
    word.reverse()
    return word


def compose_perm(p, q):
    """(p q)(i) = p(q(i))."""
    return tuple(p[q[i]] for i in range(len(p)))


def adjacent_transposition(d, t):
    out = list(range(d))
    out[t], out[t + 1] = out[t + 1], out[t]
    return tuple(out)


def build_hecke_reference(d, u, field):
    """Oracle for ``gallery.build_hecke``'s algebra: each product T_sigma
    T_tau by multiplying T_sigma by T_(s_t) along a reduced word of tau,
    with the length of sigma s_t read from its inversions."""
    u = field.parse(u) if isinstance(u, str) else field.normalize(u)
    if u == field.zero():
        raise GalleryError("Hecke parameter u must be invertible")
    coeff = field.add(u, field.neg(field.inv(u)))  # u - u^{-1}
    perms = sorted(itertools.permutations(range(d)))
    index = {p: i for i, p in enumerate(perms)}
    n = len(perms)

    def times_simple(vec, t):
        """Multiply sum c_sigma T_sigma by T_{s_t} on the right."""
        out = {}
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
    one = [field.one() if i == 0 else field.zero() for i in range(n)]
    alg = Algebra.from_triples(field, n, Triples.from_entries(field, n, entries), Mat.column(field, one), provenance="hecke")
    alg.validate_unit()
    return alg


def tensor_action_reference(n, d, u, field):
    """Oracle for the action of ``gallery.build_tensor_space``: the matrix
    of each T_(s_t) written out case by case, and that of T_sigma as the
    product M_(s_(w_k)) ... M_(s_(w_1)) along a reduced word of sigma, over
    ``build_hecke_reference``; returns the module's flat action."""
    u = field.parse(u) if isinstance(u, str) else field.normalize(u)
    coeff = field.add(u, field.neg(field.inv(u)))
    words = sorted(itertools.product(range(n), repeat=d))
    index = {w: i for i, w in enumerate(words)}
    simple = []
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
        simple.append(Mat.from_entries(field, len(words), len(words), entries))
    action = []
    for sigma in sorted(itertools.permutations(range(d))):
        mat = Mat.identity(field, len(words))
        for t in reduced_word(sigma):
            mat = simple[t] @ mat
        action.append(mat)
    return Module.from_matrices(opposite(build_hecke_reference(d, u, field)), action).flat_action()


def broken_truncated_polynomial_module():
    """GF(2)[x]/(x^4) on 1, x, x^2, x^3 and its regular action with rho(x^3)
    replaced by 0: multiplicative on every pair of generators (x is the only
    one), but rho(x * x^2) != rho(x) rho(x^2)."""
    n = 4
    mult = [[[int(i + j == k) for k in range(n)] for j in range(n)] for i in range(n)]
    a = from_structure_constants(GF(2), n, mult, [1, 0, 0, 0])
    action = regular_module(a).action[:3] + [Mat.zeros(a.field, n, n)]
    return a, Module.from_matrices(a, action)


def hom_space_naive(m, n):
    """Oracle for ``modules.hom_space``: one intertwiner solve over the
    algebra generators, F rho_M(g) = rho_N(g) F, as a list of matrices."""
    a = m.algebra
    t, s = n.dim, m.dim
    if t == 0 or s == 0:
        return []
    id_t, id_s = Mat.identity(a.field, t), Mat.identity(a.field, s)
    # rows: entries of F rho_M(g) - rho_N(g) F, unknowns vec(F) row-major
    rows = [id_t.kron(m.act(g).transpose()) - n.act(g).kron(id_s) for g in a.generator_elements()]
    ker = Mat.vstack(rows).kernel()
    return [ker.take_cols([c]).reshape(t, s) for c in range(ker.cols)]


def ext_dim_cochains(m, n, degree):
    """Oracle for ``homology.ext_space``: dim Ext^i(M, N) as the cohomology
    at C^i of the cochains C^i = Hom(P_i, N) of the minimal resolution.

    A cochain phi is its values on the generators of P_i, read in the slice
    bases W_j of e_j N.  The coboundary phi -> phi o d_{i+1} is read as the
    values phi(d_{i+1} g_k) in N, g_k the generators of P_{i+1}: that is
    diag(W_k) times the matrix in slice coordinates of C^{i+1}, and
    diag(W_k) is injective, so kernel and rank are those of the coboundary.
    """
    res = minimal_projective_resolution(m, degree + 1)
    if degree > res.length():
        return 0

    def bases(i):
        return [span.basis.transpose() for span in _slice_spans(n, res.steps[i])]

    def coboundary(i):
        p = res.steps[i]
        if i < res.length():
            kmod, kincl = res.kernels[i]
            cols = kincl.matrix @ projective_cover_data(kmod).cover @ res.steps[i + 1].generators
        else:
            cols = Mat.zeros(n.algebra.field, p.dim, 0)
        return _slice_values(n, p, cols, bases(i))

    if not sum(w.cols for w in bases(degree)):
        return 0
    image = coboundary(degree - 1).rank() if degree else 0
    return coboundary(degree).kernel().cols - image


def span_coords_naive(mats, targets):
    """Oracle for coordinates in the span of linearly independent matrices:
    one solve of the flattened family against the flattened targets, the
    coordinates of each target as a column (None if one lies outside)."""
    size = mats[0].rows * mats[0].cols
    return Mat.hstack([x.reshape(size, 1) for x in mats]).solve(Mat.hstack([x.reshape(size, 1) for x in targets]))


def algebra_of_matrices_naive(mats, provenance="raw"):
    """Oracle for ``algebra.algebra_of_matrices``: the coordinates of every
    product X_a X_b and of the identity, by one solve each, as a dense
    structure; the X_a are the rep."""
    field, n = mats[0].field, len(mats)
    structure = span_coords_naive(mats, [x @ y for x in mats for y in mats]).transpose()
    one = span_coords_naive(mats, [Mat.identity(field, mats[0].rows)])
    rep = Mat.vstack([x.reshape(1, x.rows * x.cols) for x in mats])
    return Algebra(field, n, structure, one, provenance=provenance, rep=rep)


def submodule_naive(m, span):
    """Oracle for ``modules.submodule``: each action matrix on its own, the
    images g W of the span's basis W in coordinates of the span."""
    w = span.basis.transpose()  # columns = basis
    action = []
    for g in m.action:
        img = (g @ w).transpose()
        coords = span.coords(img)
        if coords is None:
            raise ModuleError("subspace is not invariant under the action")
        action.append(coords.transpose())
    sub = Module.from_matrices(m.algebra, action)
    return sub, ModuleMap(sub, m, w)


def quotient_module_naive(m, span):
    """Oracle for ``modules.quotient_module``: proj g sect for each action
    matrix g, with the quotient coordinates and the non-pivot section."""
    ident = Mat.identity(m.algebra.field, m.dim)
    proj = span.quotient_coords(ident).transpose()  # (q x t)
    sect = ident.take_cols(span.nonpivots)
    quot = Module.from_matrices(m.algebra, [proj @ (g @ sect) for g in m.action])
    return quot, ModuleMap(m, quot, proj)


def combine_rep_naive(a, x):
    """rep(x) = sum_i x_i rep(b_i), one scaled matrix per nonzero coordinate."""
    mats = unstack(a.rep_action())
    acc = Mat.zeros(a.field, mats[0].rows, mats[0].cols)
    for i in range(a.dim):
        if x[i, 0] != 0:
            acc = acc + mats[i].scale(x[i, 0])
    return acc


def corner_rep_naive(a, e, incl):
    """Oracle for the rep of ``algebra.corner_algebra(a, e)``: rep(incl_c)
    on the image of rep(e), in the basis of its reduced rows, or None."""
    img = Subspace.from_columns(combine_rep_naive(a, e))
    if img.dim == 0:
        return None
    w = img.basis.transpose()  # columns: basis of e.V
    return [w.solve(combine_rep_naive(a, incl.take_cols([c])) @ w) for c in range(incl.cols)]


def named_modules(g):
    """P, I, Delta, Nabla and T of each label of a gallery entry (and S for
    A_m, V^d for Schur algebras), then the zero module."""
    if hasattr(g, "named_modules"):
        return list(g.named_modules().values()) + [zero_module(g.algebra)]
    h = g.qh()
    mods = [g.tensor_module]
    for i in range(h.label_count()):
        mods += [h.projectives[i], h.injective(i), h.standards[i], h.costandard(i), h.tiltings()[i]]
    return mods + [zero_module(g.algebra)]


def hom_coords_naive(hs, mats):
    """Oracle for ``HomSpace.coords_of_products``: the coordinates of each
    matrix of the span in the Hom basis, by one solve, as columns."""
    return span_coords_naive([f.matrix for f in hs.maps], mats)


def hom_module_action_naive(q, m):
    """Oracle for the action of ``modules.hom_module_over_endop``: f in
    End(q) acts on Hom(q, m) with column t the coordinates of h_t o f."""
    _, _, end_basis = end_algebra_with_bimodule(q)
    hs = hom_space(q, m)
    if not hs.dim:
        return [Mat.zeros(q.algebra.field, 0, 0) for _ in end_basis]
    return [hom_coords_naive(hs, [h.matrix @ f.matrix for h in hs.maps]) for f in end_basis]


def hom_into_q_action_naive(q, m):
    """Oracle for the action of ``modules.hom_into_q_as_right_module``: f in
    End(q) acts on Hom(m, q) with column t the coordinates of f o h_t."""
    _, _, end_basis = end_algebra_with_bimodule(q)
    hs = hom_space(m, q)
    if not hs.dim:
        return [Mat.zeros(q.algebra.field, 0, 0) for _ in end_basis]
    return [hom_coords_naive(hs, [f.matrix @ h.matrix for h in hs.maps]) for f in end_basis]


def induced_map_naive(f, q):
    """Oracle for ``modules.induced_map_on_hom_into_q``: column t holds the
    coordinates in Hom(source f, q) of h_t o f, for the basis h_t of
    Hom(target f, q)."""
    hom_target, hom_source = hom_space(f.target, q), hom_space(f.source, q)
    if not hom_target.dim or not hom_source.dim:
        return Mat.zeros(q.algebra.field, hom_source.dim, hom_target.dim)
    return hom_coords_naive(hom_source, [h.matrix @ f.matrix for h in hom_target.maps])


def right_a_action_naive(p):
    """The right A-action on Hom(p, A) that ``covers.cover_check`` reads:
    the matrix of b_i has column t the coordinates of R_(b_i) o g_t."""
    a = p.algebra
    hs = hom_space(p, regular_module(a))
    return [hom_coords_naive(hs, [a.right_mult_matrix(a.basis_element(i)) @ g.matrix for g in hs.maps]) for i in range(a.dim)]


def eta_naive(p, m):
    """Oracle for ``covers._eta_matrix``: (eta_m, dim Hom_B(F_P A, F_P m)).
    eta(m_c) sends g_t in F_P A to x -> rho_m(g_t(x)) m_c, read pair by pair
    in Hom(p, m); column c of eta_m holds the coordinates of eta(m_c) in
    Hom_B, with F_P A and F_P m built from their oracle actions."""
    a = p.algebra
    b, _, _ = end_algebra_with_bimodule(p)
    fa_hom, fm_hom = hom_space(p, regular_module(a)), hom_space(p, m)
    fa, fm = Module.from_matrices(b, hom_module_action_naive(p, regular_module(a))), Module.from_matrices(b, hom_module_action_naive(p, m))
    homb = hom_space(fa, fm)
    if not homb.dim:
        return Mat.zeros(a.field, 0, m.dim), 0
    etas = []
    for c in range(m.dim):
        e_c = m.stack().take_cols([c]).reshape(a.dim, m.dim).transpose()  # column i: rho_m(b_i) m_c
        etas.append(hom_coords_naive(fm_hom, [e_c @ g.matrix for g in fa_hom.maps]))
    return hom_coords_naive(homb, etas), homb.dim


def stored_arrays(a):
    """The arrays an algebra holds in its attributes, inside tuples and Mats
    too, apart from its faithful representation ``_rep``."""
    found = []

    def walk(x):
        if isinstance(x, np.ndarray):
            found.append(x)
        elif isinstance(x, Mat):
            found.append(x.data)
        elif isinstance(x, tuple):
            for y in x:
                walk(y)

    for key, value in vars(a).items():
        if key != "_rep":
            walk(value)
    return found


@pytest.fixture(scope="session")
def a2_gf3():
    return make_am_algebra(2, GF(3))


@pytest.fixture(scope="session")
def a3_gf3():
    return make_am_algebra(3, GF(3))


@pytest.fixture(scope="session")
def a2_qq():
    return make_am_algebra(2, QQ)


@pytest.fixture(scope="session")
def schur33_gf3():
    return build_schur(3, 3, 1, GF(3))


@pytest.fixture(scope="session")
def schur33_gf2():
    return build_schur(3, 3, 1, GF(2))
