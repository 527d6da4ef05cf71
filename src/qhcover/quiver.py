"""Bound quiver algebras with length-homogeneous relations.

Paths are stored as tuples of arrow indices in composition order: the tuple
(a, b) stands for a o b, with b applied first (arrows compose right to left,
like morphisms).  The algebra basis consists of chosen path representatives
modulo the relation ideal, computed degree by degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .algebra import Algebra, AlgebraError
from .fields import Field
from .linalg import Mat, Subspace


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


@dataclass
class QuiverPresentation:
    """Vertices 0..n-1, named arrows, and homogeneous relations.

    A relation is a list of (coefficient, path) pairs where every path has
    the same length (>= 2), the same source and the same target.
    """

    n_vertices: int
    arrows: list[Arrow]
    relations: list[list[tuple[object, tuple[int, ...]]]] = dc_field(default_factory=list)

    def arrow_index(self, name: str) -> int:
        for i, a in enumerate(self.arrows):
            if a.name == name:
                return i
        raise AlgebraError(f"unknown arrow name {name!r}")

    def path_source(self, path: tuple[int, ...]) -> int:
        return self.arrows[path[-1]].source

    def path_target(self, path: tuple[int, ...]) -> int:
        return self.arrows[path[0]].target

    def path_composable(self, path: tuple[int, ...]) -> bool:
        return all(
            self.arrows[path[i]].source == self.arrows[path[i + 1]].target
            for i in range(len(path) - 1)
        )

    def validate(self) -> None:
        for a in self.arrows:
            if not (0 <= a.source < self.n_vertices and 0 <= a.target < self.n_vertices):
                raise AlgebraError(f"arrow {a.name} endpoints out of range")
        for rel in self.relations:
            if not rel:
                raise AlgebraError("empty relation")
            lengths = {len(p) for _, p in rel}
            if len(lengths) != 1:
                raise AlgebraError("inhomogeneous relation (mixed path lengths) is unsupported")
            if lengths.pop() < 2:
                raise AlgebraError("relation paths must have length >= 2")
            for _, p in rel:
                if not self.path_composable(p):
                    raise AlgebraError(f"relation path {p} is not composable")
            src = {self.path_source(p) for _, p in rel}
            tgt = {self.path_target(p) for _, p in rel}
            if len(src) != 1 or len(tgt) != 1:
                raise AlgebraError("relation mixes paths with different endpoints")


MAX_PATHS_PER_DEGREE = 200_000


def from_quiver(q: QuiverPresentation, field: Field, degree_cap: int = 64) -> Algebra:
    """Quotient of the path algebra by the (homogeneous) relation ideal.

    The basis is computed degree by degree; construction stops at the first
    degree whose quotient component vanishes, and errors out at the cap.
    """
    q.validate()
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
        if len(nxt) > MAX_PATHS_PER_DEGREE:
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
                vec[index[p]] = field.normalize(coeff)
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
    mult = Mat.from_entries(field, n * n, n, entries)
    alg = Algebra(field, n, mult, Mat.column(field, [field.normalize(x) for x in one]), provenance="quiver")
    alg.quiver_data = {
        "presentation": q,
        "basis_paths": basis,
        "basis_degrees": basis_degree,
        "vertex_indices": list(range(q.n_vertices)),
        "arrow_indices": [pos[ap] for ap in sorted(arrow_paths)] if q.arrows else [],
    }
    alg.validate_unit()
    return alg


def arrow_ideal_dimension(alg: Algebra) -> int:
    """Dimension of the ideal spanned by paths of positive degree."""
    data = alg.quiver_data
    return sum(1 for d in data["basis_degrees"] if d > 0)
