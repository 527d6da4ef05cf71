"""Bound quiver algebras with length-homogeneous relations.

Paths are stored as tuples of arrow indices in composition order: the tuple
(a, b) stands for a o b, with b applied first (arrows compose right to left,
like morphisms).  The algebra basis consists of chosen path representatives
modulo the relation ideal, computed degree by degree.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .algebra import Algebra, AlgebraError
from .fields import Field
from .linalg import Mat, Subspace, Triples


@dataclass(frozen=True)
class Arrow:
    name: str
    source: int
    target: int


@dataclass
class QuiverPresentation:
    """Vertices 0..n-1, named arrows, and homogeneous relations.

    A relation is a list of (coefficient, path) pairs where every path has
    the same length (>= 2), the same source and the same target; a
    coefficient is read from its string ("2", "-1/3"), as in the JSON schema.
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
# the ideal of one degree is one dense (rows x paths) matrix: past this many
# entries, 32 MiB of float64, the path count is taken to be exploding
MAX_IDEAL_ENTRIES = 2**22
DEGREE_CAP = 64


def from_quiver(q: QuiverPresentation, field: Field) -> Algebra:
    """Quotient kQ/I of the path algebra by the ideal of the relations.

    Built degree by degree (Assem, Simson and Skowroński, *Elements of the
    Representation Theory of Associative Algebras* I, ch. II): the degree-d
    part of I is spanned by a x and x a for every arrow a and every x in its
    degree-(d-1) part, and by the relations of length d; the paths of degree
    d, in lexicographic order, off the pivots of that part are the basis
    elements of degree d.  Construction stops at the first degree whose
    quotient vanishes, and errors out if degree DEGREE_CAP has not.

    A path is held as (arrows, target, source), a vertex v as ((), v, v), so
    one rule composes vertices and paths.  A product of basis elements is a
    path whose quotient coordinates in its degree are its constants.
    """
    q.validate()

    def compose(p, r):
        """p o r, or None when r does not end where p starts."""
        return (p[0] + r[0], p[1], r[2]) if p[2] == r[1] else None

    arrows = [((a,), x.target, x.source) for a, x in enumerate(q.arrows)]
    paths = [[((), v, v) for v in range(q.n_vertices)]]
    ideals = [Subspace(field, q.n_vertices)]
    while ideals[-1].nonpivots:
        degree = len(paths)
        if degree > DEGREE_CAP:
            raise AlgebraError(f"not finite-dimensional: quotient alive at degree cap {DEGREE_CAP}")
        prev, below = paths[-1], ideals[-1].basis
        nxt = sorted(c for a in arrows for x in prev if (c := compose(a, x)))
        if not nxt:
            break
        if len(nxt) > MAX_PATHS_PER_DEGREE:
            raise AlgebraError("not finite-dimensional: path count explosion")
        index = {p[0]: c for c, p in enumerate(nxt)}
        # a x and x a for the rows x of the part below: the entry of x at the
        # path y moves to a y in row block t = 2a and to y a in block t = 2a + 1
        moves = [
            [(t, index[c[0]]) for t, c in enumerate(compose(*pair) for a in arrows for pair in ((a, y), (y, a))) if c]
            for y in prev
        ]
        rows: dict[tuple[int, int], int] = {}
        entries: dict[tuple[int, int], object] = {}
        for s, j, v in below.nonzero_entries():
            for t, c in moves[j]:
                entries[rows.setdefault((s, t), len(rows)), c] = v
        # then the relations of this length, a path listed twice adding up
        relations = [rel for rel in q.relations if len(rel[0][1]) == degree]
        for r, rel in enumerate(relations, len(rows)):
            for coeff, p in rel:
                entries[r, index[p]] = entries.get((r, index[p]), 0) + field.parse(str(coeff))
        if (len(rows) + len(relations)) * len(nxt) > MAX_IDEAL_ENTRIES:
            raise AlgebraError(f"not finite-dimensional: ideal of degree {degree} past {MAX_IDEAL_ENTRIES} entries")
        paths.append(nxt)
        ideals.append(Subspace(field, len(nxt), Mat.from_entries(field, len(rows) + len(relations), len(nxt), entries)))

    # basis: the non-pivot paths, by degree, each degree in lexicographic order
    basis = [(d, paths[d][c]) for d, ideal in enumerate(ideals) for c in ideal.nonpivots]
    n = len(basis)
    # b_i b_j is the path p_i o p_j: by degree, the key i*n + j and the path's column
    columns = [{p: c for c, p in enumerate(plist)} for plist in paths]
    products: list[list[tuple[int, int]]] = [[] for _ in paths]
    for i, (di, p) in enumerate(basis):
        for j, (dj, r) in enumerate(basis):
            if di + dj < len(paths) and (c := compose(p, r)):
                products[di + dj].append((i * n + j, columns[di + dj][c]))
    units = [
        Mat.from_entries(field, len(found), len(plist), {(t, c): 1 for t, (_, c) in enumerate(found)})
        for found, plist in zip(products, paths)
    ]
    coords = Mat.block_diag(field, [ideal.quotient_coords(u) for ideal, u in zip(ideals, units)])
    # into row-major order, sorted in Python: the first np.argsort call of a
    # process raised the peak RSS of the zigzag benchmarks by 0.3-0.4 MB
    keys = [key for found in products for key, _ in found]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    triples = Triples.from_rows(np.array(keys, dtype=np.intp)[order], coords.take_rows(order), n)
    one = Mat.from_entries(field, n, 1, {(v, 0): 1 for v in range(q.n_vertices)})
    alg = Algebra.from_triples(field, n, triples, one, provenance="quiver")
    alg.quiver_data = {
        "basis_paths": [p[0] or ("v", p[1]) for _, p in basis],
        "basis_degrees": [d for d, _ in basis],
    }
    alg.validate_unit()
    return alg


def arrow_ideal_dimension(alg: Algebra) -> int:
    """Dimension of the ideal spanned by paths of positive degree."""
    data = alg.quiver_data
    return sum(1 for d in data["basis_degrees"] if d > 0)
