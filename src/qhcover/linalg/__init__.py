"""Dense exact linear algebra over GF(p) and QQ.

GF(p) matrices live in read-only float64 numpy arrays of integers in [0, p),
as in FFLAS-FFPACK's ``Modular<double>`` (Dumas, Giorgi, Pernet, ACM TOMS
35(3), 2008): products run on float64 BLAS with no conversion, and every
reduction modulo p is one exact kernel, ``_reduce``.  Every GF(p) product
goes through ``matmul_mod``, and row reduction is one numpy routine,
``_rref_gfp``.  QQ matrices use exact Fraction arithmetic; all QQ instances
in this package are small.  Other modules stay off the storage: they build
and reshape matrices through Mat's field-neutral operations and take
coordinates through MatrixBasis.

The public constructor ``Mat(...)`` checks data from outside the program: it
reduces GF(p) entries mod p as integers, before they become float64, and
turns QQ entries into Fractions.  Results of the operations here skip those
checks: they are built by ``_trusted`` (``Mat.from_reduced`` outside this
module), which neither copies, reduces nor coerces.  Entries leave as Python
ints (``Mat.__getitem__``), so nothing downstream prints a float.

Everything here is deterministic: identical inputs give bit-identical
outputs (leftmost pivot columns, topmost pivot rows).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from ..fields import Field, PrimeField, QQ, RationalField, as_fraction

# the GF(p) row reduction in use; the benchmark harness records it
GFP_BACKEND = "numpy"


# ---------------------------------------------------------------------------
# exact reduction and products modulo m
# ---------------------------------------------------------------------------

# float64 holds every integer below 2^53 exactly; ``_reduce`` is exact for
# integers below 2^51, and every value it is given stays below that bound.
_EXACT = 2**51
# On at most this many entries one np.fmod call is cheaper than the five
# ufuncs of the floor form; above it the floor form wins, by far on large
# arrays, as fmod's cost grows with the quotient.  Measured crossover on a
# 2-core x86 VM: about 256 entries at m = 3 and 81 (5.3 us either way);
# about 120 at m = 1048573 with entries near m^2.  A 27225 x 27 array mod 3
# takes 1.7 ms in the floor form and 27 ms in fmod.
_FMOD_MAX_SIZE = 256


def _reduce(x: np.ndarray, m: int) -> np.ndarray:
    """x mod m, in place, for a float64 array of integers 0 <= x < 2^51.

    The floor form x - floor((x + 0.5) * fl(1/m)) * m is exact with no
    correction step.  Write x = q*m + r with 0 <= r < m.  x + 0.5 is exact
    (x < 2^51).  fl(1/m) and the product each carry a relative error of at
    most 2^-53, so the computed quotient differs from (x + 0.5)/m by less
    than (x + 0.5)/m * (2^-52 + 2^-106) < 0.5/m, as x + 0.5 < 2^51.  The
    exact quotient is q + (r + 0.5)/m, whose fractional part lies in
    [0.5/m, 1 - 0.5/m]; so the computed one lies strictly between q and
    q + 1, and its floor is q.  Then q*m <= x < 2^51 and x - q*m are exact.
    fmod, used on small arrays, is exact on all doubles.  Neither form makes
    a negative zero from nonnegative input.
    """
    # scalars meet float64 arrays as floats, here and in the callers: numpy
    # resolves a Python int scalar on every ufunc call, about 0.7 us on
    # small arrays
    m = float(m)
    if x.size <= _FMOD_MAX_SIZE:
        return np.fmod(x, m, out=x)
    q = x + 0.5
    q *= 1.0 / m
    np.floor(q, out=q)
    q *= m
    x -= q
    return x


def _chunk_length(m: int) -> int:
    """The longest inner dimension K with K (m-1)^2 < 2^51: a dot product
    of K entries in [0, m) then stays below ``_reduce``'s bound.  2048 at
    m = 1048573, the largest prime below PrimeField.MAX_P."""
    return (_EXACT - 1) // max(m - 1, 1) ** 2


def matmul_mod(a: np.ndarray, b: np.ndarray, mod: int) -> np.ndarray:
    """a @ b reduced mod ``mod``, on float64 arrays of integers in [0, mod).

    The inner dimension runs in chunks of ``_chunk_length(mod)``, each
    reduced once (delayed reduction); beyond one chunk the reduced chunks
    are summed, below (number of chunks) * mod, and reduced again.  A stack
    of matrices multiplies matrix by matrix, as in ``np.matmul``.  Moduli
    with (mod-1)^2 >= 2^51 raise: only the radical chain's moduli p^(l+1)
    are that wide, and it multiplies those on integers itself.
    """
    k = a.shape[-1]
    if k * (mod - 1) ** 2 < _EXACT:
        return _reduce(np.matmul(a, b), mod)
    step = _chunk_length(mod)
    if step < 1:
        raise OverflowError(f"modulus {mod} is too wide for exact float64 products")
    out = _reduce(np.matmul(a[..., :step], b[..., :step, :]), mod)
    for s in range(step, k, step):
        out += _reduce(np.matmul(a[..., s : s + step], b[..., s : s + step, :]), mod)
    return _reduce(out, mod)


# ---------------------------------------------------------------------------
# row reduction
# ---------------------------------------------------------------------------

# Both eliminations follow one pivot rule: the leftmost column with a nonzero
# entry at or below the current row, the topmost such row as pivot row, the
# pivot scaled to 1, and the column cleared above and below.  They return the
# reduced row echelon form and its pivot columns.


def _rref_gfp(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    # entries of ``a`` lie in [0, p); a pivot row times an inverse is below
    # p^2, and the update a + c*(p - b) of a row by a column entry c and the
    # pivot row b is nonnegative and below p^2 <= 2^40 for p <= PrimeField.MAX_P,
    # inside ``_reduce``'s bound
    a = a.copy()
    rows, cols = a.shape
    pf = float(p)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        row = a[r]  # a view: scaled in place
        inv = pow(int(row[c]), p - 2, p)
        if inv != 1:
            row *= float(inv)
            _reduce(row, p)
        col = a[:, c].copy()
        col[r] = 0
        nzrows = np.nonzero(col)[0]
        if nzrows.size:
            a[nzrows] = _reduce(a[nzrows] + np.outer(col[nzrows], pf - row), p)
        pivots.append(c)
        r += 1
    return a, pivots


def _rref_qq(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        if pr != r:
            m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        if piv != 1:
            m[r] = [x / piv for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


class Mat:
    """Immutable dense matrix over a Field.

    GF(p): ``data`` is a read-only float64 ndarray holding integers in
           [0, p); entries are read out as Python ints.
    QQ:    ``data`` is a tuple of tuples of Fraction.

    ``Mat(field, data)`` is for data from outside the program and checks it:
    GF(p) entries are reduced mod p as integers of any size into a new
    array, QQ entries become Fractions, and data that is not 2-dimensional
    or has ragged rows is rejected.  Every operation below builds its result
    with ``_trusted`` instead, which skips those checks because its data is
    already in that form; ``Mat.from_reduced`` is that entry point for the
    callers outside this module that compute on the storage.
    """

    __slots__ = ("field", "data", "rows", "cols")

    def __init__(self, field: Field, data, cols: Optional[int] = None):
        self.field = field
        if isinstance(field, PrimeField):
            arr = _reduce_outside(data, field.p)
            if arr.ndim != 2:
                if arr.size == 0:
                    arr = arr.reshape(0, cols or 0)
                else:
                    raise ValueError("matrix data must be 2-dimensional")
            arr.setflags(write=False)
            self.data = arr
            self.rows, self.cols = arr.shape
        else:
            rows = tuple(tuple(as_fraction(x) for x in row) for row in data)
            self.rows = len(rows)
            self.cols = len(rows[0]) if rows else (cols or 0)
            if any(len(r) != self.cols for r in rows):
                raise ValueError("ragged matrix data")
            self.data = rows

    # -- constructors ----------------------------------------------------
    @staticmethod
    def from_reduced(field: Field, data, cols: int = 0) -> "Mat":
        """A Mat on data already in stored form, not copied, reduced or
        coerced: over GF(p) a float64 array of integers in [0, p) (made
        read-only), over QQ rows of Fractions (``cols`` gives the width of
        zero rows)."""
        if isinstance(field, PrimeField) and data.dtype != np.float64:
            raise TypeError(f"GF(p) data must be float64, not {data.dtype}")
        return _trusted(field, data, cols)

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Mat":
        if isinstance(field, PrimeField):
            return _trusted(field, np.zeros((rows, cols)))
        return _trusted(field, [[Fraction(0)] * cols for _ in range(rows)], cols)

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        if isinstance(field, PrimeField):
            return _trusted(field, np.eye(n))
        return _trusted(field, [[Fraction(int(i == j)) for j in range(n)] for i in range(n)], n)

    @staticmethod
    def from_entries(field: Field, rows: int, cols: int, entries: dict) -> "Mat":
        """Sparse constructor: ``entries`` maps (i, j) to a value; the rest is 0.

        Over GF(p) each value is reduced as a Python int before it is stored.
        """
        buf = Mat.zeros(field, rows, cols).mutable()
        for (i, j), v in entries.items():
            buf[i][j] = field.normalize(v)
        return _trusted(field, buf, cols)

    @staticmethod
    def column(field: Field, vec: Sequence) -> "Mat":
        return Mat(field, [[x] for x in vec])

    @staticmethod
    def hstack(mats: Sequence["Mat"]) -> "Mat":
        mats = list(mats)
        field = mats[0].field
        if isinstance(field, PrimeField):
            return _trusted(field, np.hstack([m.data for m in mats]))
        rows = [[x for m in mats for x in m.data[i]] for i in range(mats[0].rows)]
        return _trusted(field, rows, sum(m.cols for m in mats))

    @staticmethod
    def vstack(mats: Sequence["Mat"]) -> "Mat":
        mats = list(mats)
        field = mats[0].field
        if isinstance(field, PrimeField):
            return _trusted(field, np.vstack([m.data for m in mats]))
        return _trusted(field, [r for m in mats for r in m.data], mats[0].cols)

    @staticmethod
    def block_diag(field: Field, mats: Sequence["Mat"]) -> "Mat":
        rows = sum(m.rows for m in mats)
        cols = sum(m.cols for m in mats)
        out = Mat.zeros(field, rows, cols).mutable()
        r = c = 0
        for m in mats:
            _assign_block(out, r, c, m)
            r += m.rows
            c += m.cols
        return _trusted(field, out, cols)

    # -- scalar access ---------------------------------------------------
    def __getitem__(self, rc):
        r, c = rc
        return self.data[r][c] if isinstance(self.field, RationalField) else int(self.data[r, c])

    def nonzero_entries(self) -> list[tuple[int, int, object]]:
        """(i, j, entry) for every nonzero entry in row-major order, as
        Python ints (and Fractions over QQ)."""
        if isinstance(self.field, PrimeField):
            rows, cols = np.nonzero(self.data)
            return list(zip(rows.tolist(), cols.tolist(), map(int, self.data[rows, cols].tolist())))
        return [(i, j, x) for i, row in enumerate(self.data) for j, x in enumerate(row) if x != 0]

    def mutable(self):
        if isinstance(self.field, PrimeField):
            return np.array(self.data, copy=True)
        return [list(r) for r in self.data]

    # -- arithmetic -------------------------------------------------------
    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        f = self.field
        if isinstance(f, PrimeField):
            return _trusted(f, matmul_mod(self.data, other.data, f.p))
        out = [[Fraction(0)] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.data):
            for k, a in enumerate(row):
                if a:
                    brow = other.data[k]
                    oi = out[i]
                    for j in range(other.cols):
                        oi[j] += a * brow[j]
        return _trusted(f, out, other.cols)

    def __add__(self, other: "Mat") -> "Mat":
        f = self.field
        if isinstance(f, PrimeField):
            return _trusted(f, _reduce(self.data + other.data, f.p))
        return _trusted(f, [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)], self.cols)

    def __sub__(self, other: "Mat") -> "Mat":
        f = self.field
        if isinstance(f, PrimeField):
            diff = float(f.p) - other.data
            diff += self.data
            return _trusted(f, _reduce(diff, f.p))
        return _trusted(f, [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)], self.cols)

    def scale(self, c) -> "Mat":
        f = self.field
        if isinstance(f, PrimeField):
            return _trusted(f, _reduce(self.data * float(f.normalize(c)), f.p))
        c = as_fraction(c)
        return _trusted(f, [[c * x for x in row] for row in self.data], self.cols)

    def __neg__(self) -> "Mat":
        return self.scale(-1 if isinstance(self.field, RationalField) else self.field.p - 1)

    def reshape(self, rows: int, cols: int) -> "Mat":
        """The same entries read row-major into a rows x cols matrix."""
        if rows * cols != self.rows * self.cols:
            raise ValueError(f"cannot reshape {self.rows}x{self.cols} to {rows}x{cols}")
        if isinstance(self.field, PrimeField):
            return _trusted(self.field, self.data.reshape(rows, cols))
        flat = [x for row in self.data for x in row]
        return _trusted(self.field, [flat[i * cols : (i + 1) * cols] for i in range(rows)], cols)

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product: with other r x c, entry (i*r + k, j*c + l) is self[i, j] * other[k, l]."""
        f = self.field
        if isinstance(f, PrimeField):
            return _trusted(f, _reduce(np.kron(self.data, other.data), f.p))
        rows = [[a * b for a in arow for b in brow] for arow in self.data for brow in other.data]
        return _trusted(f, rows, self.cols * other.cols)

    def transpose(self) -> "Mat":
        if isinstance(self.field, PrimeField):
            return _trusted(self.field, self.data.T)
        if self.rows == 0:
            return _trusted(self.field, [()] * self.cols)
        return _trusted(self.field, list(zip(*self.data)), self.rows)

    def take_rows(self, idx: Iterable[int]) -> "Mat":
        """The rows ``idx`` in that order.  Over GF(p) a ``range`` with step
        >= 1 gives a read-only view, which keeps all of ``self`` alive;
        any other sequence gives a copy."""
        if isinstance(self.field, PrimeField) and isinstance(idx, range) and idx.step > 0 and idx.start >= 0:
            return _trusted(self.field, self.data[idx.start : idx.stop : idx.step])
        idx = list(idx)
        if isinstance(self.field, PrimeField):
            return _trusted(self.field, self.data[idx, :] if idx else np.zeros((0, self.cols)))
        return _trusted(self.field, [self.data[i] for i in idx], self.cols)

    def take_cols(self, idx: Iterable[int]) -> "Mat":
        idx = list(idx)
        if isinstance(self.field, PrimeField):
            return _trusted(self.field, self.data[:, idx] if idx else np.zeros((self.rows, 0)))
        return _trusted(self.field, [[row[j] for j in idx] for row in self.data], len(idx))

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        if isinstance(self.field, PrimeField):
            return not self.data.any()
        return all(x == 0 for row in self.data for x in row)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat) or self.field != other.field:
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        if isinstance(self.field, PrimeField):
            return bool(np.array_equal(self.data, other.data))
        return self.data == other.data

    def __hash__(self):
        if isinstance(self.field, PrimeField):
            return hash((self.field.key(), self.rows, self.cols, self.data.tobytes()))
        return hash((self.field.key(), self.data))

    def __repr__(self) -> str:
        return f"Mat({self.field}, {self.rows}x{self.cols})"

    # -- elimination -------------------------------------------------------
    def rref(self) -> tuple["Mat", list[int]]:
        if self.rows == 0 or self.cols == 0:
            return self, []
        if isinstance(self.field, PrimeField):
            red, piv = _rref_gfp(self.data, self.field.p)
            return _trusted(self.field, red), piv
        red, piv = _rref_qq([list(r) for r in self.data])
        return _trusted(self.field, red, self.cols), piv

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "Mat":
        """Basis of the right null space, as columns, echelon-normalized."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        if isinstance(self.field, PrimeField):
            # column k: 1 in row free[k], minus red[i, free[k]] in row pivots[i];
            # most kernels are of matrices with a few columns, and skipping
            # the empty writes keeps those as cheap as an entry-by-entry loop
            p = self.field.p
            ker = np.zeros((self.cols, len(free)))
            if free:
                ker[free, np.arange(len(free))] = 1
                if pivots:
                    ker[pivots] = _reduce(float(p) - red.data[: len(pivots), free], p)
            return _trusted(self.field, ker)
        ker = Mat.zeros(self.field, self.cols, len(free)).mutable()
        for k, fc in enumerate(free):
            ker[fc][k] = Fraction(1)
            for i, pc in enumerate(pivots):
                ker[pc][k] = -red[i, fc]
        return _trusted(self.field, ker, len(free))

    def solve(self, b: "Mat") -> Optional["Mat"]:
        """Some x with self @ x == b, or None when inconsistent."""
        if self.rows != b.rows:
            raise ValueError("solve: row count mismatch")
        aug = Mat.hstack([self, b])
        red, pivots = aug.rref()
        if any(p >= self.cols for p in pivots):
            return None
        if isinstance(self.field, PrimeField):
            x = np.zeros((self.cols, b.cols))
            x[pivots] = red.data[: len(pivots), self.cols :]
            return _trusted(self.field, x)
        x = Mat.zeros(self.field, self.cols, b.cols).mutable()
        for i, pc in enumerate(pivots):
            for j in range(b.cols):
                x[pc][j] = red[i, self.cols + j]
        return _trusted(self.field, x, b.cols)

    def inv(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        x = self.solve(Mat.identity(self.field, self.rows))
        if x is None or (self @ x) != Mat.identity(self.field, self.rows):
            raise ValueError("matrix is not invertible")
        return x

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def _trusted(field: Field, data, cols: int = 0) -> Mat:
    """A Mat on data that linalg built: a reduced float64 array over GF(p), rows
    of Fractions over QQ (``cols`` gives the width of zero rows).

    Unlike ``Mat(...)`` nothing is copied, reduced or coerced: the array is
    made read-only, and QQ rows are stored as tuples.
    """
    m = Mat.__new__(Mat)
    m.field = field
    if isinstance(field, PrimeField):
        data.setflags(write=False)
        m.rows, m.cols = data.shape
    else:
        data = tuple(map(tuple, data))
        m.rows = len(data)
        m.cols = len(data[0]) if data else cols
    m.data = data
    return m


def _reduce_outside(data, p: int) -> np.ndarray:
    """Outside data as a new float64 array of integers in [0, p).

    Entries are reduced as integers before they become float64, so none is
    rounded: machine integers in their own dtype, Python ints beyond int64
    one by one.  Float data (a ``mutable()`` buffer) is truncated to
    integers, as ``int`` does, and reduced exactly (fmod is exact).
    """
    if not isinstance(data, np.ndarray):
        try:
            data = np.array(data, dtype=np.int64)
        except OverflowError:
            data = np.array(data, dtype=object)
    if data.dtype == object:
        return np.frompyfunc(lambda x: int(x) % p, 1, 1)(data).astype(np.float64)
    if data.dtype.kind == "f":
        data = np.trunc(data)
    return (data % p).astype(np.float64)


def _assign_block(buf, r0, c0, m: Mat):
    if isinstance(buf, np.ndarray):
        buf[r0 : r0 + m.rows, c0 : c0 + m.cols] = m.data
    else:
        for i in range(m.rows):
            for j in range(m.cols):
                buf[r0 + i][c0 + j] = m.data[i][j]


class MatrixBasis:
    """Coordinates with respect to a linearly independent family of matrices.

    The matrices, all of one shape, are flattened row-major into the columns
    of ``flat``.  Its pivot rows (leftmost pivots of the transposed rref) and
    the inverse of the square block on those rows are computed once, so the
    coordinates of a matrix in the span cost one small product.  Membership
    is not checked.
    """

    def __init__(self, mats: Sequence[Mat]):
        self.mats = list(mats)
        self.field = self.mats[0].field
        self.shape = (self.mats[0].rows, self.mats[0].cols)
        self.flat = Mat.hstack([self._flatten(m) for m in self.mats])
        self.rows = self.flat.transpose().rref()[1]
        self.square_inv = self.flat.take_rows(self.rows).inv()

    def __len__(self) -> int:
        return len(self.mats)

    def _flatten(self, m: Mat) -> Mat:
        return m.reshape(self.shape[0] * self.shape[1], 1)

    def flat_coords(self, flat: Mat) -> Mat:
        """Coordinate columns of the columns of ``flat`` (flattened matrices)."""
        return self.square_inv @ flat.take_rows(self.rows)

    def coords(self, m: Mat) -> Mat:
        """Coordinate column of one matrix of the span."""
        return self.flat_coords(self._flatten(m))

    def coords_many(self, mats: Sequence[Mat]) -> Mat:
        """Coordinate columns of several matrices of the span, side by side."""
        return self.flat_coords(Mat.hstack([self._flatten(m) for m in mats]))

    def product_coords(self) -> Mat:
        """Structure constants of a basis closed under products.

        Row i*n + j holds the coordinates of mats[i] @ mats[j].
        """
        n, (t, u) = len(self.mats), self.shape
        # Coordinates read only the pivot entries.  Entry (i, k) of
        # mats[a] @ mats[b] is row i of mats[a] (rows i*u .. i*u+u of flat,
        # transposed) times column k of mats[b] (rows k, k+u, .. of flat), so
        # one n x n product gives that entry for every pair (a, b).
        entries = [
            (self.flat.take_rows(range(i * u, i * u + u)).transpose() @ self.flat.take_rows(range(k, t * u, u))).reshape(1, n * n)
            for i, k in (divmod(r, u) for r in self.rows)
        ]
        return (self.square_inv @ Mat.vstack(entries)).transpose()


class Subspace:
    """Subspace of k^n held as a reduced row basis, with quotient coordinates.

    ``reduce`` eliminates the pivot coordinates of a vector; membership is
    reduce == 0, and the non-pivot coordinates of the residue give canonical
    coordinates in the quotient k^n / S.
    """

    def __init__(self, field: Field, ambient: int, vectors: Optional[Mat] = None):
        self.field = field
        self.ambient = ambient
        if vectors is None or vectors.rows == 0:
            self.basis = Mat.zeros(field, 0, ambient)
            self.pivots: list[int] = []
        else:
            if vectors.cols != ambient:
                raise ValueError("vector length does not match ambient dimension")
            red, piv = vectors.rref()
            # below full rank the leading rows are copied (a list, not a range):
            # a view would keep all of ``red`` alive as long as the subspace
            self.basis = red if len(piv) == red.rows else red.take_rows(list(range(len(piv))))
            self.pivots = piv
        pivot_set = set(self.pivots)
        self.nonpivots = [c for c in range(ambient) if c not in pivot_set]

    @staticmethod
    def from_columns(m: Mat) -> "Subspace":
        return Subspace(m.field, m.rows, m.transpose())

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce(self, vecs: Mat) -> Mat:
        """Eliminate pivot coordinates of row vectors (rows = vectors)."""
        if self.dim == 0:
            return vecs
        coeff = vecs.take_cols(self.pivots)
        return vecs - (coeff @ self.basis)

    def contains(self, vecs: Mat) -> bool:
        return self.reduce(vecs).is_zero()

    def coords(self, vecs: Mat) -> Optional[Mat]:
        """Coordinates of row vectors in the reduced basis, or None."""
        coeff = vecs.take_cols(self.pivots)
        if (coeff @ self.basis) != vecs:
            return None
        return coeff

    def quotient_coords(self, vecs: Mat) -> Mat:
        """Canonical coordinates of row vectors in k^n / S."""
        return self.reduce(vecs).take_cols(self.nonpivots)
