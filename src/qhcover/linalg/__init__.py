"""Dense exact linear algebra over GF(p) and QQ.

GF(p) matrices live in int64 numpy arrays.  Every GF(p) product goes
through ``matmul_mod``, which runs large products exactly on float64 BLAS;
row reduction uses a compiled Cython kernel when available, with a
pure-numpy fallback selected at import time.  QQ matrices use exact
Fraction arithmetic; all QQ instances in this package are small.  Other
modules stay off the storage: they build and reshape matrices through Mat's
field-neutral operations and take coordinates through MatrixBasis.

Everything here is deterministic: identical inputs give bit-identical
outputs (leftmost pivot columns, topmost pivot rows).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

import numpy as np

from ..fields import Field, PrimeField, QQ, RationalField, as_fraction

try:  # compiled kernel first, numpy fallback otherwise
    from . import _gfp_cython as _gfp

    GFP_BACKEND = "cython"
except ImportError:  # pragma: no cover - depends on build environment
    from . import _gfp_numpy as _gfp

    GFP_BACKEND = "numpy"

from . import _gfp_numpy


def gfp_backends() -> dict:
    """Expose both row-reduction backends (for tests and benchmarks)."""
    out = {"numpy": _gfp_numpy, "active": _gfp}
    if GFP_BACKEND == "cython":
        out["cython"] = _gfp
    return out


# ---------------------------------------------------------------------------
# exact products modulo m
# ---------------------------------------------------------------------------

# With factors in [0, m) and inner dimension k, every partial sum of a dot
# product is an integer of at most k * (m-1)^2.  float64 holds every integer
# below 2^53 exactly, so a BLAS product followed by one reduction is exact
# while k * (m-1)^2 < 2^53 (delayed reduction, as in FFLAS-FFPACK: Dumas,
# Giorgi, Pernet, ACM TOMS 35(3), 2008); int64 is exact while
# k * (m-1)^2 < 2^63.  Beyond both, the product runs on Python ints.
_FLOAT64_EXACT = 2**53
_INT64_EXACT = 2**63
# Below about this many multiply-adds the float64 round trip costs more than
# numpy's int64 loop (27x27x27: 25 us int64, 22 us float64; 12x12x12: 3.4 us
# against 8.1 us, single-threaded OpenBLAS on a 2-core x86 VM).
_BLAS_MIN_OPS = 20_000


def _product_dtype(k: int, mod: int, ops: int):
    """The dtype in which a product with inner dimension k, factors in
    [0, mod) and ``ops`` multiply-adds is computed exactly."""
    bound = k * (mod - 1) ** 2
    if bound < _FLOAT64_EXACT and ops >= _BLAS_MIN_OPS:
        return np.float64
    if bound < _INT64_EXACT:
        return np.int64
    return object


def matmul_mod(a: np.ndarray, b: np.ndarray, mod: int) -> np.ndarray:
    """a @ b reduced mod ``mod``, as int64 (object beyond the int64 bound).

    Entries must lie in [0, mod); a stack of matrices multiplies matrix by
    matrix, as in ``np.matmul``.
    """
    k = a.shape[-1]
    dtype = _product_dtype(k, mod, a.size * b.shape[-1])
    if dtype is np.float64:
        af = a.astype(np.float64)
        out = np.matmul(af, af if b is a else b.astype(np.float64))
        np.fmod(out, mod, out=out)
        return out.astype(np.int64)
    if dtype is object:
        return np.matmul(a.astype(object), b.astype(object)) % mod
    out = np.matmul(a, b)
    out %= mod
    return out


# ---------------------------------------------------------------------------
# QQ reference elimination (Fractions, same pivot rule as the GF(p) kernels)
# ---------------------------------------------------------------------------


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

    GF(p): ``data`` is an int64 ndarray with entries in [0, p).
    QQ:    ``data`` is a tuple of tuples of Fraction.
    """

    __slots__ = ("field", "data", "rows", "cols")

    def __init__(self, field: Field, data, copy: bool = True, cols: Optional[int] = None):
        self.field = field
        if isinstance(field, PrimeField):
            arr = np.array(data, dtype=np.int64, copy=copy)
            if arr.ndim != 2:
                if arr.size == 0:
                    arr = arr.reshape(0, cols or 0)
                else:
                    raise ValueError("matrix data must be 2-dimensional")
            if arr.flags.writeable:
                arr %= field.p
            elif arr.size and (int(arr.min()) < 0 or int(arr.max()) >= field.p):
                arr = arr % field.p
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
    def zeros(field: Field, rows: int, cols: int) -> "Mat":
        if isinstance(field, PrimeField):
            return Mat(field, np.zeros((rows, cols), dtype=np.int64), copy=False)
        return Mat(field, [[Fraction(0)] * cols for _ in range(rows)], cols=cols)

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        if isinstance(field, PrimeField):
            return Mat(field, np.eye(n, dtype=np.int64), copy=False)
        return Mat(field, [[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @staticmethod
    def from_entries(field: Field, rows: int, cols: int, entries: dict) -> "Mat":
        """Sparse constructor: ``entries`` maps (i, j) to a value; the rest is 0."""
        buf = Mat.zeros(field, rows, cols).mutable()
        for (i, j), v in entries.items():
            _set_entry(buf, i, j, v)
        return Mat(field, buf, copy=False, cols=cols)

    @staticmethod
    def column(field: Field, vec: Sequence) -> "Mat":
        return Mat(field, [[x] for x in vec])

    @staticmethod
    def hstack(mats: Sequence["Mat"]) -> "Mat":
        mats = list(mats)
        field = mats[0].field
        if isinstance(field, PrimeField):
            return Mat(field, np.hstack([m.data for m in mats]), copy=False)
        rows = [[x for m in mats for x in m.data[i]] for i in range(mats[0].rows)]
        return Mat(field, rows, cols=sum(m.cols for m in mats))

    @staticmethod
    def vstack(mats: Sequence["Mat"]) -> "Mat":
        mats = list(mats)
        field = mats[0].field
        if isinstance(field, PrimeField):
            return Mat(field, np.vstack([m.data for m in mats]), copy=False)
        rows = [list(r) for m in mats for r in m.data]
        cols = mats[0].cols
        if not rows:
            return Mat.zeros(field, 0, cols)
        return Mat(field, rows)

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
        return Mat(field, out, copy=False)

    # -- scalar access ---------------------------------------------------
    def __getitem__(self, rc):
        r, c = rc
        x = self.data[r][c] if isinstance(self.field, RationalField) else self.data[r, c]
        return x

    def mutable(self):
        if isinstance(self.field, PrimeField):
            return np.array(self.data, copy=True)
        return [list(r) for r in self.data]

    def col(self, j: int) -> list:
        if isinstance(self.field, PrimeField):
            return self.data[:, j].tolist()
        return [r[j] for r in self.data]

    # -- arithmetic -------------------------------------------------------
    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        f = self.field
        if isinstance(f, PrimeField):
            return Mat(f, matmul_mod(self.data, other.data, f.p), copy=False)
        out = [[Fraction(0)] * other.cols for _ in range(self.rows)]
        for i, row in enumerate(self.data):
            for k, a in enumerate(row):
                if a:
                    brow = other.data[k]
                    oi = out[i]
                    for j in range(other.cols):
                        oi[j] += a * brow[j]
        return Mat(f, out, cols=other.cols)

    def __add__(self, other: "Mat") -> "Mat":
        f = self.field
        if isinstance(f, PrimeField):
            return Mat(f, (self.data + other.data) % f.p, copy=False)
        return Mat(f, [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)], cols=self.cols)

    def __sub__(self, other: "Mat") -> "Mat":
        f = self.field
        if isinstance(f, PrimeField):
            return Mat(f, (self.data - other.data) % f.p, copy=False)
        return Mat(f, [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)], cols=self.cols)

    def scale(self, c) -> "Mat":
        f = self.field
        if isinstance(f, PrimeField):
            return Mat(f, (self.data * (int(c) % f.p)) % f.p, copy=False)
        c = Fraction(c)
        return Mat(f, [[c * x for x in row] for row in self.data], cols=self.cols)

    def __neg__(self) -> "Mat":
        return self.scale(-1 if isinstance(self.field, RationalField) else self.field.p - 1)

    def reshape(self, rows: int, cols: int) -> "Mat":
        """The same entries read row-major into a rows x cols matrix."""
        if rows * cols != self.rows * self.cols:
            raise ValueError(f"cannot reshape {self.rows}x{self.cols} to {rows}x{cols}")
        if isinstance(self.field, PrimeField):
            return Mat(self.field, self.data.reshape(rows, cols), copy=False)
        flat = [x for row in self.data for x in row]
        return Mat(self.field, [flat[i * cols : (i + 1) * cols] for i in range(rows)], cols=cols)

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product: with other r x c, entry (i*r + k, j*c + l) is self[i, j] * other[k, l]."""
        f = self.field
        if isinstance(f, PrimeField):
            return Mat(f, np.kron(self.data, other.data) % f.p, copy=False)
        rows = [[a * b for a in arow for b in brow] for arow in self.data for brow in other.data]
        return Mat(f, rows, cols=self.cols * other.cols)

    def transpose(self) -> "Mat":
        if isinstance(self.field, PrimeField):
            return Mat(self.field, self.data.T, copy=False)
        if self.rows == 0:
            return Mat(self.field, [[] for _ in range(self.cols)], cols=0)
        return Mat(self.field, list(zip(*self.data)), cols=self.rows)

    def take_rows(self, idx: Iterable[int]) -> "Mat":
        idx = list(idx)
        if isinstance(self.field, PrimeField):
            return Mat(self.field, self.data[idx, :] if idx else np.zeros((0, self.cols), dtype=np.int64), copy=False)
        return Mat(self.field, [self.data[i] for i in idx], cols=self.cols)

    def take_cols(self, idx: Iterable[int]) -> "Mat":
        idx = list(idx)
        if isinstance(self.field, PrimeField):
            return Mat(self.field, self.data[:, idx] if idx else np.zeros((self.rows, 0), dtype=np.int64), copy=False)
        return Mat(self.field, [[row[j] for j in idx] for row in self.data], cols=len(idx))

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
            red, piv = _gfp.rref_mod(self.data, self.field.p)
            return Mat(self.field, red, copy=False), list(piv)
        red, piv = _rref_qq([list(r) for r in self.data])
        return Mat(self.field, red), piv

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "Mat":
        """Basis of the right null space, as columns, echelon-normalized."""
        red, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        ker = Mat.zeros(self.field, self.cols, len(free)).mutable()
        one = self.field.one()
        for k, fc in enumerate(free):
            _set_entry(ker, fc, k, one)
            for i, pc in enumerate(pivots):
                _set_entry(ker, pc, k, self.field.neg(red[i, fc]))
        return Mat(self.field, ker, copy=False)

    def solve(self, b: "Mat") -> Optional["Mat"]:
        """Some x with self @ x == b, or None when inconsistent."""
        if self.rows != b.rows:
            raise ValueError("solve: row count mismatch")
        aug = Mat.hstack([self, b])
        red, pivots = aug.rref()
        if any(p >= self.cols for p in pivots):
            return None
        x = Mat.zeros(self.field, self.cols, b.cols).mutable()
        for i, pc in enumerate(pivots):
            for j in range(b.cols):
                _set_entry(x, pc, j, red[i, self.cols + j])
        return Mat(self.field, x, copy=False)

    def inv(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        x = self.solve(Mat.identity(self.field, self.rows))
        if x is None or (self @ x) != Mat.identity(self.field, self.rows):
            raise ValueError("matrix is not invertible")
        return x

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def _set_entry(buf, i, j, v):
    if isinstance(buf, np.ndarray):
        buf[i, j] = int(v)
    else:
        buf[i][j] = v


def _assign_block(buf, r0, c0, m: Mat):
    if isinstance(buf, np.ndarray):
        buf[r0 : r0 + m.rows, c0 : c0 + m.cols] = m.data
    else:
        for i in range(m.rows):
            for j in range(m.cols):
                buf[r0 + i][c0 + j] = m.data[i][j]


# ---------------------------------------------------------------------------
# top-level operations
# ---------------------------------------------------------------------------


def mat_kernel(m: Mat) -> Mat:
    """Columns spanning {v : m v = 0}; count = cols - rank."""
    return m.kernel()


def mat_solve(a: Mat, b: Mat) -> Optional[Mat]:
    """Deterministic solution of a x = b, or None when inconsistent."""
    return a.solve(b)


def lift_idempotent(e0: Mat, nil_bound: int) -> Mat:
    """Lift an approximate idempotent along a nilpotent defect.

    Iterates e <- 3e^2 - 2e^3, which squares the defect e^2 - e each step;
    the caller guarantees the defect lies in a nilpotent ideal of index at
    most ``nil_bound``.
    """
    if e0.rows != e0.cols:
        raise ValueError("idempotent lifting needs a square matrix")
    e = e0
    for _ in range(2 * max(nil_bound, 1)):
        e2 = e @ e
        if e2 == e:
            return e
        e = (e2.scale(3)) - ((e2 @ e).scale(2))
    e2 = e @ e
    if e2 == e:
        return e
    raise ArithmeticError("idempotent lifting did not stabilize; defect not nilpotent?")


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
        n, f = len(self.mats), self.field
        if isinstance(f, PrimeField):
            # one GEMM over all pairs: block (a, b) of the (n*t x n*t) product
            # of the stacked rows and the side-by-side columns is mats[a] @ mats[b]
            (t, u), stack = self.shape, np.stack([m.data for m in self.mats])
            prods = matmul_mod(stack.reshape(n * t, u), stack.transpose(1, 0, 2).reshape(u, n * u), f.p)
            ri, rk = np.divmod(self.rows, u)
            flat = prods.reshape(n, t, n, u)[:, ri, :, rk].reshape(len(self.rows), n * n)
            del prods
            return (self.square_inv @ Mat(f, flat, copy=False)).transpose()
        return self.coords_many([a @ b for a in self.mats for b in self.mats]).transpose()


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
            self.basis = red.take_rows(range(len(piv)))
            self.pivots = piv
        self.nonpivots = [c for c in range(ambient) if c not in set(self.pivots)]

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

    def quotient_dim(self) -> int:
        return self.ambient - self.dim
