"""Dense exact linear algebra over GF(p) and QQ.

A matrix is a read-only 2-dimensional ndarray ``data`` and one positive
integer ``den``; its entries are data / den.

GF(p) matrices are float64 arrays of integers in [0, p) with den = 1, as in
FFLAS-FFPACK's ``Modular<double>`` (Dumas, Giorgi, Pernet, ACM TOMS 35(3),
2008): products run on float64 BLAS with no conversion, and every reduction
modulo p is one exact kernel, ``_reduce``.  Every product of stored arrays
goes through ``_matmul``: ``matmul_mod`` over GF(p), which also takes the
radical chain's wider moduli, and the numerators' product over QQ.  Row
reduction is one numpy routine, ``_rref_gfp``.

QQ matrices are object arrays of Python-int numerators over one common
denominator, as in Sage's ``Matrix_rational_dense`` and FLINT's ``fmpq_mat``.
The form is canonical: the gcd of den and all numerators is 1, so the zero
matrix has den = 1 and equal matrices have equal storage.  Python ints do
not overflow, so QQ arithmetic has no bound to check.  A product is one
numerator product over den_a * den_b, and row reduction, ``_rref_qq``, is
fraction-free on the numerators.  Other modules stay off the storage: they
build and reshape matrices through Mat's field-neutral operations and take
coordinates through Subspace or the free rows that ``Mat.kernel_with_free``
reports: a kernel basis is the identity on its free rows, so a span of
matrices built as a kernel reads its coordinates at a frame of entries, and
``frame_products`` reads its structure constants there.

The public constructor ``Mat(...)`` checks data from outside the program: it
reduces GF(p) entries mod p as integers, before they become float64, and
brings QQ entries to one denominator.  Results of the operations here skip
those checks: they are built by ``_trusted`` and ``_canonical``
(``Mat.from_reduced`` outside this module), which neither copy, reduce nor
coerce.  Entries leave as Python ints over GF(p) and as Fractions over QQ
(``Mat.__getitem__``), so nothing downstream prints a float.

Everything here is deterministic: identical inputs give bit-identical
outputs (leftmost pivot columns, topmost pivot rows).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

import numpy as np

from ..fields import Field, PrimeField, RationalField, as_fraction
from ..memo import memo

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


def _mod(field: Field, x: np.ndarray) -> np.ndarray:
    """Stored integers x reduced in place over GF(p) (0 <= x < 2^51, as for
    ``_reduce``); QQ numerators are returned as they are."""
    return _reduce(x, field.p) if isinstance(field, PrimeField) else x


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
    with (mod-1)^2 >= 2^51 (the radical chain's p^(l+1) at large p) fit no
    term in a chunk: they multiply on int64 while k (mod-1)^2 < 2^63, on
    Python ints beyond, and return reduced as float64, which holds every
    residue while mod <= 2^53; wider moduli raise.  The chain's stay below
    m p^2 < 2^53 for a representation of dimension m < 2^13 at p < 2^20.
    """
    k = a.shape[-1]
    if k * (mod - 1) ** 2 < _EXACT:
        return _reduce(np.matmul(a, b), mod)
    step = _chunk_length(mod)
    if step < 1:
        if mod > 2**53:
            raise OverflowError(f"modulus {mod} is too wide for float64 residues")
        # float64 -> object directly would give Python floats
        a, b = a.astype(np.int64), b.astype(np.int64)
        if k * (mod - 1) ** 2 >= 2**63:
            a, b = a.astype(object), b.astype(object)
        return (np.matmul(a, b) % mod).astype(np.float64)
    out = _reduce(np.matmul(a[..., :step], b[..., :step, :]), mod)
    for s in range(step, k, step):
        out += _reduce(np.matmul(a[..., s : s + step], b[..., s : s + step, :]), mod)
    return _reduce(out, mod)


def _matmul(field: Field, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b on stored arrays: ``matmul_mod`` over GF(p), the numerators'
    product over QQ (its denominator is the product of theirs)."""
    return matmul_mod(a, b, field.p) if isinstance(field, PrimeField) else np.matmul(a, b)


def _negated(field: Field, x: np.ndarray) -> np.ndarray:
    """-x on stored integers, as a new array: p - x over GF(p), in (0, p]
    and not reduced; -x over QQ."""
    return float(field.p) - x if isinstance(field, PrimeField) else -x


# ---------------------------------------------------------------------------
# row reduction
# ---------------------------------------------------------------------------

# Both eliminations follow one pivot rule: the leftmost column with a nonzero
# entry at or below the current row, the topmost such row as pivot row, and
# the column cleared above and below.  They return the reduced row echelon
# form (pivots 1; over QQ as numerators over one denominator) and its pivot
# columns.


def _rref_gfp(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    # entries of ``a`` lie in [0, p); a pivot row times an inverse is below
    # p^2, and the update a + c*(p - b) of a row by a column entry c and the
    # pivot row b is nonnegative and below p^2 <= 2^40 for p <= PrimeField.MAX_P,
    # inside ``_reduce``'s bound
    #
    # Only columns >= c change at pivot (r, c).  Rows r and below vanish left
    # of c: each column left of c was cleared below its pivot, or had no
    # nonzero entry at or below the row it was reached at, and every later
    # step adds multiples of a pivot row that vanishes there too (this same
    # argument, one step earlier).  So the pivot row vanishes left of c, and
    # the update x + f*(p - 0) = x + f*p of an entry left of c reduces to x:
    # skipping those columns gives bit-identical output.
    a = a.copy()
    rows, cols = a.shape
    pf = float(p)
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = a[r:, c].nonzero()[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            top = a[r, c:].copy()
            a[r, c:] = a[pr, c:]
            a[pr, c:] = top
        row = a[r, c:]  # a view: scaled in place
        inv = pow(int(row[0]), p - 2, p)
        if inv != 1:
            row *= float(inv)
            _reduce(row, p)
        col = a[:, c].copy()
        col[r] = 0
        nzrows = col.nonzero()[0]
        if nzrows.size:
            a[nzrows, c:] = _reduce(a[nzrows, c:] + col[nzrows, None] * (pf - row), p)
        pivots.append(c)
        r += 1
    return a, pivots


def _rref_qq(a: np.ndarray) -> tuple[np.ndarray, int, list[int]]:
    """Fraction-free elimination on a QQ matrix's numerators (its common
    denominator does not change the reduced form).

    Rows are rescaled by nonzero integers, never divided into fractions: the
    pivot row is made primitive (its content divided out) with a positive
    pivot, and a row with entry f in the pivot column becomes piv * row -
    f * pivot row, divided by its content when piv != 1 so that entries stay
    small (content division, the alternative to Bareiss's exact division,
    Math. Comp. 22, 1968).  Each pivot row ends as a multiple piv_i of its
    reduced row, so the reduced form is the rows scaled to the common
    denominator lcm(piv_i).  Returns those numerators, not yet canonical, the
    denominator and the pivot columns.

    The rows are Python lists: QQ matrices here are small (most below
    10 x 10), where a list pass costs less than a numpy call on an object
    array: replayed on the 3,885 eliminations of the ``cover_qq``
    benchmark's solve (2-core x86 VM), the lists take about 55% of the time
    of the same steps on object arrays.
    """
    m = a.tolist()
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        row = m[r]
        piv = row[c]
        if piv != 1:
            g = math.gcd(*row) if piv != -1 else 1
            g = g if piv > 0 else -g
            if g != 1:
                row = m[r] = [x // g for x in row]
                piv = row[c]
        for i, other in enumerate(m):
            f = other[c]
            if f and i != r:
                if piv == 1:
                    m[i] = [x - f * y for x, y in zip(other, row)]
                else:
                    new = [piv * x - f * y for x, y in zip(other, row)]
                    g = math.gcd(*new)
                    m[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
        r += 1
    den = math.lcm(*(m[i][c] for i, c in enumerate(pivots)))
    for i, c in enumerate(pivots):
        if m[i][c] != den:
            s = den // m[i][c]
            m[i] = [x * s for x in m[i]]
    return np.array(m, dtype=object), den, pivots


# the storage dtype of each field kind
_DTYPE = {"prime": np.float64, "rationals": object}


class Mat:
    """Immutable dense matrix over a Field: the entries are ``data / den``.

    GF(p): ``data`` is a read-only float64 ndarray holding integers in
           [0, p) and ``den`` is 1; entries are read out as Python ints.
    QQ:    ``data`` is a read-only object ndarray of Python-int numerators
           over the positive int ``den``, in canonical form (the gcd of den
           and every numerator is 1); entries are read out as Fractions.

    ``Mat(field, data)`` is for data from outside the program and checks it:
    GF(p) entries are reduced mod p as integers of any size into a new
    array, QQ entries are brought to one denominator, and data that is not
    2-dimensional or has ragged rows is rejected.  Every operation below
    builds its result with ``_trusted`` or ``_canonical`` instead, which skip
    those checks because their data is already in stored form;
    ``Mat.from_reduced`` is that entry point for the callers outside this
    module that compute on the storage.
    """

    __slots__ = ("field", "data", "den", "rows", "cols")

    def __init__(self, field: Field, data, cols: Optional[int] = None):
        self.field = field
        if isinstance(field, PrimeField):
            arr, den = _reduce_outside(data, field.p), 1
        else:
            arr, den = _rationals_outside(data)
        if arr.ndim != 2:
            if arr.size == 0:
                arr = arr.reshape(0, cols or 0)
            else:
                raise ValueError("matrix data must be 2-dimensional")
        arr.setflags(write=False)
        self.data, self.den = arr, den
        self.rows, self.cols = arr.shape

    # -- constructors ----------------------------------------------------
    @staticmethod
    def from_reduced(field: Field, data: np.ndarray, den: int = 1) -> "Mat":
        """A Mat on data already in stored form, not copied, reduced or
        coerced (made read-only): over GF(p) a float64 array of integers in
        [0, p), over QQ an object array of Python-int numerators over the
        positive int ``den``, which is brought to canonical form here."""
        if data.dtype != _DTYPE[field.kind]:
            raise TypeError(f"{field} data must be {np.dtype(_DTYPE[field.kind])}, not {data.dtype}")
        return _canonical(field, data, den)

    @staticmethod
    def zeros(field: Field, rows: int, cols: int) -> "Mat":
        return _trusted(field, np.zeros((rows, cols), _DTYPE[field.kind]))

    @staticmethod
    def identity(field: Field, n: int) -> "Mat":
        return _trusted(field, np.eye(n, dtype=_DTYPE[field.kind]))

    @staticmethod
    def from_entries(field: Field, rows: int, cols: int, entries: dict) -> "Mat":
        """Sparse constructor: ``entries`` maps (i, j) to a value; the rest is 0.

        Each value is normalized as a Python int (GF(p), reduced before it is
        stored) or a Fraction (QQ, brought to the common denominator).
        """
        values = [(i, j, field.normalize(v)) for (i, j), v in entries.items()]
        # a Python int is its own numerator over the denominator 1
        den = math.lcm(*(v.denominator for _, _, v in values))
        buf = np.zeros((rows, cols), _DTYPE[field.kind])
        for i, j, v in values:
            buf[i, j] = v.numerator * (den // v.denominator)
        return _trusted(field, buf, den)

    @staticmethod
    def column(field: Field, vec: Sequence) -> "Mat":
        return Mat(field, [[x] for x in vec])

    @staticmethod
    def hstack(mats: Sequence["Mat"]) -> "Mat":
        mats = list(mats)
        den, parts = _over_common_den(mats)
        # 2-dimensional parts: concatenate is hstack without its atleast_2d calls
        return _trusted(mats[0].field, np.concatenate(parts, axis=1), den)

    @staticmethod
    def vstack(mats: Sequence["Mat"]) -> "Mat":
        mats = list(mats)
        den, parts = _over_common_den(mats)
        return _trusted(mats[0].field, np.concatenate(parts, axis=0), den)

    @staticmethod
    def block_diag(field: Field, mats: Sequence["Mat"]) -> "Mat":
        den, parts = _over_common_den(mats)
        out = np.zeros((sum(m.rows for m in mats), sum(m.cols for m in mats)), _DTYPE[field.kind])
        r = c = 0
        for part in parts:
            out[r : r + part.shape[0], c : c + part.shape[1]] = part
            r += part.shape[0]
            c += part.shape[1]
        return _trusted(field, out, den)

    # -- scalar access ---------------------------------------------------
    def __getitem__(self, rc):
        r, c = rc
        return Fraction(self.data[r, c], self.den) if isinstance(self.field, RationalField) else int(self.data[r, c])

    def nonzero_entries(self) -> list[tuple[int, int, object]]:
        """(i, j, entry) for every nonzero entry in row-major order, as
        Python ints (and Fractions over QQ)."""
        rows, cols = np.nonzero(self.data)
        return list(zip(rows.tolist(), cols.tolist(), _entries(self.field, self.data[rows, cols], self.den)))

    def mutable(self) -> np.ndarray:
        """A writable copy of ``data`` (over QQ the numerators over ``den``)."""
        return np.array(self.data, copy=True)

    # -- arithmetic -------------------------------------------------------
    def __matmul__(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        f = self.field
        return _canonical(f, _matmul(f, self.data, other.data), self.den * other.den)

    def __add__(self, other: "Mat") -> "Mat":
        f = self.field
        den, (x, y) = _over_common_den([self, other])
        return _canonical(f, _mod(f, x + y), den)

    def __sub__(self, other: "Mat") -> "Mat":
        f = self.field
        den, (x, y) = _over_common_den([self, other])
        # in place on the new array: x + _negated(f, y) holds one more temporary
        diff = _negated(f, y)
        diff += x
        return _canonical(f, _mod(f, diff), den)

    def scale(self, c) -> "Mat":
        # a normalized GF(p) scalar is an int, its own numerator over 1
        f = self.field
        c = f.normalize(c)
        return _canonical(f, _mod(f, self.data * c.numerator), self.den * c.denominator)

    def __neg__(self) -> "Mat":
        return self.scale(-1)

    def reshape(self, rows: int, cols: int) -> "Mat":
        """The same entries read row-major into a rows x cols matrix."""
        if rows * cols != self.rows * self.cols:
            raise ValueError(f"cannot reshape {self.rows}x{self.cols} to {rows}x{cols}")
        return _trusted(self.field, self.data.reshape(rows, cols), self.den)

    def permute(self, shape: Sequence[int], axes: Sequence[int]) -> "Mat":
        """The entries read row-major as an array of ``shape``, its axes put
        in the order ``axes`` and read back row-major, the first axis giving
        the rows: shape (rows, cols) with axes (1, 0) gives the transpose.
        The entries are moved, not changed, so the storage stays canonical;
        the result is a copy unless the order is unchanged."""
        arr = self.data.reshape(shape).transpose(axes)
        return _trusted(self.field, arr.reshape(arr.shape[0], math.prod(arr.shape[1:])), self.den)

    def kron(self, other: "Mat") -> "Mat":
        """Kronecker product: with other r x c, entry (i*r + k, j*c + l) is self[i, j] * other[k, l]."""
        f = self.field
        return _canonical(f, _mod(f, np.kron(self.data, other.data)), self.den * other.den)

    def transpose(self) -> "Mat":
        return _trusted(self.field, self.data.T, self.den)

    def take_rows(self, idx: Iterable[int]) -> "Mat":
        """The rows ``idx`` in that order.  A ``range`` with step >= 1 gives
        a read-only view, which keeps all of ``self`` alive (over QQ unless
        the rows have a smaller denominator); any other sequence gives a
        copy."""
        if isinstance(idx, range) and idx.step > 0 and idx.start >= 0:
            return _canonical(self.field, self.data[idx.start : idx.stop : idx.step], self.den)
        return _canonical(self.field, self.data[list(idx)], self.den)

    def take_cols(self, idx: Iterable[int]) -> "Mat":
        # np.take copies columns about twice as fast as data[:, idx]
        return _canonical(self.field, np.take(self.data, list(idx), axis=1), self.den)

    # -- predicates -------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.data.any()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Mat) or self.field != other.field:
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        # canonical storage: equal matrices have equal den and numerators
        return self.den == other.den and bool(np.array_equal(self.data, other.data))

    def __hash__(self):
        # the bytes of an object array are pointers, not values
        values = tuple(self.data.flat) if isinstance(self.field, RationalField) else self.data.tobytes()
        return hash((self.field.key(), self.rows, self.cols, self.den, values))

    def __repr__(self) -> str:
        return f"Mat({self.field}, {self.rows}x{self.cols})"

    # -- elimination -------------------------------------------------------
    def rref(self) -> tuple["Mat", list[int]]:
        if self.rows == 0 or self.cols == 0:
            return self, []
        if isinstance(self.field, PrimeField):
            red, piv = _rref_gfp(self.data, self.field.p)
            return _trusted(self.field, red), piv
        red, den, piv = _rref_qq(self.data)
        return _canonical(self.field, red, den), piv

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> "Mat":
        """Basis of the right null space, as columns, echelon-normalized."""
        return self.kernel_with_free()[0]

    def kernel_with_free(self) -> tuple["Mat", list[int]]:
        """``kernel`` and its free rows, from the same elimination: row
        free[k] of the basis is the unit row e_k, so the coordinates of a
        null vector in the basis are its entries on those rows."""
        red, pivots = self.rref()
        pivot_set = set(pivots)
        free = [c for c in range(self.cols) if c not in pivot_set]
        # column k: 1 in row free[k], minus red[i, free[k]] in row pivots[i];
        # most kernels are of matrices with a few columns, and skipping the
        # empty writes keeps those as cheap as an entry-by-entry loop
        ker = np.zeros((self.cols, len(free)), red.data.dtype)
        if free:
            ker[free, np.arange(len(free))] = red.den
            if pivots:
                ker[pivots] = _mod(self.field, _negated(self.field, red.data[: len(pivots), free]))
        return _canonical(self.field, ker, red.den), free

    def solve(self, b: "Mat") -> Optional["Mat"]:
        """Some x with self @ x == b, or None when inconsistent."""
        if self.rows != b.rows:
            raise ValueError("solve: row count mismatch")
        aug = Mat.hstack([self, b])
        red, pivots = aug.rref()
        if any(p >= self.cols for p in pivots):
            return None
        x = np.zeros((self.cols, b.cols), red.data.dtype)
        x[pivots] = red.data[: len(pivots), self.cols :]
        return _canonical(self.field, x, red.den)

    def inv(self) -> "Mat":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        x = self.solve(Mat.identity(self.field, self.rows))
        if x is None or (self @ x) != Mat.identity(self.field, self.rows):
            raise ValueError("matrix is not invertible")
        return x

    def is_invertible(self) -> bool:
        return self.rows == self.cols and self.rank() == self.rows


def _entries(field: Field, data: np.ndarray, den: int):
    """Stored entries as Python ints over GF(p), as Fractions over QQ."""
    values = data.tolist()
    return [Fraction(v, den) for v in values] if isinstance(field, RationalField) else map(int, values)


def _trusted(field: Field, data: np.ndarray, den: int = 1) -> Mat:
    """A Mat on data that linalg built, already in stored form: a reduced
    float64 array over GF(p); over QQ numerators over ``den`` in canonical
    form.

    Unlike ``Mat(...)`` nothing is copied, reduced or coerced: the array is
    made read-only.
    """
    m = Mat.__new__(Mat)
    m.field = field
    data.setflags(write=False)
    m.data, m.den = data, den
    m.rows, m.cols = data.shape
    return m


def _canonical(field: Field, data: np.ndarray, den: int) -> Mat:
    """``_trusted`` on numerators over ``den`` that may share a factor with
    it: the gcd of den and every numerator is divided out first.  A den of 1,
    as over GF(p) and in every integral QQ product, is canonical already."""
    if den != 1:
        g = math.gcd(den, *data.flat)
        if g != 1:
            data, den = data // g, den // g
    return _trusted(field, data, den)


def _over_common_den(mats: Sequence[Mat]) -> tuple[int, list[np.ndarray]]:
    """The lcm of the denominators of ``mats`` and their numerators over it.

    Stacked side by side or on top, these are canonical: every prime power
    of the lcm is that of some part's den, and that part has a numerator
    prime to it, scaled by a cofactor prime to it.
    """
    den = math.lcm(*[m.den for m in mats])
    return den, [m.data if m.den == den else m.data * (den // m.den) for m in mats]


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


def _rationals_outside(data) -> tuple[np.ndarray, int]:
    """Outside rows of rationals as a new object array of Python-int
    numerators over one denominator, in canonical form.

    Each entry becomes a reduced Fraction; the denominator is the lcm of
    theirs, which is canonical (every prime power of the lcm is that of some
    entry's denominator, and that entry's numerator is prime to it).
    """
    rows = [[as_fraction(x) for x in row] for row in data]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("ragged matrix data")
    den = math.lcm(*(x.denominator for row in rows for x in row))
    return np.array([[x.numerator * (den // x.denominator) for x in row] for row in rows], dtype=object), den


def frame_products(mats: Mat, mats_g: Mat, rows: Sequence[int], cols: Sequence[int]) -> "Triples":
    """Structure constants of a basis X_0..X_(n-1) of m x m matrices closed
    under products, whose coordinates are read at a frame: coordinate k of
    an X in the span is entry (rows[k], cols[k]) of X G.  ``mats`` stacks
    the X_a (n*m x m) and ``mats_g`` the X_b G (n*m x g), which may be
    ``mats`` itself when G = I; the triple (a, b, k) holds coordinate k of
    X_a X_b.

    Entry (i, c) of X_a X_b G sums X_a[i, l] (X_b G)[l, c] over l.  So the
    nonzero entries (a, i, l) of the X_a are joined with the nonzero entries
    (b, l, c) of the X_b G on l, keeping the terms whose (i, c) is a frame
    position; no product is formed whole.  Each kept term goes to its cell
    (a n + b) n + k; one sort brings the terms of a cell together, in
    row-major (a, b, k) order, one segment sum adds each run up and the
    zero sums are dropped, so nothing larger than the terms is held.  Each
    term is reduced below p first, and a cell has at most m terms, one for
    each l: its sum stays below m p < 2^51 over GF(p).
    """
    field, m, g = mats.field, mats.cols, mats_g.cols
    n = mats.rows // m
    frame = np.full(m * g, -1)
    frame[np.asarray(rows, dtype=np.intp) * g + np.asarray(cols, dtype=np.intp)] = np.arange(n)
    # entry e of the left is (row[e], inner[e]) of X_(mat[e]), entry f of
    # the right is (inner_g[f], col_g[f]) of X_(mat_g[f]) G
    flat_row, inner = np.nonzero(mats.data)
    value = mats.data[flat_row, inner]
    mat, row = np.divmod(flat_row, m)
    if mats_g is mats:
        mat_g, inner_g, col_g, value_g = mat, row, inner, value
    else:
        flat_row_g, col_g = np.nonzero(mats_g.data)
        value_g = mats_g.data[flat_row_g, col_g]
        mat_g, inner_g = np.divmod(flat_row_g, m)
    # left entry e meets the count[inner[e]] right entries of that inner
    # index, which sit at first[inner[e]] onwards in order of inner index
    by_inner = np.argsort(inner_g, kind="stable")
    count = np.bincount(inner_g, minlength=m)
    first = np.cumsum(count) - count
    reps = count[inner]
    left = np.repeat(np.arange(inner.size), reps)
    right = by_inner[np.arange(left.size) - np.repeat(np.cumsum(reps) - reps, reps) + first[inner[left]]]
    target = frame[row[left] * g + col_g[right]]
    keep = target >= 0
    left, right = left[keep], right[keep]
    cell = (mat[left] * n + mat_g[right]) * n + target[keep]
    order = np.argsort(cell)
    cell = cell[order]
    start = np.flatnonzero(np.diff(cell, prepend=-1))
    sums = _mod(field, np.add.reduceat(_mod(field, value[left[order]] * value_g[right[order]]), start))
    nonzero = sums != 0
    coords = _canonical(field, sums[nonzero].reshape(1, -1), mats.den * mats_g.den)
    ij, k = np.divmod(cell[start[nonzero]], n)
    return Triples(*np.divmod(ij, n), k, coords.data[0], coords.den)


def _slots(keys: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``keys`` (integers in [0, size)), increasing,
    and the index of each key among them: ``np.unique(keys,
    return_inverse=True)`` by one mask, whose first call alone raised a
    process's peak RSS by 0.6 MB."""
    present = np.zeros(size, bool)
    present[keys] = True
    return np.flatnonzero(present), np.cumsum(present)[keys] - 1


class Triples(NamedTuple):
    """Structure constants of an algebra with basis b_0 .. b_(n-1) as COO
    triples: c_ijk = data[t] / den for the entry t with (i[t], j[t], k[t]) =
    (i, j, k), and every constant not listed is 0.

    ``data`` is in stored form: over GF(p) float64 integers in [0, p) and
    den = 1, over QQ Python-int numerators over ``den``, with the gcd of den
    and the numerators 1.  No entry is 0 and no (i, j, k) repeats.  Builders
    sort the entries in row-major (i, j, k) order; the opposite algebra swaps
    the i and j arrays, which leaves them in (j, i, k) order, so readers that
    need an order sort for it.
    """

    i: np.ndarray
    j: np.ndarray
    k: np.ndarray
    data: np.ndarray
    den: int

    @staticmethod
    def from_entries(field: Field, n: int, entries: dict) -> "Triples":
        """The constants of a dict mapping (i*n + j, k) to c_ijk, the layout
        of ``Mat.from_entries`` on the (n^2 x n) structure; each value is
        normalized as there, and zeros are left out."""
        cells = [(key, v) for key, raw in sorted(entries.items()) if (v := field.normalize(raw)) != 0]
        den = math.lcm(*(v.denominator for _, v in cells))
        ij, k = (np.array([key[c] for key, _ in cells], dtype=np.intp) for c in (0, 1))
        data = np.array([v.numerator * (den // v.denominator) for _, v in cells], dtype=_DTYPE[field.kind])
        return Triples(*np.divmod(ij, n), k, data, den)

    @staticmethod
    def from_rows(keys: np.ndarray, coords: Mat, n: int) -> "Triples":
        """The nonzero entries of ``coords``, whose row t holds the
        coordinates of b_i b_j for keys[t] = i*n + j, increasing."""
        r, k = np.nonzero(coords.data)
        i, j = np.divmod(keys[r], n)
        return Triples(i, j, k, coords.data[r, k], coords.den)

    def entries(self, field: Field) -> list[tuple[int, int, int, object]]:
        """(i, j, k, c_ijk) for every stored constant in row-major order, as
        Python ints (and Fractions over QQ)."""
        order = np.lexsort((self.k, self.j, self.i))
        indices = (self.i[order].tolist(), self.j[order].tolist(), self.k[order].tolist())
        return list(zip(*indices, _entries(field, self.data[order], self.den)))

    def to_mat(self, field: Field, n: int) -> Mat:
        """The dense (n^2 x n) Mat whose row i*n + j holds the coordinates of b_i b_j."""
        out = np.zeros((n * n, n), self.data.dtype)
        out[self.i * n + self.j, self.k] = self.data
        return _trusted(field, out, self.den)


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

    def _spanned(self, coeff: Mat) -> Mat:
        """The non-pivot columns of coeff @ basis.  The basis has the
        identity on the pivot columns, so row vectors lie in S exactly when
        their non-pivot columns equal this for coeff = their pivot columns,
        and the difference is the non-pivot part of ``reduce``."""
        return coeff @ memo(self, "_free_basis", lambda: self.basis.take_cols(self.nonpivots))

    def contains(self, vecs: Mat) -> bool:
        return self.coords(vecs) is not None

    def coords(self, vecs: Mat) -> Optional[Mat]:
        """Coordinates of row vectors in the reduced basis, or None."""
        coeff = vecs.take_cols(self.pivots)
        inside = vecs.is_zero() if self.dim == 0 else vecs.take_cols(self.nonpivots) == self._spanned(coeff)
        return coeff if inside else None

    def quotient_coords(self, vecs: Mat) -> Mat:
        """Canonical coordinates of row vectors in k^n / S."""
        free = vecs.take_cols(self.nonpivots)
        return free if self.dim == 0 else free - self._spanned(vecs.take_cols(self.pivots))


def restrict_action(flat: Mat, vecs: Mat, coords: Callable[[Mat], Optional[Mat]]) -> Optional[Mat]:
    """Square d x d matrices g_1..g_r, row i of ``flat`` holding g_i read
    row-major, restricted to k row vectors v_t: row i of the result is the
    k x k matrix whose column t holds the coordinates of g_i v_t, read
    row-major.

    Every image comes from one product and all coordinates from one call of
    ``coords``: ``Subspace.coords`` of a subspace the v_t span (a
    submodule), or ``Subspace.quotient_coords`` with v_t the section of a
    quotient.  None when ``coords`` is None: the span is not invariant.
    """
    r, (k, d) = flat.rows, (vecs.rows, vecs.cols)
    # [g_1^T | ... | g_r^T] is the transposed stack; row t*r + i: (g_i v_t)^T
    images = (vecs @ flat.reshape(r * d, d).transpose()).reshape(k * r, d)
    c = coords(images)
    # entry s of row t*r + i is entry (s, t) of restricted matrix i
    return None if c is None else c.permute((k, r, k), (1, 2, 0))


def transposed_action(flat: Mat) -> Mat:
    """Each row of an (r x d^2) ``flat``, read as a d x d matrix, transposed:
    one batched transpose."""
    d = math.isqrt(flat.cols)
    return flat.permute((flat.rows, d, d), (0, 2, 1))


def block_diag_action(flats: Sequence[Mat]) -> Mat:
    """Row i of the result is the block-diagonal matrix of the rows i of
    ``flats``, each read as a square matrix, read row-major: every summand
    is written into one (r, D, D) array."""
    den, parts = _over_common_den(flats)
    sizes = [math.isqrt(f.cols) for f in flats]
    r, total = flats[0].rows, sum(sizes)
    out = np.zeros((r, total, total), parts[0].dtype)
    offset = 0
    for part, d in zip(parts, sizes):
        out[:, offset : offset + d, offset : offset + d] = part.reshape(r, d, d)
        offset += d
    return _trusted(flats[0].field, out.reshape(r, total * total), den)


def unstack(flat: Mat) -> list[Mat]:
    """The rows of an (r x d^2) ``flat`` as d x d matrices, read row-major."""
    d = math.isqrt(flat.cols)
    return [flat.take_rows(range(i, i + 1)).reshape(d, d) for i in range(flat.rows)]


def stacked_products(a: Mat, b: Mat, count: int) -> Mat:
    """Block k of a (count*r x x) times block k of b (count*x x s), for each
    k < count, stacked the same way (count*r x s): one batched product."""
    f, r, x, s = a.field, a.rows // count, a.cols, b.cols
    lhs, rhs = a.data.reshape(count, r, x), b.data.reshape(count, x, s)
    return _canonical(f, _matmul(f, lhs, rhs).reshape(count * r, s), a.den * b.den)
