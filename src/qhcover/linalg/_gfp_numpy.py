"""Pure-numpy GF(p) row reduction: fallback for the compiled extension.

Both backends implement the exact same elimination (leftmost pivot column,
topmost nonzero pivot row, pivot normalized to 1, full reduction above and
below), so results are bit-identical whichever one is loaded.  Products do
not depend on the backend: they all go through ``linalg.matmul_mod``.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def rref_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of ``a`` over GF(p).

    Returns a new array together with the list of pivot columns.
    """
    a = np.array(a, dtype=np.int64, copy=True) % p
    rows, cols = a.shape
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
        inv = pow(int(a[r, c]), p - 2, p)
        if inv != 1:
            a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        nzrows = np.nonzero(col)[0]
        if nzrows.size:
            a[nzrows] = (a[nzrows] - np.outer(col[nzrows], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots

