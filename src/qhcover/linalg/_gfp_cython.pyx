# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled GF(p) row reduction on int64 arrays.

Mirrors _gfp_numpy exactly (same pivot rule, same normalization) so the two
backends are interchangeable; see benchmarks/bench_linalg.py for a speed
comparison.
"""

import numpy as np
cimport numpy as cnp

cnp.import_array()

BACKEND = "cython"


cdef long long _inv_mod(long long a, long long p):
    # Fermat: p is prime and a != 0 mod p.
    cdef long long result = 1
    cdef long long base = a % p
    cdef long long e = p - 2
    while e > 0:
        if e & 1:
            result = (result * base) % p
        base = (base * base) % p
        e >>= 1
    return result


def rref_mod(a, long long p):
    """Reduced row echelon form over GF(p); returns (array, pivot columns)."""
    cdef cnp.ndarray[cnp.int64_t, ndim=2] m = np.array(a, dtype=np.int64, copy=True)
    cdef Py_ssize_t rows = m.shape[0]
    cdef Py_ssize_t cols = m.shape[1]
    cdef Py_ssize_t r = 0, c, i, j, pr
    cdef long long piv, inv, factor, tmp
    pivots = []
    for i in range(rows):
        for j in range(cols):
            m[i, j] = m[i, j] % p
    for c in range(cols):
        if r == rows:
            break
        pr = -1
        for i in range(r, rows):
            if m[i, c] != 0:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            for j in range(cols):
                tmp = m[r, j]
                m[r, j] = m[pr, j]
                m[pr, j] = tmp
        piv = m[r, c]
        if piv != 1:
            inv = _inv_mod(piv, p)
            for j in range(cols):
                m[r, j] = (m[r, j] * inv) % p
        for i in range(rows):
            if i == r:
                continue
            factor = m[i, c]
            if factor != 0:
                for j in range(cols):
                    m[i, j] = (m[i, j] - factor * m[r, j]) % p
                    if m[i, j] < 0:
                        m[i, j] += p
        pivots.append(c)
        r += 1
    return np.asarray(m), pivots

