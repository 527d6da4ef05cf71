"""Benchmark the GF(p) kernels: compiled extension vs numpy fallback.

Run:  python3 benchmarks/bench_linalg.py

Times row reduction with each backend and the one product path
(``matmul_mod``) on random matrices, and an end-to-end workload (the
dominant dimension of the zigzag algebra A_4) with each backend forced in
turn.
"""

from __future__ import annotations

import time

import numpy as np

import qhcover.linalg as L
from qhcover.linalg import gfp_backends, matmul_mod


def bench_rref(backend, p: int, sizes, rng) -> dict:
    out = {}
    for n in sizes:
        a = rng.integers(0, p, size=(n, n))
        t0 = time.perf_counter()
        backend.rref_mod(a, p)
        out[n] = time.perf_counter() - t0
    return out


def bench_matmul(p: int, sizes, rng) -> dict:
    out = {}
    for n in sizes:
        a = rng.integers(0, p, size=(n, n))
        b = rng.integers(0, p, size=(n, n))
        t0 = time.perf_counter()
        for _ in range(5):
            matmul_mod(a, b, p)
        out[n] = (time.perf_counter() - t0) / 5
    return out


def bench_end_to_end(backend_module) -> float:
    """domdim(A_4) with the given kernel module patched in."""
    import qhcover.gallery
    import qhcover.reldim

    original = L._gfp
    L._gfp = backend_module
    try:
        t0 = time.perf_counter()
        g = qhcover.gallery.build_am(4, __import__("qhcover.fields", fromlist=["GF"]).GF(3))
        v, _ = qhcover.reldim.classical_domdim(g.algebra, 10)
        assert str(v.value) == "Exact(6)"
        return time.perf_counter() - t0
    finally:
        L._gfp = original


def main() -> None:
    backends = gfp_backends()
    rng = np.random.default_rng(0)
    sizes = (50, 150, 400, 800)
    print(f"active backend: {L.GFP_BACKEND}")
    rows = {}
    for name in ("numpy", "cython"):
        if name not in backends:
            print(f"(no {name} backend available)")
            continue
        rows[name] = bench_rref(backends[name], 3, sizes, np.random.default_rng(0))
    matmul = bench_matmul(3, sizes, np.random.default_rng(0))
    header = f"{'n':>6} | " + " | ".join(f"{name} rref (s)" for name in rows) + " | matmul_mod (s)"
    print(header)
    for n in sizes:
        cells = " | ".join(f"{rows[name][n]:.4f}" for name in rows)
        print(f"{n:>6} | {cells} | {matmul[n]:.4f}")
    for name in rows:
        t = bench_end_to_end(backends["numpy"] if name == "numpy" else backends[name])
        print(f"end-to-end domdim(A_4) with {name}: {t:.2f}s")


if __name__ == "__main__":
    main()
