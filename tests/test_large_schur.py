"""S(3, 4), S(4, 3) and S(2, 6) at u = 1, each under a stated wall-time
and traced memory budget (tracemalloc, which numpy reports its arrays to,
as in ``test_memory.py``).

The orbit-sum build forms neither the commutation equations nor H(d), and
holds no dense product table.  Measured on a 2-core x86 VM with one BLAS
thread:
- S_GF3(3,4) builds in 0.14-0.17 s at a 42 MiB traced peak (0.5-0.8 s and
  194 MiB with the dense product table); solving its commutation
  equations took 11.0 s and 2.07 GB RSS.  ``classical_domdim``
  then takes 1.6-1.7 s (212 MiB, the idempotents' peak), of which the
  steps after the idempotents take 0.1 s at 28 MiB (155 MiB while P was
  built over A), and ``qh()`` and the Ringel cover check 1.6 s (199 MiB).
- S_GF2(3,4): build, ``qh()`` and the cover check 5.7-5.9 s (387 MiB).
- S_GF3(4,3) builds in 0.08-0.10 s at 34 MiB (0.7-1.0 s and 517 MiB
  with the dense table).
- S_GF2(2,6) builds in 0.2 s at 14 MiB; H(6) alone took about 51 s.
Each budget is about three times the time and 1.25 times the peak, as
times on the VM vary by 15-30% between runs and more with BLAS threads;
the 64 MiB after the idempotents is under half the 155 MiB it replaced.
"""

import time
import tracemalloc

import pytest

from qhcover.covers import verify_ringel_cover_theorem
from qhcover.fields import GF
from qhcover.gallery import build_schur
from qhcover.reldim import classical_domdim

MIB = 2**20


def _measured(call):
    """call(), its wall time in seconds and its traced peak in bytes."""
    tracemalloc.start()
    start = time.perf_counter()
    try:
        value = call()
        return value, time.perf_counter() - start, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def schur34_gf3():
    return _measured(lambda: build_schur(3, 4, 1, GF(3)))


def test_schur34_gf3_builds_within_0_5_s_and_52_mib(schur34_gf3):
    schur, seconds, peak = schur34_gf3
    assert schur.algebra.dim == 495 and "_tensor" not in vars(schur)
    assert seconds < 0.5, f"build {seconds:.2f} s"
    assert peak < 52 * MIB, f"build peak {peak / MIB:.0f} MiB"


def test_schur43_gf3_builds_within_0_3_s_and_43_mib():
    schur, seconds, peak = _measured(lambda: build_schur(4, 3, 1, GF(3)))
    assert schur.algebra.dim == 816 and "_tensor" not in vars(schur)
    assert seconds < 0.3, f"build {seconds:.2f} s"
    assert peak < 43 * MIB, f"build peak {peak / MIB:.0f} MiB"


@pytest.fixture(scope="module")
def schur34_gf3_domdim(schur34_gf3):
    """classical_domdim on S_GF3(3,4) with its idempotents: the report and
    dim P, the wall time and traced peak of both, and the traced peak of
    what follows the idempotents, over what they left allocated."""
    a = schur34_gf3[0].algebra
    tracemalloc.start()
    start = time.perf_counter()
    try:
        a.primitive_idempotents()
        kept, idempotents_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        value = classical_domdim(a, 10)
        peak = tracemalloc.get_traced_memory()[1]
        return value, time.perf_counter() - start, max(idempotents_peak, peak), peak - kept
    finally:
        tracemalloc.stop()


def test_schur34_gf3_domdim_is_2_within_6_s_and_320_mib(schur34_gf3_domdim):
    (report, p_dim), seconds, peak, _ = schur34_gf3_domdim
    assert (str(report.value), report.b_dim, p_dim) == ("Exact(2)", 4, 39)
    assert seconds < 6.0, f"domdim {seconds:.1f} s"
    assert peak < 320 * MIB, f"domdim peak {peak / MIB:.0f} MiB"


def test_schur34_gf3_domdim_after_the_idempotents_stays_below_64_mib(schur34_gf3_domdim):
    after_idempotents = schur34_gf3_domdim[3]
    assert after_idempotents < 64 * MIB, f"domdim peak after the idempotents {after_idempotents / MIB:.0f} MiB"


def test_schur34_gf3_ringel_cover_within_10_s_and_300_mib(schur34_gf3):
    # n = Q-codomdim T is infinite, and h = n - 2 holds
    schur = schur34_gf3[0]
    verdict, seconds, peak = _measured(lambda: verify_ringel_cover_theorem(schur.qh(), schur.tensor_module, cap=6))
    assert verdict.holds and verdict.asserted and verdict.n.is_infinite()
    assert seconds < 10.0, f"qh and cover check {seconds:.1f} s"
    assert peak < 300 * MIB, f"qh and cover check peak {peak / MIB:.0f} MiB"


def test_schur34_gf2_ringel_cover_within_15_s_and_480_mib():
    # n = 1: the boundary case, reported without assertion
    def run():
        schur = build_schur(3, 4, 1, GF(2))
        return verify_ringel_cover_theorem(schur.qh(), schur.tensor_module, cap=6)

    verdict, seconds, peak = _measured(run)
    assert verdict.holds and not verdict.asserted and str(verdict.n) == "Exact(1)"
    assert seconds < 15.0, f"build, qh and cover check {seconds:.1f} s"
    assert peak < 480 * MIB, f"build, qh and cover check peak {peak / MIB:.0f} MiB"


def test_schur26_gf2_builds_within_1_s_and_32_mib():
    schur, seconds, peak = _measured(lambda: build_schur(2, 6, 1, GF(2)))
    assert schur.algebra.dim == 84 and "_tensor" not in vars(schur)
    assert seconds < 1.0, f"build {seconds:.1f} s"
    assert peak < 32 * MIB, f"build peak {peak / MIB:.0f} MiB"
