"""Peak-memory guard for the README's headline algebra, S_GF3(3,3).

Traced with tracemalloc, which numpy reports its arrays to.  The build forms
structure constants from pivot entries only and the radical chain reduces
its pair products block by block; forming all products at once took the
build to 317 MiB and the radical to 447 MiB.  The radical's certificate
tests and reduces its products in blocks as well; formed all at once, they
took it to 102 MiB.
"""

import tracemalloc

from qhcover import algebra as algebra_module
from qhcover.fields import GF
from qhcover.gallery import build_schur

LIMIT = 180 * 2**20


def test_schur33_build_and_radical_stay_below_180_mib():
    tracemalloc.start()
    try:
        schur = build_schur(3, 3, 1, GF(3))
        build_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        radical = schur.algebra.radical_subspace()
        radical_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (schur.algebra.dim, radical.dim) == (165, 106)
    assert build_peak < LIMIT, f"build peak {build_peak / 2**20:.0f} MiB"
    assert radical_peak < LIMIT, f"radical peak {radical_peak / 2**20:.0f} MiB"


def test_schur33_radical_certificate_stays_below_51_mib():
    # half the 102 MiB that the certificate took with all 17,490 products
    # b_i j (and j b_i) formed at once; about 37 MiB in blocks
    a = build_schur(3, 3, 1, GF(3)).algebra
    radical = algebra_module._radical_gfp_layers(a)
    tracemalloc.start()
    try:
        algebra_module._assert_nilpotent_ideal(a, radical)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 51 * 2**20, f"certificate peak {peak / 2**20:.0f} MiB"
