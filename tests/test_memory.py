"""Peak-memory guard for the README's headline algebra, S_GF3(3,3).

Traced with tracemalloc, which numpy reports its arrays to.  The build
joins the nonzero entries of the basis matrices into the 3,591 nonzero
structure constants, stored as triples; forming all products at once took it
to 317 MiB, and forming the pivot entries of every product with a dense
(165^2 x 165) result to 148 MiB.  The radical chain powers one rep matrix
per basis vector of each ideal, not the pair products of the basis (447 MiB
all at once, 31 MiB in blocks).  The radical's certificate reads the triples
and forms no product; formed all at once, the products took it to 102 MiB.
``classical_domdim`` runs on the 9-dimensional basic algebra eAe: 89 MiB
on the 165-dimensional regular module and its dual, 14.4 MiB on eAe with
P built over A, 4.2 MiB with dim P read on eAe.
"""

import tracemalloc

from qhcover import algebra as algebra_module
from qhcover.algebra import opposite
from qhcover.fields import GF
from qhcover.gallery import build_schur
from qhcover.reldim import classical_domdim

from conftest import stored_arrays

# the build's traced peak, 22.8 MiB, plus 25%
LIMIT = int(1.25 * 22.8 * 2**20)


def test_schur33_build_and_radical_stay_below_29_mib():
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


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_schur33_radical_chain_stays_below_8_mib():
    # the chain holds the r rep matrices of one ideal basis and their powers:
    # about 4 MiB, against 31 MiB when it powered the pair products X_a X_b
    a = build_schur(3, 3, 1, GF(3)).algebra
    peak = _traced_peak(lambda: algebra_module._radical_chain(a))
    assert peak < 8 * 2**20, f"chain peak {peak / 2**20:.0f} MiB"


def test_schur33_radical_certificate_stays_below_28_mib():
    # 102 MiB with all 17,490 products b_i j (and j b_i) formed at once,
    # 37 MiB in blocks with J^k formed inside A; about 22 MiB in blocks with
    # nilpotency read on the 27-dimensional representation; 5.6 MiB with the
    # two-sided test read off the triples
    a = build_schur(3, 3, 1, GF(3)).algebra
    radical = algebra_module._radical_chain(a)
    peak = _traced_peak(lambda: algebra_module._assert_nilpotent_ideal(a, radical))
    assert peak < 28 * 2**20, f"certificate peak {peak / 2**20:.0f} MiB"


def test_schur33_and_its_opposite_store_under_1_mib_of_arrays():
    # 3,591 nonzero constants as four arrays, and the same arrays sorted for
    # each contraction; the dense (165^2 x 165) float64 form was 36 MB for A
    # and 36 MB more for A^op
    a = build_schur(3, 3, 1, GF(3)).algebra
    a.radical_subspace()
    for x in (a, opposite(a)):
        x.left_mult_matrix(x.one), x.right_mult_matrix(x.one)
        assert {"_coo0", "_coo1"} <= set(vars(x))
        stored = sum(arr.nbytes for arr in stored_arrays(x))
        assert stored < 2**20, f"{stored / 2**20:.1f} MiB"


def test_schur33_domdim_after_the_idempotents_stays_below_20_mib():
    # A's idempotents are shared by both routes; what follows them once ran
    # on the regular module of A (its action stack and its dual's, 34 MiB
    # each), and now runs on the basic algebra eAe
    a = build_schur(3, 3, 1, GF(3)).algebra
    a.primitive_idempotents()
    peak = _traced_peak(lambda: classical_domdim(a, 10))
    assert peak < 20 * 2**20, f"domdim peak {peak / 2**20:.0f} MiB"
